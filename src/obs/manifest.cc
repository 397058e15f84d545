/**
 * @file
 * Implementation of the run-manifest document.
 */

#include "obs/manifest.hh"

#include <ostream>

#include "obs/json.hh"
#include "obs/registry.hh"
#include "util/file.hh"
#include "util/logging.hh"

#ifndef UATM_GIT_DESCRIBE
#define UATM_GIT_DESCRIBE "unknown"
#endif

namespace uatm::obs {

Manifest::Manifest()
{
    set("run", "schema_version",
        static_cast<std::uint64_t>(kManifestSchemaVersion));
    set("run", "generator", "uatm");
    set("run", "git_describe", gitDescribe());
}

void
Manifest::setTool(const std::string &tool)
{
    set("run", "tool", tool);
}

Manifest::Field &
Manifest::field(const std::string &section, const std::string &key)
{
    for (auto &sec : sections_) {
        if (sec.name != section)
            continue;
        for (auto &f : sec.fields) {
            if (f.key == key)
                return f;
        }
        sec.fields.emplace_back().key = key;
        return sec.fields.back();
    }
    auto &sec = sections_.emplace_back();
    sec.name = section;
    sec.fields.emplace_back().key = key;
    return sec.fields.back();
}

const Manifest::Field *
Manifest::findField(const std::string &section,
                    const std::string &key) const
{
    for (const auto &sec : sections_) {
        if (sec.name != section)
            continue;
        for (const auto &f : sec.fields) {
            if (f.key == key)
                return &f;
        }
    }
    return nullptr;
}

void
Manifest::set(const std::string &section, const std::string &key,
              const std::string &value)
{
    Field &f = field(section, key);
    f.kind = FieldKind::String;
    f.str = value;
}

void
Manifest::set(const std::string &section, const std::string &key,
              const char *value)
{
    set(section, key, std::string(value));
}

void
Manifest::set(const std::string &section, const std::string &key,
              double value)
{
    Field &f = field(section, key);
    f.kind = FieldKind::Number;
    f.num = value;
}

void
Manifest::set(const std::string &section, const std::string &key,
              std::uint64_t value)
{
    set(section, key, static_cast<double>(value));
}

void
Manifest::set(const std::string &section, const std::string &key,
              bool value)
{
    Field &f = field(section, key);
    f.kind = FieldKind::Bool;
    f.flag = value;
}

void
Manifest::setStats(const StatRegistry &registry)
{
    statsJson_ = registry.toJson();
}

std::string
Manifest::lookup(const std::string &section,
                 const std::string &key) const
{
    const Field *f = findField(section, key);
    if (!f)
        return "";
    switch (f->kind) {
      case FieldKind::String:
        return f->str;
      case FieldKind::Number:
        return JsonWriter::formatNumber(f->num);
      case FieldKind::Bool:
        return f->flag ? "true" : "false";
    }
    panic("unknown FieldKind");
}

std::size_t
Manifest::size() const
{
    std::size_t n = 0;
    for (const auto &sec : sections_)
        n += sec.fields.size();
    return n;
}

std::string
Manifest::toJson() const
{
    JsonWriter w;
    w.beginObject();
    for (const auto &sec : sections_) {
        w.key(sec.name).beginObject();
        for (const auto &f : sec.fields) {
            switch (f.kind) {
              case FieldKind::String:
                w.keyValue(f.key, f.str);
                break;
              case FieldKind::Number:
                w.keyValue(f.key, f.num);
                break;
              case FieldKind::Bool:
                w.keyValue(f.key, f.flag);
                break;
            }
        }
        w.endObject();
    }
    if (!statsJson_.empty())
        w.key("stats").rawValue(statsJson_);
    w.endObject();
    return w.str();
}

Status
Manifest::write(const std::string &path) const
{
    return writeWholeFile(
        path, [this](std::ostream &out) { out << toJson(); });
}

const char *
Manifest::gitDescribe()
{
    return UATM_GIT_DESCRIBE;
}

} // namespace uatm::obs
