/**
 * @file
 * Implementation of the flag reader.
 */

#include "obs/flags.hh"

#include <algorithm>
#include <cstdio>

#include "util/logging.hh"

namespace uatm::obs {

JsonValue
parseTypedText(std::string_view text)
{
    JsonParseResult parsed = parseJson(text);
    if (!parsed)
        parsed = parseJson(JsonWriter::escape(text));
    return std::move(parsed.value);
}

Flags::Flags(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
Flags::declare(Flag flag)
{
    UATM_ASSERT(std::none_of(flags_.begin(), flags_.end(),
                             [&](const Flag &f) {
                                 return f.name == flag.name;
                             }),
                "flag '--", flag.name, "' bound twice");
    flags_.push_back(std::move(flag));
}

void
Flags::operands(std::vector<std::string> &dest, std::string synopsis)
{
    operands_ = &dest;
    synopsis_ = std::move(synopsis);
}

Status
Flags::parse(int argc, const char *const *argv, bool *helped)
{
    if (helped)
        *helped = false;
    const auto refuse = [this](auto &&...what) {
        return Status::invalidArgument(program_, ": ", what...);
    };
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            if (helped)
                *helped = true;
            return Status();
        }
        if (!arg.starts_with("--")) {
            if (!operands_)
                return refuse("unexpected positional argument '", arg,
                              "'");
            operands_->emplace_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string option(arg.substr(0, eq));
        const auto flag =
            std::find_if(flags_.begin(), flags_.end(), [&](const Flag &f) {
                return option.compare(2, std::string::npos, f.name) == 0;
            });
        if (flag == flags_.end())
            return refuse("unknown option '", option, "' (try --help)");
        if (flag->seen && !flag->repeats)
            return refuse("option '", option,
                          "' given more than once (neither value can "
                          "win silently)");
        flag->seen = true;
        std::string_view value = "true";
        if (eq != std::string_view::npos) {
            value = arg.substr(eq + 1);
            if (value.empty())
                return refuse("option '", option,
                              "=' has an empty value (omit the option "
                              "to keep its default)");
        } else if (!flag->bare) {
            if (i + 1 >= argc)
                return refuse("option '", option, "' needs a value");
            value = argv[++i];
        }
        if (Status s = flag->read(value, JsonPath(program_).key(option));
            !s.ok())
            return s;
    }
    return Status();
}

int
Flags::usageError(const std::string &message) const
{
    std::fprintf(stderr, "%s\n%s", message.c_str(), usage().c_str());
    return 2;
}

std::string
Flags::usage() const
{
    std::string out = "usage: " + program_ + " [options]" +
                      (synopsis_.empty() ? "" : " " + synopsis_) + "\n";
    if (!description_.empty())
        out += description_ + "\n";
    out += "\noptions:\n";
    for (const Flag &flag : flags_) {
        out += "  --" + flag.name + (flag.bare ? "" : " <value>") +
               "\n      " + flag.help;
        if (!flag.bare && !flag.repeats)
            out += " (default: " + flag.fallback + ")";
        out += '\n';
    }
    return out;
}

} // namespace uatm::obs
