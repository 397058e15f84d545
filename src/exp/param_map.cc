/**
 * @file
 * Implementation of the typed workload-parameter map.
 */

#include "exp/param_map.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "obs/json.hh"
#include "util/logging.hh"

namespace uatm::exp {

ParamValue
ParamValue::ofString(std::string v)
{
    ParamValue value;
    value.type_ = Type::String;
    value.string_ = std::move(v);
    return value;
}

ParamValue
ParamValue::ofInt(std::int64_t v)
{
    ParamValue value;
    value.type_ = Type::Int;
    value.int_ = v;
    return value;
}

ParamValue
ParamValue::ofDouble(double v)
{
    ParamValue value;
    value.type_ = Type::Double;
    value.double_ = v;
    return value;
}

ParamValue
ParamValue::ofBool(bool v)
{
    ParamValue value;
    value.type_ = Type::Bool;
    value.bool_ = v;
    return value;
}

const char *
ParamValue::typeName(Type type)
{
    switch (type) {
      case Type::String:
        return "string";
      case Type::Int:
        return "int";
      case Type::Double:
        return "double";
      case Type::Bool:
        return "bool";
    }
    return "?";
}

const std::string &
ParamValue::asString() const
{
    UATM_ASSERT(type_ == Type::String,
                "param value is not a string");
    return string_;
}

std::int64_t
ParamValue::asInt() const
{
    UATM_ASSERT(type_ == Type::Int, "param value is not an int");
    return int_;
}

double
ParamValue::asDouble() const
{
    UATM_ASSERT(type_ == Type::Double,
                "param value is not a double");
    return double_;
}

bool
ParamValue::asBool() const
{
    UATM_ASSERT(type_ == Type::Bool, "param value is not a bool");
    return bool_;
}

double
ParamValue::asNumber() const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    UATM_ASSERT(type_ == Type::Double,
                "param value is not numeric");
    return double_;
}

std::string
ParamValue::render() const
{
    switch (type_) {
      case Type::String:
        return string_;
      case Type::Int:
        return std::to_string(int_);
      case Type::Double:
        return obs::JsonWriter::formatNumber(double_);
      case Type::Bool:
        return bool_ ? "true" : "false";
    }
    return "?";
}

namespace {

/** strtod over the whole of @p text; nullopt on trailing junk and
 *  NaN, and with @p out_of_range set on an infinity ("inf", or an
 *  overflow such as "1e999"). */
std::optional<double>
parseFullDouble(const std::string &text, bool &out_of_range)
{
    out_of_range = false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || std::isnan(v))
        return std::nullopt;
    if (std::isinf(v)) {
        out_of_range = true;
        return std::nullopt;
    }
    return v;
}

/**
 * The value @p v's rendering (obs::JsonWriter::formatNumber, 12
 * significant digits) parses back to.  A point key carries only
 * the rendered text, so a param holds this value wherever it was
 * read from: equal keys must build equal streams.  @p v is finite.
 */
double
asRendered(double v)
{
    return std::strtod(obs::JsonWriter::formatNumber(v).c_str(),
                       nullptr);
}

} // namespace

Expected<ParamValue>
ParamValue::parse(Type type, std::string_view text)
{
    const std::string value(text);
    switch (type) {
      case Type::String:
        return ofString(value);
      case Type::Bool: {
        std::string lower = value;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(
                               std::tolower(c));
                       });
        if (lower == "1" || lower == "true" || lower == "yes")
            return ofBool(true);
        if (lower == "0" || lower == "false" || lower == "no")
            return ofBool(false);
        return Status::parseError("'", value,
                                  "' is not a bool (expected "
                                  "1/0/true/false/yes/no)");
      }
      case Type::Int: {
        char *end = nullptr;
        errno = 0;
        const long long v =
            std::strtoll(value.c_str(), &end, 10);
        if (end != value.c_str() && *end == '\0') {
            if (errno == ERANGE) {
                return Status::outOfRange(
                    "'", value,
                    "' overflows a 64-bit integer");
            }
            return ofInt(v);
        }
        // Scientific shorthand ("1e6") is common for record
        // counts; accept it when the value is integral.
        bool range = false;
        const auto d = parseFullDouble(value, range);
        if (range) {
            return Status::outOfRange(
                "'", value, "' overflows a 64-bit integer");
        }
        if (!d || *d != std::floor(*d)) {
            return Status::parseError("'", value,
                                      "' is not an integer");
        }
        const auto n = obs::exactInt(*d);
        if (!n) {
            return Status::outOfRange(
                "'", value, "' overflows a 64-bit integer");
        }
        return ofInt(*n);
      }
      case Type::Double: {
        bool range = false;
        const auto d = parseFullDouble(value, range);
        if (range) {
            return Status::outOfRange("'", value,
                                      "' overflows a double");
        }
        if (!d)
            return Status::parseError("'", value,
                                      "' is not a number");
        return ofDouble(asRendered(*d));
      }
    }
    return Status::invalidArgument("unknown param type");
}

Expected<ParamValue>
ParamValue::coerce(Type target) const
{
    if (type_ == target)
        return *this;
    if (type_ == Type::Int && target == Type::Double)
        return ofDouble(static_cast<double>(int_));
    if (type_ == Type::Double && target == Type::Int) {
        if (const auto n = obs::exactInt(double_))
            return ofInt(*n);
    }
    return Status::invalidArgument(
        "expected a ", typeName(target), " value, got ",
        typeName(type_), " '", render(), "'");
}

void
ParamMap::set(const std::string &name, ParamValue value)
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry &entry, const std::string &key) {
            return entry.name < key;
        });
    if (it != entries_.end() && it->name == name) {
        it->value = std::move(value);
        return;
    }
    entries_.insert(it, Entry{name, std::move(value)});
}

void
ParamMap::setString(const std::string &name, std::string v)
{
    set(name, ParamValue::ofString(std::move(v)));
}

void
ParamMap::setInt(const std::string &name, std::int64_t v)
{
    set(name, ParamValue::ofInt(v));
}

void
ParamMap::setDouble(const std::string &name, double v)
{
    set(name, ParamValue::ofDouble(v));
}

void
ParamMap::setBool(const std::string &name, bool v)
{
    set(name, ParamValue::ofBool(v));
}

const ParamValue *
ParamMap::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry &entry, const std::string &key) {
            return entry.name < key;
        });
    if (it != entries_.end() && it->name == name)
        return &it->value;
    return nullptr;
}

const ParamValue &
ParamMap::require(const std::string &name,
                  ParamValue::Type type) const
{
    const ParamValue *value = find(name);
    UATM_ASSERT(value != nullptr, "param '", name,
                "' is absent (was the map resolved against the "
                "method's defaults?)");
    UATM_ASSERT(value->type() == type, "param '", name,
                "' accessed as ", ParamValue::typeName(type),
                " but holds a ",
                ParamValue::typeName(value->type()));
    return *value;
}

const std::string &
ParamMap::getString(const std::string &name) const
{
    return require(name, ParamValue::Type::String).asString();
}

std::int64_t
ParamMap::getInt(const std::string &name) const
{
    return require(name, ParamValue::Type::Int).asInt();
}

double
ParamMap::getDouble(const std::string &name) const
{
    return require(name, ParamValue::Type::Double).asDouble();
}

bool
ParamMap::getBool(const std::string &name) const
{
    return require(name, ParamValue::Type::Bool).asBool();
}

std::string
ParamMap::render() const
{
    std::string out;
    for (const auto &entry : entries_) {
        if (!out.empty())
            out += ',';
        out += entry.name;
        out += '=';
        out += entry.value.render();
    }
    return out;
}

void
ParamMap::writeJson(obs::JsonWriter &writer) const
{
    writer.beginObject();
    for (const auto &entry : entries_) {
        writer.key(entry.name);
        switch (entry.value.type()) {
          case ParamValue::Type::String:
            writer.value(entry.value.asString());
            break;
          case ParamValue::Type::Int:
            writer.value(entry.value.asInt());
            break;
          case ParamValue::Type::Double:
            writer.value(entry.value.asDouble());
            break;
          case ParamValue::Type::Bool:
            writer.value(entry.value.asBool());
            break;
        }
    }
    writer.endObject();
}

Expected<ParamMap>
ParamMap::fromJson(const obs::JsonValue &value, const obs::JsonPath &path)
{
    ParamMap map;
    const Status status = obs::readMembers(
        value, path,
        [&map](const std::string &name, const obs::JsonValue &member,
               const obs::JsonPath &at) {
            if (member.isString()) {
                map.setString(name, member.asString());
            } else if (member.isBool()) {
                map.setBool(name, member.asBool());
            } else if (member.isNumber()) {
                const double v = asRendered(member.asNumber());
                if (const auto n = obs::exactInt(v))
                    map.setInt(name, *n);
                else
                    map.setDouble(name, v);
            } else {
                return at.error("must be a string, number or bool (got ",
                                obs::describeJson(member), ")");
            }
            return Status();
        });
    if (!status.ok())
        return status;
    return map;
}

} // namespace uatm::exp
