/**
 * @file
 * Minimal JSON support used by the observability layer (stat
 * dumps, Chrome trace files, run manifests, benchmark records) and
 * by every document the system reads.
 *
 * Three parts:
 *
 *  - JsonWriter: streaming emission with correct escaping and
 *    locale-independent number formatting.  Misuse (value without
 *    key inside an object, unbalanced nesting) trips UATM_ASSERT
 *    rather than producing broken output.
 *  - parseJson/JsonValue: a strict recursive-descent parser.
 *    Parse failures are reported with a byte offset, never an
 *    assert: input files are user data.
 *  - The checked reader (JsonField, readObject, readDocument), the
 *    one place a document is checked against its schema: a table
 *    of keys, each with its value's kind, range and destination
 *    and whether it is required.  A value that breaks it is a
 *    ParseError naming the document and the JSON path, never a
 *    default, a cast or an assertion.
 */

#ifndef UATM_OBS_JSON_HH
#define UATM_OBS_JSON_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.hh"

namespace uatm::obs {

class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit the key of the next key/value pair (object scope). */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(const std::string &v);

    /** Bool / integral / floating-point values. */
    template <typename T,
              typename = std::enable_if_t<std::is_arithmetic_v<T>>>
    JsonWriter &
    value(T v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            return rawValue(v ? "true" : "false");
        } else if constexpr (std::is_floating_point_v<T>) {
            return rawValue(formatNumber(static_cast<double>(v)));
        } else if constexpr (std::is_signed_v<T>) {
            return rawValue(std::to_string(
                static_cast<std::int64_t>(v)));
        } else {
            return rawValue(std::to_string(
                static_cast<std::uint64_t>(v)));
        }
    }

    /** Emit pre-rendered JSON (e.g. a nested document) verbatim. */
    JsonWriter &rawValue(std::string_view json);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    keyValue(std::string_view k, T &&v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

    /** Finished document; asserts the nesting is balanced. */
    const std::string &str() const;

    /** Quote and escape @p s as a JSON string literal. */
    static std::string escape(std::string_view s);

    /** Locale-independent rendering; non-finite becomes null. */
    static std::string formatNumber(double v);

  private:
    std::string out_;
    std::vector<char> stack_;      ///< 'o' = object, 'a' = array
    std::vector<bool> first_;      ///< no comma needed yet per level
    bool pendingKey_ = false;      ///< key() emitted, value expected

    void beforeValue();
};

/**
 * One parsed JSON value.  Accessors assert the kind matches, so a
 * document is read through the checked reader below, which checks
 * each kind first and turns a mismatch into a ParseError naming
 * the path; the accessors serve tests and the reader itself.
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** A number as the document spells it ("1e6", "-0"). */
    const std::string &literal() const;

    /** Array elements (asserts isArray()). */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order (asserts isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Array length / object member count; 0 otherwise. */
    std::size_t size() const;

    /** Object member by key; nullptr when absent or not an
     *  object.  The first member wins on duplicate keys. */
    const JsonValue *find(std::string_view key) const;

    /** Object member by key; asserts presence. */
    const JsonValue &at(std::string_view key) const;

    /** Array element by index; asserts bounds. */
    const JsonValue &at(std::size_t index) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;  ///< a string's text, a number's literal
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Outcome of parseJson(): a value or a positioned error. */
struct JsonParseResult
{
    bool ok = false;
    JsonValue value;
    std::string error;  ///< "byte N: message" when !ok

    explicit operator bool() const { return ok; }
};

/**
 * Parse one JSON document (leading/trailing whitespace allowed,
 * nothing else may follow).  Strict RFC 8259, leading zeros aside:
 * no comments, no trailing commas, no "+8" or ".5"; \uXXXX escapes
 * (including surrogate pairs) decode to UTF-8.  Nesting deeper than
 * 256 levels is rejected, and so is a number that overflows a
 * double (JSON has no infinity); a number that underflows reads as
 * the nearest double, 0 or a denormal.
 */
JsonParseResult parseJson(std::string_view text);

// ------------------------------------------------- the checked reader

/**
 * The one conversion of a JSON number to an integer: @p v when it
 * is a whole number in [@p lo, @p hi], else nullopt, so no document
 * number reaches a truncating or undefined cast.
 */
std::optional<std::uint64_t> exactUint(double v, std::uint64_t lo,
                                       std::uint64_t hi);

/** The same rule over a parsed @p number: a literal of digits alone
 *  is read from them, so every std::uint64_t is exact; any other
 *  ("1e6", "-0") is read through its double. */
std::optional<std::uint64_t> exactUint(const JsonValue &number,
                                       std::uint64_t lo,
                                       std::uint64_t hi);

/** The signed twin of exactUint(), over std::int64_t's range. */
std::optional<std::int64_t> exactInt(double v);

/**
 * Where a value sits in the document being read, as messages name
 * it: "point_durations[3].ns" of "telemetry file 'r.json'".  Each
 * frame is a temporary of the read it names, so a path costs
 * nothing until an error renders it.
 */
class JsonPath
{
  public:
    /** The document itself, called @p document in messages, or
     *  (with a @p parent) its member @p document or element
     *  @p index. */
    explicit JsonPath(std::string_view document,
                      const JsonPath *parent = nullptr,
                      std::size_t index = kKey)
        : parent_(parent), name_(document), index_(index)
    {
    }

    JsonPath key(std::string_view key) const { return JsonPath(key, this); }
    JsonPath index(std::size_t i) const { return JsonPath({}, this, i); }

    std::string_view document() const;

    /** "axes[0].values[1]"; empty for the document itself. */
    std::string str() const;

    /** A ParseError "<document>: <path> <what>", or "<document>
     *  <what>" for the document itself. */
    template <typename... Args>
    Status
    error(Args &&...what) const
    {
        const std::string path = str();
        return Status::parseError(document(), path.empty() ? "" : ": ",
                                  path, ' ', std::forward<Args>(what)...);
    }

  private:
    static constexpr std::size_t kKey = ~std::size_t{0};

    const JsonPath *parent_ = nullptr;
    std::string_view name_;  ///< the document at the root, else a key
    std::size_t index_ = kKey;
};

/** The value as a message quotes it: 7, 1e300 (a number as the
 *  document spells it), "many", an array, ... */
std::string describeJson(const JsonValue &value);

/** OK when @p value is of @p kind; else "<path> must be a string
 *  (got 7)" and the like. */
Status checkKind(const JsonValue &value, const JsonPath &path,
                 JsonValue::Kind kind);

/** The kind check, then the store.  readJson() is the reader every
 *  field goes through; each overload below is one kind. */
Status readJson(const JsonValue &value, const JsonPath &path,
                std::string &out);
Status readJson(const JsonValue &value, const JsonPath &path,
                bool &out);
Status readJson(const JsonValue &value, const JsonPath &path,
                double &out);

/** An unsigned field in [@p lo, @p hi] (by default its type's whole
 *  range) by exactUint()'s rule; else "<path> must be an integer in
 *  [lo, hi] (got v)". */
template <std::unsigned_integral T>
Status
readJson(const JsonValue &value, const JsonPath &path, T &out,
         std::uint64_t lo = 0,
         std::uint64_t hi = std::numeric_limits<T>::max())
{
    hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max());
    const auto n =
        value.isNumber() ? exactUint(value, lo, hi) : std::nullopt;
    if (!n)
        return path.error("must be an integer in [", lo, ", ", hi,
                          "] (got ", describeJson(value), ")");
    out = static_cast<T>(*n);
    return Status();
}

/** A type with its own schema: T::fromJson(value, path). */
template <typename T>
    requires requires(const JsonValue &v, const JsonPath &p) {
        { T::fromJson(v, p) } -> std::same_as<Expected<T>>;
    }
Status
readJson(const JsonValue &value, const JsonPath &path, T &out)
{
    Expected<T> read = T::fromJson(value, path);
    if (read.ok())
        out = std::move(read).value();
    return read.status();
}

/** An array, each element read by @p read(element, path, out). */
template <typename T, typename Read>
Status
readArray(const JsonValue &value, const JsonPath &path,
          std::vector<T> &out, Read read)
{
    Status s = checkKind(value, path, JsonValue::Kind::Array);
    out = std::vector<T>(s.ok() ? value.size() : 0);
    for (std::size_t i = 0; s.ok() && i < out.size(); ++i)
        s = read(value.at(i), path.index(i), out[i]);
    return s;
}

/** An object whose keys are data (workload params, counter names):
 *  @p read(key, member, path) for each member. */
template <typename Read>
Status
readMembers(const JsonValue &value, const JsonPath &path, Read read)
{
    Status s = checkKind(value, path, JsonValue::Kind::Object);
    for (std::size_t i = 0; s.ok() && i < value.size(); ++i) {
        const auto &[key, member] = value.members()[i];
        s = read(key, member, path.key(key));
    }
    return s;
}

/** An enum given as one of @p values' names (field<&T::policy,
 *  &kPolicies, policyName>()); else "<path> must be one of a, b
 *  (got "c")". */
template <typename Enum, std::size_t N>
    requires std::is_enum_v<Enum>
Status
readJson(const JsonValue &value, const JsonPath &path, Enum &out,
         const Enum (*values)[N], const char *(*name)(Enum))
{
    std::string text;
    std::string known;
    Status s = readJson(value, path, text);
    for (Enum candidate : *values) {
        if (s.ok() && text == name(candidate)) {
            out = candidate;
            return s;
        }
        known += (known.empty() ? "" : ", ") + std::string(name(candidate));
    }
    return s.ok() ? path.error("must be one of ", known, " (got ",
                               describeJson(value), ")")
                  : s;
}

/** One key of an object schema. */
template <typename T>
struct JsonField
{
    std::string_view key;
    /** Checks the value's kind and range and stores it in @p out. */
    Status (*read)(const JsonValue &value, const JsonPath &path,
                   T &out);
    bool required = false;
};

/** What a schema does with a key its table does not list: a
 *  constant of each document, never a setting. */
enum class UnknownKeys : std::uint8_t
{
    Ignore,
    Refuse,
};

template <typename C, typename M>
C memberClass(M C::*);

/**
 * The field that reads data member @p Member through readJson().
 * @p Extra narrows an integer member's range (lo, hi), names the
 * element table of a vector of objects (&kElementFields), or an
 * enum's values and names (&kValues, valueName).
 */
template <auto Member, auto... Extra>
constexpr auto
field(std::string_view key, bool required = false)
{
    using Class = decltype(memberClass(Member));
    return JsonField<Class>{
        key,
        [](const JsonValue &value, const JsonPath &path, Class &out) {
            return readJson(value, path, out.*Member, Extra...);
        },
        required};
}

/**
 * Read the object at @p path through @p fields, in table order: a
 * present key by its field, a missing required key as "<path> is
 * required", and under UnknownKeys::Refuse a key the table does not
 * list as "unknown field "<path>"".
 */
template <typename T, std::size_t N>
Status
readObject(const JsonValue &value, const JsonPath &path, T &out,
           const JsonField<T> (&fields)[N],
           UnknownKeys unknown = UnknownKeys::Ignore)
{
    if (Status s = checkKind(value, path, JsonValue::Kind::Object);
        !s.ok())
        return s;
    for (const auto &[key, member] : value.members()) {
        if (unknown == UnknownKeys::Refuse &&
            std::none_of(fields, fields + N, [&](const JsonField<T> &f) {
                return f.key == key;
            }))
            return Status::parseError(path.document(),
                                      ": unknown field \"",
                                      path.key(key).str(), "\"");
    }
    for (const JsonField<T> &field : fields) {
        const JsonValue *member = value.find(field.key);
        if (!member && field.required)
            return path.key(field.key).error("is required");
        if (!member)
            continue;
        if (Status s = field.read(*member, path.key(field.key), out);
            !s.ok())
            return s;
    }
    return Status();
}

/** An array of values readJson() reads, or with @p fields (a
 *  pointer to an element table), of objects read through it. */
template <typename T, typename... Fields>
Status
readJson(const JsonValue &value, const JsonPath &path,
         std::vector<T> &out, Fields... fields)
{
    return readArray(value, path, out,
                     [=](const JsonValue &v, const JsonPath &p, T &item) {
                         if constexpr (sizeof...(Fields) == 0)
                             return readJson(v, p, item);
                         else
                             return readObject(v, p, item, *fields...);
                     });
}

/** Parse @p text and read it through @p fields; a parse failure is
 *  "<document>: byte N: ...". */
template <typename T, std::size_t N>
Status
readDocument(std::string_view text, std::string_view document, T &out,
             const JsonField<T> (&fields)[N],
             UnknownKeys unknown = UnknownKeys::Ignore)
{
    const JsonParseResult parsed = parseJson(text);
    if (!parsed)
        return Status::parseError(document, ": ", parsed.error);
    return readObject(parsed.value, JsonPath(document), out, fields,
                      unknown);
}

} // namespace uatm::obs

#endif // UATM_OBS_JSON_HH
