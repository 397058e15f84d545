/**
 * @file
 * Minimal JSON support used by the observability layer (stat
 * dumps, Chrome trace files, run manifests, benchmark records).
 *
 * Two halves:
 *
 *  - JsonWriter: streaming emission with correct escaping and
 *    locale-independent number formatting.  Misuse (value without
 *    key inside an object, unbalanced nesting) trips UATM_ASSERT
 *    rather than producing broken output.
 *  - parseJson/JsonValue: a strict recursive-descent reader for
 *    the documents the writer produces (and any other RFC 8259
 *    text), powering tools/perf_diff and round-trip tests.  Parse
 *    failures are reported with a byte offset, never an assert —
 *    input files are user data.
 */

#ifndef UATM_OBS_JSON_HH
#define UATM_OBS_JSON_HH

#include <cstdint>
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
 * One parsed JSON value.  Accessors assert the kind matches (a
 * schema violation in our own files is a bug worth a loud stop);
 * use the kind predicates or find() for optional fields.
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

    /** Array elements (asserts isArray()). */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order (asserts isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Array length / object member count; 0 otherwise. */
    std::size_t size() const;

    /** Object member by key; nullptr when absent or not an
     *  object.  The first member wins on duplicate keys. */
    const JsonValue *find(const std::string &key) const;

    /** Object member by key; asserts presence. */
    const JsonValue &at(const std::string &key) const;

    /** Array element by index; asserts bounds. */
    const JsonValue &at(std::size_t index) const;

    /** Number if the member exists and is one, else @p fallback. */
    double numberOr(const std::string &key, double fallback) const;

    /** String if the member exists and is one, else @p fallback. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * The one conversion of a JSON number to an unsigned field: @p v as
 * a non-negative integer no larger than @p max, the destination
 * field's maximum, so no document number reaches a truncating or
 * undefined cast.  Otherwise a ParseError reading "<what> must be
 * an integer in [0, max] (got v)".
 */
Expected<std::uint64_t> checkedUint(double v, std::uint64_t max,
                                    const std::string &what);

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
 * nothing else may follow).  Strict RFC 8259: no comments, no
 * trailing commas; \uXXXX escapes (including surrogate pairs)
 * decode to UTF-8.  Nesting deeper than 256 levels is rejected, and
 * so is a number that overflows a double (JSON has no infinity); a
 * number that underflows reads as the nearest double, 0 or a
 * denormal.
 */
JsonParseResult parseJson(std::string_view text);

} // namespace uatm::obs

#endif // UATM_OBS_JSON_HH
