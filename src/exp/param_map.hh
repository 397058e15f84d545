/**
 * @file
 * Typed parameter maps for registered workload methods.
 *
 * A ParamMap is the argument vector of a workload-method factory:
 * an ordered (name, value) list where each value carries one of
 * four primitive types.  Entries are kept sorted by name so that
 * two maps with the same content render and serialize
 * byte-identically — render() feeds axis labels and describe()
 * strings, writeJson()/fromJson() feed the WorkloadSpec
 * serialization contract (DESIGN.md §10).
 *
 * A value is read from JSON, by one rule whether it arrives in a
 * document or in a --workload string (WorkloadSpec::parse), and a
 * problem with it is a Status value, never fatal(): a mistyped
 * parameter in a sweep must degrade to a typed error row.
 */

#ifndef UATM_EXP_PARAM_MAP_HH
#define UATM_EXP_PARAM_MAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace uatm::obs {
class JsonPath;
class JsonValue;
class JsonWriter;
}

namespace uatm::exp {

/** One typed parameter value: string, int, double or bool. */
class ParamValue
{
  public:
    enum class Type : std::uint8_t
    {
        String,
        Int,
        Double,
        Bool,
    };

    /** Default: the empty string. */
    ParamValue() = default;

    static ParamValue ofString(std::string v);
    static ParamValue ofInt(std::int64_t v);
    static ParamValue ofDouble(double v);
    static ParamValue ofBool(bool v);

    /** "string", "int", "double", "bool". */
    static const char *typeName(Type type);

    /** typeName() after its indefinite article: "an int",
     *  "a double". */
    static std::string typeNameWithArticle(Type type);

    Type type() const { return type_; }

    // Accessors assert the type matches: factories only see maps
    // the registry has already validated against the method's
    // declared parameter types.
    const std::string &asString() const;
    std::int64_t asInt() const;
    double asDouble() const;
    bool asBool() const;

    /** Numeric value of an Int or Double (asserts otherwise). */
    double asNumber() const;

    /** Canonical text: "abc", "1000000", "0.99", "true". */
    std::string render() const;

    /**
     * Read one JSON value: a string, a bool, or a number, which is
     * read as the value its rendering (obs::JsonWriter::formatNumber)
     * parses back to, so equal renderings hold equal values, and
     * becomes an Int when that value is integral ("1e6"), else a
     * Double.  Null, an array or an object is a ParseError naming
     * @p path.  The declared type is applied later, by coerce().
     */
    static Expected<ParamValue> fromJson(const obs::JsonValue &value,
                                         const obs::JsonPath &path);

    /**
     * This value as @p target type.  Identity for a matching type;
     * Int widens to Double, and a Double narrows to Int when its
     * value is integral (so JSON numbers land on the declared
     * type).  Anything else is InvalidArgument.
     */
    Expected<ParamValue> coerce(Type target) const;

    bool operator==(const ParamValue &) const = default;

  private:
    Type type_ = Type::String;
    std::string string_;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    bool bool_ = false;
};

/**
 * Ordered name -> ParamValue map, sorted by name.
 */
class ParamMap
{
  public:
    struct Entry
    {
        std::string name;
        ParamValue value;

        bool operator==(const Entry &) const = default;
    };

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** Entries in sorted name order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Insert, or overwrite an existing entry of any type. */
    void set(const std::string &name, ParamValue value);
    void setString(const std::string &name, std::string v);
    void setInt(const std::string &name, std::int64_t v);
    void setDouble(const std::string &name, double v);
    void setBool(const std::string &name, bool v);

    /** The named value, or nullptr when absent. */
    const ParamValue *find(const std::string &name) const;

    // Typed accessors assert presence and type; use them in
    // factories, after the registry has merged declared defaults.
    const std::string &getString(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /** Canonical "a=1,b=x" form (sorted); "" when empty. */
    std::string render() const;

    /** Emit as a JSON object value. */
    void writeJson(obs::JsonWriter &writer) const;

    /**
     * Read a JSON object, each member by ParamValue::fromJson();
     * obs::parseJson already refuses a number that overflows a
     * double.
     */
    static Expected<ParamMap> fromJson(const obs::JsonValue &value,
                                       const obs::JsonPath &path);

    bool operator==(const ParamMap &) const = default;

  private:
    std::vector<Entry> entries_;

    const ParamValue &require(const std::string &name,
                              ParamValue::Type type) const;
};

} // namespace uatm::exp

#endif // UATM_EXP_PARAM_MAP_HH
