/**
 * @file
 * Run manifests: a JSON record of *what produced an output file*.
 *
 * Every CSV the bench harness writes gets a sibling
 * <name>.manifest.json capturing the machine/cache/memory/CPU
 * configuration, the trace profile and seed, the library's git
 * version, and the final stat dump — enough to reproduce or audit
 * the run without spelunking through bench source.
 *
 * The manifest itself is a generic sectioned key/value document
 * (strings, numbers, booleans, plus an embedded stat registry), so
 * this layer depends only on util; the translation from typed
 * configs lives with the code that owns those types (bench/common,
 * examples).
 */

#ifndef UATM_OBS_MANIFEST_HH
#define UATM_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.hh"

namespace uatm::obs {

class StatRegistry;

/** Bumped whenever the manifest layout changes shape. */
constexpr int kManifestSchemaVersion = 1;

class Manifest
{
  public:
    Manifest();

    /** Name of the binary/experiment producing the output. */
    void setTool(const std::string &tool);

    /** Set section.key = value, replacing any previous value. */
    void set(const std::string &section, const std::string &key,
             const std::string &value);
    void set(const std::string &section, const std::string &key,
             const char *value);
    void set(const std::string &section, const std::string &key,
             double value);
    void set(const std::string &section, const std::string &key,
             std::uint64_t value);
    void set(const std::string &section, const std::string &key,
             bool value);

    /** Embed a full stat dump under the "stats" key. */
    void setStats(const StatRegistry &registry);

    /** Stored value, or "" when absent (numbers are rendered). */
    std::string lookup(const std::string &section,
                       const std::string &key) const;

    /** Number of (section, key) pairs stored. */
    std::size_t size() const;

    std::string toJson() const;

    /** Write toJson() to @p path; IoError when unwritable. */
    Status write(const std::string &path) const;

    /** `git describe` of the tree this library was built from. */
    static const char *gitDescribe();

  private:
    enum class FieldKind : std::uint8_t { String, Number, Bool };

    struct Field
    {
        std::string key;
        FieldKind kind = FieldKind::String;
        std::string str;
        double num = 0.0;
        bool flag = false;
    };

    struct Section
    {
        std::string name;
        std::vector<Field> fields;
    };

    std::vector<Section> sections_;  ///< insertion order
    std::string statsJson_;          ///< embedded stat dump

    Field &field(const std::string &section,
                 const std::string &key);
    const Field *findField(const std::string &section,
                           const std::string &key) const;
};

} // namespace uatm::obs

#endif // UATM_OBS_MANIFEST_HH
