/**
 * @file
 * The one reader of a program's flags, next to the document reader
 * it shares its rules with.
 *
 * Each program binds every flag to the variable it fills; the
 * variable's value at binding time is the default --help prints.
 * "--name value" and "--name=value" both set a flag, and a bool
 * flag is given bare ("--name") or as "--name=true|false".
 *
 * A string flag takes the text as typed.  Any other reads the text
 * as a JSON value when it parses as one, else as a JSON string,
 * and hands it to the readJson() overload a JSON key of that type
 * uses.  So a flag and a document field follow one number rule and
 * fail in the same words, naming the program, the flag and the
 * value: "prog: --line must be an integer in [0, 4294967295] (got
 * 4294967328)", "prog: --alpha must be a number (got "nan")".
 */

#ifndef UATM_OBS_FLAGS_HH
#define UATM_OBS_FLAGS_HH

#include <concepts>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/json.hh"
#include "util/status.hh"

namespace uatm::obs {

/**
 * @p text as a JSON value when it parses as one, else as a JSON
 * string: the rule for typed text that is not a string, a flag's
 * value (readFlag()) or a --workload param's
 * (exp::WorkloadSpec::parse).
 */
JsonValue parseTypedText(std::string_view text);

/**
 * Convert one flag value's @p text into @p out by the rule above;
 * a std::vector<std::string> appends it.  @p extra narrows an
 * integer to [lo, hi], as readJson() takes it.
 */
template <typename T, typename... Extra>
Status
readFlag(std::string_view text, const JsonPath &path, T &out,
         Extra... extra)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
        return Status();
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        out.emplace_back(text);
        return Status();
    } else {
        return readJson(parseTypedText(text), path, out, extra...);
    }
}

/**
 * Environment variable @p name as a count in [1, T's maximum], read
 * by readFlag()'s rule: @p fallback when it is unset or empty, and
 * when it is refused, after a warning with the reader's message
 * ("UATM_X must be an integer in [1, ...] (got "1x")") and the
 * value kept.
 */
template <std::unsigned_integral T>
T
readEnvCount(const char *name, T fallback)
{
    const char *text = std::getenv(name);
    if (!text || !*text)
        return fallback;
    T count = 0;
    if (Status s = readFlag(text, JsonPath(name), count, 1); !s.ok()) {
        warn(s.message(), "; keeping ", fallback);
        return fallback;
    }
    return count;
}

/** A program's flags, each bound to its destination. */
class Flags
{
  public:
    /** @p program names the program in usage and in every message;
     *  @p description follows the usage line. */
    explicit Flags(std::string program, std::string description = "");

    /**
     * Bind --@p name to @p dest: a std::string, a bool, an unsigned
     * integer, a double, or a std::vector<std::string>, the one kind
     * of flag that may repeat.  @p extra is an integer's [lo, hi].
     */
    template <typename T, typename... Extra>
    void
    add(std::string name, T &dest, std::string help, Extra... extra)
    {
        Flag flag{std::move(name), std::move(help), "",
                  std::is_same_v<T, bool>,
                  std::is_same_v<T, std::vector<std::string>>, false,
                  [&dest, extra...](std::string_view text,
                                    const JsonPath &path) {
                      return readFlag(text, path, dest, extra...);
                  }};
        if constexpr (std::is_same_v<T, std::string>)
            flag.fallback = dest;
        else if constexpr (std::is_same_v<T, double>)
            flag.fallback = JsonWriter::formatNumber(dest);
        else if constexpr (std::unsigned_integral<T> &&
                           !std::is_same_v<T, bool>)
            flag.fallback = std::to_string(dest);
        declare(std::move(flag));
    }

    /** Collect positional arguments into @p dest, shown as
     *  @p synopsis in the usage line.  Without it, a positional
     *  argument is refused. */
    void operands(std::vector<std::string> &dest, std::string synopsis);

    /**
     * Read argv into the bound destinations.  "--help" or "-h"
     * prints usage() and sets @p helped, and the caller exits
     * without running.  An unknown option, a missing value, an
     * option given twice (neither value can win silently), an empty
     * "--name=" and a stray positional argument are InvalidArgument;
     * a value its destination refuses is readJson()'s ParseError.
     * Never exits: each program decides what a failure costs.
     */
    Status parse(int argc, const char *const *argv,
                 bool *helped = nullptr);

    /** The --help text, from the bindings. */
    std::string usage() const;

    /** Print @p message and usage() to stderr; returns 2, the exit
     *  status the tools give bad usage. */
    int usageError(const std::string &message) const;

  private:
    struct Flag
    {
        std::string name;
        std::string help;
        std::string fallback;  ///< the default, as usage() shows it
        bool bare = false;     ///< a bool: "--name" alone sets it
        bool repeats = false;  ///< a list: may be given again
        bool seen = false;
        std::function<Status(std::string_view, const JsonPath &)> read;
    };

    std::string program_;
    std::string description_;
    std::vector<Flag> flags_;
    std::vector<std::string> *operands_ = nullptr;
    std::string synopsis_;

    void declare(Flag flag);
};

} // namespace uatm::obs

#endif // UATM_OBS_FLAGS_HH
