/**
 * @file
 * Minimal command-line flag parsing for bench and example binaries.
 *
 * Supports "--name=value", "--name value" and bare boolean "--name".  A
 * bare "--" ends flag parsing: everything after it is positional, per the
 * usual Unix convention.  Negative numbers work as space-form values
 * ("--bias -0.3"): a lookahead argument that starts with '-' is consumed
 * as the value when it looks numeric, and treated as the next flag
 * otherwise.  This is intentionally tiny; the binaries only need a
 * handful of knobs (trace length, suite subset, CSV output, seeds).
 *
 * Numeric accessors parse strictly: a malformed value ("--branches 10x")
 * throws std::runtime_error naming the flag instead of silently running
 * the wrong experiment with the default.  Defaults apply only when the
 * flag is absent.
 */

#ifndef IMLI_SRC_UTIL_CLI_HH
#define IMLI_SRC_UTIL_CLI_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace imli
{

/**
 * Split a comma-separated flag value into its non-empty tokens
 * ("a,,b" -> {"a", "b"}).  The shared helper behind --configs /
 * --benchmarks style list flags.
 */
std::vector<std::string> splitCommaList(const std::string &csv);

/**
 * Strict non-negative decimal parse shared by every "a typo must fail
 * loudly" surface (spec overrides, sweep dimensions, journal counters,
 * branch counts): digits only, no sign/hex/whitespace, no overflow.
 * Returns false on anything else; callers own the error type/message.
 */
bool parseDecimalU64(const std::string &text, std::uint64_t &value);

/** parseDecimalU64 restricted to values that fit a long long. */
bool parseDecimalLL(const std::string &text, long long &value);

/**
 * Throwing form shared by the spec-override and sweep-dimension
 * grammars: returns the parsed value or throws std::invalid_argument
 * naming @p what (e.g. "override sic.logsize"), so the two grammars
 * cannot drift in what they accept.
 */
long long parseDecimalLLStrict(const std::string &text,
                               const std::string &what);

/** Parsed command line: flag map plus positional arguments. */
class CommandLine
{
  public:
    /** Parse argv; never throws, non-flag arguments become positionals. */
    CommandLine(int argc, const char *const *argv);

    /** True iff --name was present (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name, or @p def when absent (last wins). */
    std::string getString(const std::string &name,
                          const std::string &def = "") const;

    /**
     * Every value of a repeatable flag, in command-line order ("--dim a
     * --dim b" yields {"a", "b"}); empty when the flag is absent.
     */
    std::vector<std::string> getList(const std::string &name) const;

    /**
     * Integer value of --name, or @p def when absent.  Throws
     * std::runtime_error when the flag is present but its value is not a
     * plain integer (strict-parse policy, like the IMLI_* env overrides).
     */
    std::int64_t getInt(const std::string &name, std::int64_t def = 0) const;

    /**
     * Double value of --name, or @p def when absent.  Throws
     * std::runtime_error when the flag is present but its value does not
     * parse as a floating-point number.
     */
    double getDouble(const std::string &name, double def = 0.0) const;

    /**
     * Non-negative count flag (trace lengths, iteration counts, window
     * sizes): getInt plus a >= 0 check, so "--branches -5" throws
     * instead of wrapping to 1.8e19 in the caller's size_t cast.
     */
    std::size_t getCount(const std::string &name, std::size_t def = 0) const;

    /** Boolean: present without value or with true/1/yes = true. */
    bool getBool(const std::string &name, bool def = false) const;

    /**
     * Guard for boolean mode switches (--csv, --json, --progress): a
     * non-boolean value ("--json out.json") would be silently swallowed
     * by getBool, so it throws std::runtime_error naming the flag and
     * the stray value.  No-op when the flag is absent or carries a
     * recognized boolean spelling (true/1/yes/false/0/no).
     */
    void rejectValuedBool(const std::string &name) const;

    /**
     * Worker-count flag: "--jobs N".  N = 0, "auto" or "max" mean one
     * worker per hardware thread; absent or unparsable yields @p def.
     */
    unsigned getJobs(unsigned def = 1, const std::string &name = "jobs") const;

    /**
     * Throw std::runtime_error "unknown flag --NAME" for the first flag
     * (by name) that no accessor above has read, so a typo or a removed
     * option fails loudly instead of running the default experiment.
     * Call once, after the last flag read.  Positionals are never checked.
     */
    void rejectUnreadFlags() const;

    const std::vector<std::string> &positionals() const { return positional; }

    const std::string &programName() const { return program; }

  private:
    std::string program;
    std::map<std::string, std::string> flags;
    /** Every flag occurrence in order, for repeatable flags (getList). */
    std::vector<std::pair<std::string, std::string>> occurrences;
    std::vector<std::string> positional;
    /** Names passed to any accessor, for rejectUnreadFlags (not
     *  thread-safe: read flags from one thread). */
    mutable std::set<std::string> readNames;
};

} // namespace imli

#endif // IMLI_SRC_UTIL_CLI_HH
