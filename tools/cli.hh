/**
 * @file
 * Minimal command-line flag parsing shared by the pacache tools:
 * "--key value" and "--key=value" pairs plus "--flag" booleans, with
 * typed accessors and an unknown-flag check.
 */

#ifndef PACACHE_TOOLS_CLI_HH
#define PACACHE_TOOLS_CLI_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pacache
{
class Trace;
}

namespace pacache::cli
{

/** Parsed command line. */
class Args
{
  public:
    /** Parse argv; values follow their flag or use '='. */
    Args(int argc, char **argv);

    bool has(const std::string &key) const;

    std::string get(const std::string &key,
                    const std::string &fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    /** Fatal, naming the flag and @p max, on a value above @p max
     *  (so callers can narrow the result without wrapping). */
    uint64_t getUint(const std::string &key, uint64_t fallback,
                     uint64_t max = UINT64_MAX) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string> &positional() const { return pos; }

    /**
     * Verify every provided flag is in @p known; returns the first
     * unknown flag or an empty string.
     */
    std::string firstUnknown(const std::set<std::string> &known) const;

  private:
    std::map<std::string, std::string> values;
    std::vector<std::string> pos;
};

/**
 * The option prelude every pacache tool shares: print @p usage on
 * --help, the build banner on --version (returning true so the
 * caller exits 0), and reject the first flag not in @p known
 * ("help" and "version" are implied members).
 */
bool handleStandardFlags(const Args &args, const std::string &tool,
                         const char *usage,
                         const std::set<std::string> &known);

/** True when @p s ends with @p suffix (output-format sniffing). */
bool hasSuffix(const std::string &s, const std::string &suffix);

/** Open @p path for writing; fatal (fail fast) when it cannot be. */
std::ofstream openOutput(const std::string &path);

/**
 * The workload-selection flags loadWorkload() consumes; union these
 * into a tool's known-flag set.
 */
const std::set<std::string> &workloadFlags();

/**
 * Build a trace from the standard workload flags: --trace FILE
 * (format sniffed unless --trace-format says otherwise) or
 * --workload NAME (oltp | cello | synthetic | opg-showcase) with the
 * generator knobs --duration, --requests, --write-ratio,
 * --interarrival, --pareto, --disks, and --seed.
 */
Trace loadWorkload(const Args &args,
                   const std::string &default_workload);

} // namespace pacache::cli

#endif // PACACHE_TOOLS_CLI_HH
