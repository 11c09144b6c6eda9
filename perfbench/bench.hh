/**
 * @file
 * Shared declarations of the end-to-end benchmark driver: the named
 * workloads, the clock, the span log, the correctness gate and the
 * metric report. Everything here calls into the pacache library
 * through its public headers only; nothing under src/ is changed.
 */

#ifndef PACACHE_PERFBENCH_BENCH_HH
#define PACACHE_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "obs/trace_writer.hh"

namespace perfbench
{

/** The public entry point a workload drives. */
enum class Entry
{
    Stream,  //!< runExperiment(TraceSource &): streamed or windowed
    Sharded, //!< runner::runShardedExperiment
    Serve,   //!< serve::ServeServer, paced open loop
};

/** The streaming generator that builds a workload's .pct input. */
enum class Generator
{
    Oltp,  //!< scaledOltpStreams
    Cello, //!< scaledCelloStreams
};

/** One named workload: its input, its configuration, its entry. */
struct Workload
{
    std::string name;
    Generator gen = Generator::Oltp;
    uint64_t records = 0; //!< input size (full or tiny)
    pacache::ExperimentConfig cfg;
    Entry entry = Entry::Stream;
};

/** Disks of every generated input. */
inline constexpr uint32_t kDisks = 64;
/** Disk partitions of the sharded replays. */
inline constexpr unsigned kShards = 8;
/** Serve topology: semantic stripe count and worker threads. */
inline constexpr std::size_t kServeStripes = 4;
inline constexpr std::size_t kServeWorkers = 2;
/** Paced serve trials: offered rate of the latency figures, and the
 *  input prefix each trial feeds. */
inline constexpr double kServeRefRateMrps = 0.5;
inline constexpr uint64_t kPacedRecords = 300000;

/** The workload called @p name at full or tiny size, if it exists. */
std::optional<Workload> findWorkload(const std::string &name, bool tiny);

/** Write @p w's seeded input to @p path (never timed). */
void generateInput(const Workload &w, uint64_t seed,
                   const std::string &path);

/** Pool workers for sharded replay: fewer than the host's cores. */
unsigned shardJobs();

/** Monotonic host clock, in the time base of ServeRequest::submitNs. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsBetween(uint64_t from_ns, uint64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/**
 * Spans around the calls into each layer, kept in memory and written
 * as Chrome trace-event JSON when the run ends. Times are seconds
 * since the log was created.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Record [start_ns, end_ns) as a span called @p name. */
    void add(const std::string &name, uint64_t start_ns, uint64_t end_ns);
    /** Write the trace-event document; false if @p path fails. */
    bool write(const std::string &path) const;

  private:
    uint64_t originNs;
    pacache::obs::TraceEventWriter writer;
};

/** RAII span: measures its own scope and logs it. */
class Span
{
  public:
    Span(SpanLog &log, std::string name)
        : spans(log), label(std::move(name)), startNs(nowNs())
    {
    }
    ~Span() { spans.add(label, startNs, nowNs()); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &spans;
    std::string label;
    uint64_t startNs;
};

/** Simulation outputs that must repeat exactly. */
struct Fingerprint
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    pacache::Energy totalEnergy = 0;

    Fingerprint() = default;
    explicit Fingerprint(const pacache::ExperimentResult &r)
        : hits(r.cache.hits), misses(r.cache.misses),
          evictions(r.cache.evictions), totalEnergy(r.totalEnergy)
    {
    }

    bool operator==(const Fingerprint &) const = default;
};

/**
 * Correctness bookkeeping: every run of a workload is one attempt;
 * a run that fails any check counts once as failed.
 */
class Gate
{
  public:
    /** Start a new attempted run. */
    void beginRun() { ++attemptedRuns; currentFailed = false; }
    /** Fail the current run unless @p ok; prints @p what on failure. */
    void check(bool ok, const std::string &what);
    /** Compare @p fp with @p ref, which the first call sets. */
    void sameAs(std::optional<Fingerprint> &ref, const Fingerprint &fp,
                const std::string &what);
    /** Ledger conservation of @p r within the library's 1e-9 bound. */
    void ledgerConserves(const pacache::ExperimentResult &r);

    uint64_t attempted() const { return attemptedRuns; }
    uint64_t failed() const { return failedRuns; }
    double maxLedgerError() const { return worstLedger; }

  private:
    uint64_t attemptedRuns = 0;
    uint64_t failedRuns = 0;
    bool currentFailed = false;
    double worstLedger = 0;
};

/** Named metrics with units, printed as a table and as JSON. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Human-readable table on stdout. */
    void printTable() const;
    /** The one-line result object the runner script consumes. */
    void printResult(const Gate &gate) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Quantile @p q of @p v by nearest rank, as used for the timing
 * samples (0 when empty).
 */
double quantile(std::vector<double> v, double q);

/** Options of one measured run. */
struct RunOptions
{
    std::string input;      //!< the workload's .pct
    double seconds = 10;    //!< measuring budget
    std::string spansOut;   //!< traced run: span JSON path
    std::string tmpDir;     //!< temp files of the library
};

/** Untraced run: the end-to-end metrics. */
void runEndToEnd(const Workload &w, const RunOptions &opt, Report &report,
                 Gate &gate);

/** Traced run: isolated layer replays and sampled step timing. */
void runLayers(const Workload &w, const RunOptions &opt, Report &report,
               Gate &gate);

// ---- shared between the end-to-end and the layer runs ------------

/** Outcome of one replay-style workload execution. */
struct RunOutcome
{
    double wallS = 0;  //!< whole run, setup included
    double setupS = 0; //!< run start to first record replayed
    pacache::ExperimentResult result;
};

/**
 * Execute a Stream or Sharded workload once, from opening the input
 * to the merged result. @p jobs overrides the sharded pool size
 * (0 = shardJobs); @p profiler, if set, is attached to the run.
 */
RunOutcome runReplay(const Workload &w, const RunOptions &opt,
                     unsigned jobs = 0,
                     pacache::obs::Profiler *profiler = nullptr);

/** Outcome of one serve trial. */
struct ServeTrial
{
    double setupS = 0;    //!< open + verify + server build + start
    double wallS = 0;     //!< setup + feed + finish
    double finishS = 0;   //!< ServeServer::finish
    double p50S = 0;      //!< request latency from due time
    double p99S = 0;
    double tailQ = 0;     //!< highest quantile with 10 samples beyond
    double tailS = 0;
    uint64_t latencySamples = 0;
    double lateP99S = 0;  //!< pacer lateness behind schedule
    double lateEndS = 0;  //!< lateness at the last request
    std::vector<double> submitNs; //!< sampled submit() call times
    uint64_t requests = 0;
    bool sustained = false; //!< p99 and end lateness within the limit
    pacache::ExperimentResult result;
};

/** The limit a sustained rate must meet: p99 from due time. */
inline constexpr double kServeP99LimitS = 2e-3;

/**
 * Feed the first @p max_records records of @p input to a fresh
 * ServeServer (kServeStripes stripes, kServeWorkers workers) running
 * @p exp, at @p rate_mrps million requests per host second, each
 * request stamped with its due time; rate 0 submits unpaced.
 */
ServeTrial serveTrial(const pacache::ExperimentConfig &exp,
                      const std::string &input, double rate_mrps,
                      uint64_t max_records);

/**
 * Highest rate (Mreq/s) at which @p sustained_at holds: climb a fixed
 * ladder from kServeRefRateMrps (or descend it, if that fails), then
 * bisect geometrically between the last rate that held and the first
 * that did not.
 */
double searchMaxRate(const std::function<bool(double)> &sustained_at);

} // namespace perfbench

#endif // PACACHE_PERFBENCH_BENCH_HH
