/**
 * @file
 * Sharded concurrent serving front-end over the cache + write-policy
 * + DPM kernel (ROADMAP open item 1).
 *
 * The server partitions the disk array into `shards` stripes
 * (stripeOf(disk) = disk mod shards); each stripe owns a complete,
 * independently-locked SimStack — event queue, cache slice with its
 * own replacement policy, PA classifier, DPM instance, disk array,
 * optional WTDU log device — driven through StorageSystem::step().
 * Because every disk's power-state machine, energy
 * accounting, and event queue live in exactly one stripe, disk
 * transitions are naturally serialized through that stripe's lock
 * (the per-disk DPM actor of DESIGN.md 5g) and the PR 6 energy
 * ledger stays conservation-exact under any thread count.
 *
 * Thread model: producers push ServeRequests into per-stripe MPMC
 * rings; `threads` workers sweep the stripes with try_lock and drain
 * batches under the stripe lock. The stripe count is the *semantic*
 * parameter (it decides the cache partition and per-stripe Bloom
 * filters); the thread count is pure execution — results are
 * identical for any `threads` at a fixed `shards`, and `shards == 1`
 * reproduces the single-threaded replay bit for bit (the
 * serve_matches_replay fuzz property and `pacache_serve
 * --verify-replay` check exactly this).
 */

#ifndef PACACHE_SERVE_SERVER_HH
#define PACACHE_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "util/log_histogram.hh"

namespace pacache
{
class Trace;
}

namespace pacache::serve
{

/** One request on the wire between producers and stripe workers. */
struct ServeRequest
{
    Time time = 0;     //!< simulated arrival (open loop)
    BlockId block;
    bool write = false;
    uint64_t traceIndex = 0; //!< originating trace record
    uint64_t idx = 0;        //!< stream index (policy bookkeeping)
    uint64_t submitNs = 0;   //!< host submit stamp; 0 = unsampled
};

/** Server topology and kernel configuration. */
struct ServeConfig
{
    /**
     * Kernel configuration (policy, DPM, write policy, cache size,
     * disk spec, PA parameters). Off-line policies (Belady, OPG,
     * InfiniteCache) cannot serve — they need the whole future.
     * observer/profiler must be null: serve-path metrics go through
     * shard-local state instead (see src/obs/metrics.hh).
     */
    ExperimentConfig exp;
    std::size_t numDisks = 16;
    std::size_t shards = 1;  //!< semantic: cache/disk partition count
    std::size_t threads = 1; //!< execution only; any value, same result
    std::size_t ringCapacity = 4096; //!< per-stripe, power of two
    std::size_t batch = 64;  //!< max pops per stripe-lock acquisition
};

/** Per-stripe report. */
struct ShardSummary
{
    uint64_t requests = 0;
    uint64_t hits = 0;
    Energy energy = 0;           //!< owned disks + log service (J)
    double ledgerRelError = 0.0; //!< conservation over owned disks
};

/** Everything a serve run produces. */
struct ServeResult
{
    /** Merged kernel statistics, shaped exactly like a replay's. */
    ExperimentResult result;
    /** Host-clock request latency (s) over sampled requests. */
    LogHistogram latency;
    std::vector<ShardSummary> shards;
    double ledgerMaxRelError = 0.0;
    bool ledgerConserves = false;
};

/** The sharded server. Lifecycle: ctor -> start -> submit* -> finish. */
class ServeServer
{
  public:
    explicit ServeServer(const ServeConfig &config);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Owning stripe of @p disk. */
    std::size_t shardOf(DiskId disk) const { return disk % numShards; }

    /** Spawn the worker threads. */
    void start();

    /**
     * Enqueue one request (any thread). Spins with yield while the
     * owning stripe's ring is full — open-loop producers absorb the
     * backpressure. Must not race with finish().
     */
    void submit(const ServeRequest &req);

    /**
     * Stop the workers once every ring has drained, close each
     * stripe's simulation at the shared horizon derived from
     * @p end_time (the last request's simulated arrival), and merge
     * the per-stripe statistics. Call after all producers stopped.
     */
    ServeResult finish(Time end_time);

    /**
     * Submit every block access of @p trace, in trace order, from the
     * calling thread (the replay producer). Requires start().
     */
    void submitTrace(const Trace &trace);

    /**
     * Drive @p trace through a server built from @p config (numDisks
     * taken from the trace) and return the merged result; with
     * config.shards == 1 the result is bit-identical to
     * runExperiment() on the same trace at any thread count.
     */
    static ServeResult replayTrace(const Trace &trace,
                                   const ServeConfig &config);

    const ServeConfig &config() const { return cfg; }

    /**
     * Stripe @p shard's WTDU log image (null unless the write policy
     * is WTDU). For crash-recovery tests: after a finish() that threw
     * CrashException the image is frozen exactly as the simulated
     * power failure left it.
     */
    const WtduLog *shardWtduLog(std::size_t shard) const;

  private:
    struct Shard;

    void workerLoop();
    bool pumpShard(Shard &shard);
    void processOne(Shard &shard, const ServeRequest &req);
    bool allRingsEmpty() const;

    ServeConfig cfg;
    std::size_t numShards;
    std::vector<std::unique_ptr<Shard>> stripes;
    std::vector<std::thread> workers;
    std::atomic<bool> done{false};
    bool started = false;
    bool finished = false;
};

} // namespace pacache::serve

#endif // PACACHE_SERVE_SERVER_HH
