/**
 * @file
 * StorageSystem — the coupled trace-driven simulator: requests flow
 * through the storage cache (replacement policy + write policy) and
 * misses/flushes drive the disk array with its DPM, exactly the
 * CacheSim + DiskSim pipeline of the paper's methodology.
 *
 * Arrival times come from the trace (open-loop): disk latency delays
 * completions and spin-ups but never shifts arrivals, matching the
 * paper's trace-driven methodology.
 */

#ifndef PACACHE_CORE_STORAGE_SYSTEM_HH
#define PACACHE_CORE_STORAGE_SYSTEM_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/future.hh"
#include "core/pa_classifier.hh"
#include "core/write_policy.hh"
#include "core/wtdu_log.hh"
#include "disk/disk_array.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"

namespace pacache
{

class FaultInjector;

namespace obs
{
class SimObserver;
class Profiler;
}

namespace tracefmt
{
class TraceSource;
}

/** Configuration for a StorageSystem run. */
struct StorageConfig
{
    WritePolicy writePolicy = WritePolicy::WriteBack;
    /** WBEU: force a disk awake once this many dirty blocks pile up. */
    std::size_t wbeuMaxDirtyPerDisk = 4096;
    /** WTDU: per-disk log region capacity in blocks. */
    std::size_t wtduRegionBlocks = 8192;
    /** Response time charged to cache hits / buffered writes. */
    Time hitLatency = 0.0002;
    /** Cap on coalesced flush request length (blocks). */
    uint32_t maxFlushRun = 128;
    /**
     * Sequential prefetch degree (paper's future-work extension): on
     * a read miss, up to this many following non-resident blocks are
     * fetched in the same disk request while the platters are busy
     * anyway. 0 disables. Incompatible with off-line policies
     * (Belady/OPG), whose future knowledge is positional.
     */
    uint32_t prefetchBlocks = 0;

    /**
     * Lower bound on the accounting horizon's trace-end component.
     * Disk-sharded replay sets this to the full trace's end time so
     * every shard finalizes its disks at the same horizon the
     * unsharded run would use, even though each shard only sees its
     * own sub-trace (whose last arrival is earlier). 0 = no floor.
     * A positive floor also legitimizes an empty streaming shard
     * (a shard whose disks received no requests still idles to the
     * shared horizon).
     */
    Time endTimeFloor = 0;

    /**
     * Crash/power-fail injector for qa torture runs (DESIGN.md 5j).
     * Null — the default everywhere outside tests — disables every
     * hook at the cost of one pointer test per crash site.
     */
    FaultInjector *fault = nullptr;
};

/** End-to-end simulator for one trace. */
class StorageSystem
{
  public:
    /**
     * @param eq          event queue (owns simulated time)
     * @param cache       storage cache (policy already attached)
     * @param disks       data-disk array
     * @param config      write policy etc.
     * @param classifier  optional PA classifier to feed
     * @param log_disk    required for WTDU: the always-active log
     *                    device (not part of @p disks)
     * @param observer    observability fan-out (null: none); the
     *                    same observer should also be wired into the
     *                    disks, cache and classifier, as SimStack does
     * @param profiler    wall-clock phase profiler (null: none)
     */
    StorageSystem(EventQueue &eq, Cache &cache, DiskArray &disks,
                  const StorageConfig &config,
                  PaClassifier *classifier = nullptr,
                  Disk *log_disk = nullptr,
                  obs::SimObserver *observer = nullptr,
                  obs::Profiler *profiler = nullptr);

    /**
     * Pull every record from @p source through step() and close the
     * run with finish() at the last arrival. An off-line policy must
     * already be armed with its future. Every record's disk id must
     * be < disks.numDisks().
     */
    void run(tracefmt::TraceSource &source);

    /**
     * Advance simulated time to @p acc.time and process one access.
     * @p idx is the access's position in the block-access stream
     * (feeds policy recency bookkeeping and off-line future lookups).
     */
    void step(const BlockAccess &acc, std::size_t idx);

    /**
     * Drain the event queue and finalize disk accounting at a
     * policy-independent horizon past @p trace_end, the last
     * request's arrival time. Panics once a call has completed; a
     * call unwound by an injected crash may be repeated to finish
     * the drain.
     */
    void finish(Time trace_end);

    /** System-level response times (hits, buffered writes, misses). */
    const ResponseStats &responses() const { return respStats; }

    /** Energy of the data disks plus the log device's service energy
     *  (the log device is assumed always active anyway, so only its
     *  request traffic is charged to the policy — see DESIGN.md). */
    Energy totalEnergy() const;

    /** Number of writes absorbed by the log device (WTDU). */
    uint64_t logWrites() const { return logWriteCount; }

    /** Forced evictions of logged blocks (WTDU corner case). */
    uint64_t loggedEvictions() const { return loggedEvictionCount; }

    /** Blocks fetched speculatively by the sequential prefetcher. */
    uint64_t prefetchedBlocks() const { return prefetchCount; }

    /** Disk accesses issued per data disk (reads + writes). */
    const std::vector<uint64_t> &diskAccesses() const
    {
        return perDiskAccesses;
    }

    const WtduLog *wtduLog() const { return log.get(); }
    /** Mutable log access for crash recovery (qa harness). */
    WtduLog *wtduLog() { return log.get(); }

  private:
    void handleRead(const BlockAccess &acc, std::size_t idx);
    void handleWrite(const BlockAccess &acc, std::size_t idx);
    void handleVictim(const CacheResult &result, Time now);

    /**
     * Submit one block access to a data disk, tagged with the wake
     * cause charged if the disk must spin up for it. @p ack_from,
     * when >= 0, overrides @p arrival as the response-time origin
     * (deferred writes are submitted at retire-completion time but
     * the client has been waiting since the original request).
     */
    void submitDisk(DiskId disk, BlockNum block, uint32_t count,
                    bool write, bool record_response, Time arrival,
                    WakeCause cause, Time ack_from = -1.0);

    /** Coalesce a block set into run-length requests and submit. */
    void flushBlocks(DiskId disk, std::vector<BlockId> blocks,
                     Time now, WakeCause cause);

    /** WBEU/WTDU: flush when a disk reaches full speed. */
    void onDiskActivated(DiskId disk, Time now);

    /**
     * WTDU: flush logged blocks home and schedule the region retire.
     * The retire itself completes only once every outstanding write
     * to the disk is durable (completeRetire) — retiring at submit
     * time would mark the log entries stale while the flush could
     * still be lost to a power failure (exactly-the-acknowledged-
     * writes durability, DESIGN.md 5j).
     */
    void flushLogged(DiskId disk, Time now);

    /** A tracked data-disk write became durable (WTDU only). */
    void writeDurable(DiskId disk, Time now);

    /** Retire the region and release the writes that waited on it. */
    void completeRetire(DiskId disk, Time now);

    /** A client write parked while its disk's region retire is in
     *  flight (appending would race the retire; a direct write could
     *  be overwritten by a stale recovery replay). */
    struct DeferredWrite
    {
        BlockNum block;
        Time arrival;
    };

    /** Per-disk two-phase retire state (WTDU only). */
    struct RetireState
    {
        bool pending = false;     //!< flush submitted, retire queued
        uint64_t outstanding = 0; //!< in-flight writes to the disk
        std::vector<DeferredWrite> deferred;
    };

    EventQueue &queue;
    Cache &cache;
    DiskArray &disks;
    StorageConfig cfg;
    PaClassifier *cls;
    Disk *logDisk;
    obs::SimObserver *observer;
    obs::Profiler *profiler;
    std::unique_ptr<WtduLog> log;

    ResponseStats respStats;
    std::vector<RetireState> retireState; //!< sized only for WTDU
    std::vector<uint64_t> perDiskAccesses;
    uint64_t logWriteCount = 0;
    uint64_t loggedEvictionCount = 0;
    uint64_t prefetchCount = 0;
    uint64_t nextVersion = 1; //!< payload versions for the WTDU log
    bool finished = false;
};

} // namespace pacache

#endif // PACACHE_CORE_STORAGE_SYSTEM_HH
