#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "core/sim_stack.hh"
#include "obs/energy_ledger.hh"
#include "serve/request_ring.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace pacache::serve
{

namespace
{

uint64_t
hostNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

/**
 * One stripe: a complete, independently-locked simulation stack.
 * The disk array is sized to the full disk count so ids need no
 * remapping; only the stripe's owned disks ever receive traffic, and
 * finish() reads statistics for owned disks exclusively.
 */
struct ServeServer::Shard
{
    Shard(const ServeConfig &cfg, std::size_t capacity)
        : ring(cfg.ringCapacity), stack(cfg.exp, cfg.numDisks, capacity)
    {
    }

    std::mutex mu; //!< guards everything below the ring
    RequestRing<ServeRequest> ring;
    SimStack stack;
    Time lastTime = 0;      //!< monotone clamp of request times
    uint64_t processed = 0;
    LogHistogram latency;   //!< host seconds, sampled requests only
};

ServeServer::ServeServer(const ServeConfig &config)
    : cfg(config), numShards(config.shards)
{
    PACACHE_ASSERT(numShards >= 1, "need at least one stripe");
    PACACHE_ASSERT(cfg.threads >= 1, "need at least one worker");
    PACACHE_ASSERT(cfg.numDisks >= 1, "need at least one disk");
    PACACHE_ASSERT(!policyNeedsFuture(cfg.exp.policy),
                   policyKindName(cfg.exp.policy),
                   " needs the whole future and cannot serve");
    PACACHE_ASSERT(!cfg.exp.observer && !cfg.exp.profiler,
                   "serve mode takes no observer/profiler; metrics "
                   "are shard-local (see src/obs/metrics.hh)");

    stripes.reserve(numShards);
    for (std::size_t i = 0; i < numShards; ++i) {
        stripes.push_back(std::make_unique<Shard>(
            cfg, splitCapacity(cfg.exp.cacheBlocks, numShards, i)));
    }
}

ServeServer::~ServeServer()
{
    if (started && !finished) {
        done.store(true, std::memory_order_release);
        for (auto &w : workers)
            w.join();
    }
}

void
ServeServer::start()
{
    PACACHE_ASSERT(!started, "ServeServer::start called twice");
    started = true;
    workers.reserve(cfg.threads);
    for (std::size_t t = 0; t < cfg.threads; ++t)
        workers.emplace_back([this] { workerLoop(); });
}

void
ServeServer::submit(const ServeRequest &req)
{
    PACACHE_ASSERT(started && !finished,
                   "submit outside start()..finish()");
    PACACHE_ASSERT(req.block.disk < cfg.numDisks,
                   "disk id out of range");
    Shard &shard = *stripes[shardOf(req.block.disk)];
    while (!shard.ring.tryPush(req))
        std::this_thread::yield();
}

void
ServeServer::workerLoop()
{
    for (;;) {
        bool any = false;
        for (auto &stripe : stripes)
            any = pumpShard(*stripe) || any;
        if (!any) {
            // Exactness of empty() needs quiescent producers, which
            // the shutdown contract guarantees: done is set only
            // after every producer stopped.
            if (done.load(std::memory_order_acquire) &&
                allRingsEmpty()) {
                return;
            }
            std::this_thread::yield();
        }
    }
}

bool
ServeServer::pumpShard(Shard &shard)
{
    std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
    if (!lock.owns_lock())
        return false;
    bool any = false;
    ServeRequest req;
    for (std::size_t n = 0;
         n < cfg.batch && shard.ring.tryPop(req); ++n) {
        processOne(shard, req);
        any = true;
    }
    return any;
}

void
ServeServer::processOne(Shard &shard, const ServeRequest &req)
{
    // Per-stripe simulated time must be monotone (the event queue
    // cannot run backwards). In replay mode the stripe's subsequence
    // of a monotone trace is monotone and the clamp is a no-op; the
    // open-loop generator's cross-producer interleave may need it.
    const Time t = req.time < shard.lastTime ? shard.lastTime
                                             : req.time;
    shard.lastTime = t;
    shard.stack.system().step(
        BlockAccess{t, req.block, req.write,
                    static_cast<std::size_t>(req.traceIndex)},
        static_cast<std::size_t>(req.idx));
    ++shard.processed;
    if (req.submitNs != 0)
        shard.latency.record(
            static_cast<double>(hostNowNs() - req.submitNs) * 1e-9);
}

bool
ServeServer::allRingsEmpty() const
{
    for (const auto &stripe : stripes) {
        if (!stripe->ring.empty())
            return false;
    }
    return true;
}

ServeResult
ServeServer::finish(Time end_time)
{
    PACACHE_ASSERT(started, "finish() before start()");
    PACACHE_ASSERT(!finished, "ServeServer::finish called twice");
    finished = true;
    done.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    workers.clear();
    PACACHE_ASSERT(allRingsEmpty(), "workers exited with work left");

    // Each stripe closes at the shared horizon; per-disk statistics
    // come from each disk's owning stripe.
    std::vector<ExperimentResult> parts;
    parts.reserve(numShards);
    for (auto &stripe : stripes) {
        stripe->stack.system().finish(end_time);
        parts.push_back(stripe->stack.collect());
    }
    ServeResult out;
    out.result = mergeByOwner(parts, [this](DiskId d) { return shardOf(d); });
    const ExperimentResult &r = out.result;

    out.shards.reserve(numShards);
    for (std::size_t i = 0; i < numShards; ++i) {
        ShardSummary sum;
        sum.requests = stripes[i]->processed;
        sum.hits = parts[i].cache.hits;
        std::vector<EnergyStats> owned;
        for (DiskId d = 0; d < cfg.numDisks; ++d) {
            if (shardOf(d) != i)
                continue;
            owned.push_back(r.perDisk[d]);
            sum.energy += r.perDisk[d].total();
        }
        sum.energy += parts[i].logServiceEnergy;
        sum.ledgerRelError = obs::ledgerMaxRelError(owned);
        out.shards.push_back(std::move(sum));
        out.latency.merge(stripes[i]->latency);
    }
    out.ledgerMaxRelError = obs::ledgerMaxRelError(r.perDisk);
    out.ledgerConserves =
        out.ledgerMaxRelError <= obs::kLedgerConservationTol;
    return out;
}

const WtduLog *
ServeServer::shardWtduLog(std::size_t shard) const
{
    PACACHE_ASSERT(shard < numShards, "stripe ", shard,
                   " out of range (", numShards, " stripes)");
    return stripes[shard]->stack.system().wtduLog();
}

void
ServeServer::submitTrace(const Trace &trace)
{
    ServeRequest req;
    uint64_t idx = 0;
    for (std::size_t r = 0; r < trace.size(); ++r) {
        const TraceRecord &rec = trace[r];
        for (uint32_t b = 0; b < rec.numBlocks; ++b) {
            req.time = rec.time;
            req.block = BlockId{rec.disk, rec.block + b};
            req.write = rec.write;
            req.traceIndex = r;
            req.idx = idx++;
            submit(req);
        }
    }
}

ServeResult
ServeServer::replayTrace(const Trace &trace, const ServeConfig &config)
{
    PACACHE_ASSERT(!trace.empty(), "cannot serve an empty trace");
    ServeConfig cfg = config;
    cfg.numDisks = std::max<std::size_t>(trace.numDisks(), 1);
    ServeServer server(cfg);
    server.start();
    server.submitTrace(trace);
    return server.finish(trace.endTime());
}

} // namespace pacache::serve
