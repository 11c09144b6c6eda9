#include "core/sim_stack.hh"

#include "cache/arc.hh"
#include "cache/belady.hh"
#include "cache/clock.hh"
#include "cache/fifo.hh"
#include "cache/lirs.hh"
#include "cache/lru.hh"
#include "cache/mq.hh"
#include "core/opg.hh"
#include "core/pa_lru.hh"
#include "disk/oracle_dpm.hh"
#include "obs/observer.hh"
#include "obs/profiler.hh"
#include "tracefmt/trace_source.hh"
#include "util/logging.hh"

namespace pacache
{

namespace
{

/**
 * OPG prices idle periods with the energy function of the DPM the
 * disks actually run; the adaptive timeout policy is closest to the
 * threshold walk.
 */
DpmKind
opgPricing(const ExperimentConfig &cfg)
{
    return (cfg.dpm == DpmChoice::Practical ||
            cfg.dpm == DpmChoice::Adaptive)
        ? DpmKind::Practical
        : DpmKind::Oracle;
}

Energy
opgThetaOf(const ExperimentConfig &cfg, const PowerModel &pm)
{
    return cfg.opgTheta >= 0
        ? cfg.opgTheta
        : pm.mode(firstEnvelopeNap(pm)).transitionEnergy();
}

/** Off-line policy armed with windowed future knowledge. */
std::unique_ptr<ReplacementPolicy>
makeWindowedPolicy(const ExperimentConfig &config, const PowerModel &pm,
                   const WindowedOracle &windowed)
{
    // The backward pass over the .pct file replaces prepare()'s
    // whole-trace oracle indexing.
    obs::ProfileScope scope(config.profiler, "oracle_precompute");
    WindowedFuture::Options wopts;
    wopts.windowEntries = windowed.windowEntries;
    if (windowed.chunkAccesses > 0)
        wopts.chunkAccesses = windowed.chunkAccesses;
    WindowedFuture fut(windowed.pctPath, wopts);
    if (config.policy == PolicyKind::OPG) {
        // The whole budget goes to the policy's SpillPool, as on the
        // materialized path: the future itself keeps no per-block map.
        auto opg = std::make_unique<WindowedOpgPolicy>(
            pm, opgPricing(config), opgThetaOf(config, pm),
            config.oracleMemBudget);
        opg->prepareWindowed(std::move(fut));
        return opg;
    }
    PACACHE_ASSERT(config.policy == PolicyKind::Belady,
                   "windowed oracle supports Belady/OPG only");
    auto min = std::make_unique<WindowedBeladyPolicy>();
    min->prepareWindowed(std::move(fut));
    return min;
}

} // namespace

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const ExperimentConfig &cfg, const PowerModel &pm,
                      const PaClassifier *classifier, std::size_t capacity)
{
    const DpmKind pricing = opgPricing(cfg);
    const Energy theta = opgThetaOf(cfg, pm);

    switch (cfg.policy) {
      case PolicyKind::LRU:
      case PolicyKind::InfiniteCache:
        return std::make_unique<LruPolicy>();
      case PolicyKind::FIFO:
        return std::make_unique<FifoPolicy>();
      case PolicyKind::CLOCK:
        return std::make_unique<ClockPolicy>();
      case PolicyKind::ARC:
        return std::make_unique<ArcPolicy>(capacity);
      case PolicyKind::MQ:
        return std::make_unique<MqPolicy>();
      case PolicyKind::LIRS:
        return std::make_unique<LirsPolicy>(capacity);
      case PolicyKind::Belady:
        return std::make_unique<BeladyPolicy>();
      case PolicyKind::OPG:
        return std::make_unique<OpgPolicy>(pm, pricing, theta,
                                           cfg.oracleMemBudget);
      case PolicyKind::PALRU:
        PACACHE_ASSERT(classifier, "PA-LRU needs a classifier");
        return std::make_unique<PaLruPolicy>(*classifier);
      case PolicyKind::PAARC:
        PACACHE_ASSERT(classifier, "PA-ARC needs a classifier");
        return std::make_unique<PaDualPolicy>(
            *classifier, std::make_unique<ArcPolicy>(capacity),
            std::make_unique<ArcPolicy>(capacity), "PA-ARC");
      case PolicyKind::PALIRS:
        PACACHE_ASSERT(classifier, "PA-LIRS needs a classifier");
        return std::make_unique<PaDualPolicy>(
            *classifier, std::make_unique<LirsPolicy>(capacity),
            std::make_unique<LirsPolicy>(capacity), "PA-LIRS");
    }
    PACACHE_PANIC("unknown policy kind");
}

SimStack::SimStack(const ExperimentConfig &config, std::size_t num_disks,
                   std::size_t capacity, const WindowedOracle *windowed)
    : cfg(config), numDisks(num_disks), pm(config.spec),
      sm(config.spec, config.service), practical(pm), adaptive(pm)
{
    if (policyNeedsClassifier(cfg.policy)) {
        classifier = std::make_unique<PaClassifier>(
            numDisks, resolvePaParams(cfg, pm));
    }
    policy = windowed
        ? makeWindowedPolicy(cfg, pm, *windowed)
        : makeReplacementPolicy(cfg, pm, classifier.get(), capacity);
    cache = std::make_unique<Cache>(capacity, *policy);

    // Observability wiring. configureRun() must precede disk
    // construction (the constructor reports the initial power state).
    obs::SimObserver *observer = cfg.observer;
    const bool wtdu = cfg.storage.writePolicy ==
                      WritePolicy::WriteThroughDeferredUpdate;
    DiskOptions disk_opts = cfg.disk;
    if (observer) {
        std::vector<std::string> mode_names;
        for (std::size_t m = 0; m < pm.numModes(); ++m)
            mode_names.push_back(pm.mode(m).name);
        observer->configureRun(numDisks, wtdu, std::move(mode_names));
        disk_opts.observer = observer;
        cache->setObserver(observer);
        if (classifier) {
            classifier->setObserver(observer);
            const PaClassifier *cls = classifier.get();
            observer->setPriorityFn([cls, num_disks](DiskId d) {
                return d < num_disks && cls->isPriority(d);
            });
        }
    }

    Dpm *dpm = &alwaysOn; // also the Oracle choice: priced off-line
    if (cfg.dpm == DpmChoice::Practical)
        dpm = &practical;
    else if (cfg.dpm == DpmChoice::Adaptive)
        dpm = &adaptive;
    disks = std::make_unique<DiskArray>(numDisks, eq, pm, sm, *dpm,
                                        disk_opts);
    if (wtdu) {
        DiskOptions log_opts;
        log_opts.observer = observer;
        logDisk = std::make_unique<Disk>(static_cast<DiskId>(numDisks),
                                         eq, pm, sm, alwaysOn, log_opts);
    }
    storage = std::make_unique<StorageSystem>(
        eq, *cache, *disks, cfg.storage, classifier.get(), logDisk.get(),
        observer, cfg.profiler);

    if (observer) {
        observer->setSnapshotFn([this](obs::TimelineSnapshot &s) {
            const CacheStats &cs = cache->stats();
            s.accesses = cs.accesses;
            s.hits = cs.hits;
            s.missesPerDisk = storage->diskAccesses();
            EnergyStats agg(pm.numModes());
            for (DiskId d = 0; d < numDisks; ++d)
                agg += disks->disk(d).energy();
            s.idleEnergyPerMode = agg.idleEnergyPerMode;
            s.serviceEnergy = agg.serviceEnergy;
            s.spinUpEnergy = agg.spinUpEnergy;
            s.spinDownEnergy = agg.spinDownEnergy;
            s.spinUps = agg.spinUps;
            s.spinDowns = agg.spinDowns;
            const ResponseStats &rs = storage->responses();
            s.responseCount = rs.count();
            s.responseSum = rs.sum();
            if (classifier) {
                for (DiskId d = 0; d < numDisks; ++d) {
                    if (classifier->isPriority(d))
                        s.prioritySet.push_back(d);
                }
            }
        });
    }
}

SimStack::~SimStack() = default;

void
SimStack::run(const Trace &trace)
{
    // Off-line policies (Belady/OPG) index the whole future here; the
    // expanded stream must outlive the replay (OPG reads it back).
    std::vector<BlockAccess> accesses;
    if (!policy->streamReady()) {
        {
            obs::ProfileScope scope(cfg.profiler, "expand_trace");
            accesses = expandTrace(trace);
        }
        obs::ProfileScope scope(cfg.profiler, "oracle_precompute");
        policy->prepare(accesses);
    }
    tracefmt::MemorySource source(trace);
    run(source);
}

void
SimStack::run(tracefmt::TraceSource &source)
{
    storage->run(source);
}

ExperimentResult
SimStack::collect() const
{
    ExperimentResult result;
    result.policyName = policyKindName(cfg.policy);
    result.cache = cache->stats();
    result.numModes = pm.numModes();
    result.responses = storage->responses();
    result.diskAccesses = storage->diskAccesses();
    result.logWrites = storage->logWrites();
    result.prefetchedBlocks = storage->prefetchedBlocks();

    result.energy = EnergyStats(pm.numModes());
    result.perDisk.reserve(numDisks);
    const bool oracle_dpm = cfg.dpm == DpmChoice::Oracle;
    const OracleAnalyzer oracle(pm);
    {
        obs::ProfileScope pricing_scope(
            oracle_dpm ? cfg.profiler : nullptr, "oracle_pricing");
        for (DiskId d = 0; d < numDisks; ++d) {
            const Disk &disk = disks->disk(d);
            EnergyStats stats =
                oracle_dpm ? oracle.priceDisk(disk).stats : disk.energy();
            result.energy += stats;
            result.perDisk.push_back(std::move(stats));
            result.diskMeanInterArrival.push_back(
                disk.meanInterArrival());
        }
    }
    if (logDisk)
        result.logServiceEnergy = logDisk->energy().serviceEnergy;
    result.totalEnergy = result.energy.total() + result.logServiceEnergy;

    // Final summary gauges: the registry snapshot then reports the
    // exact values the CLI report prints.
    if (obs::MetricRegistry *reg =
            cfg.observer ? cfg.observer->metrics() : nullptr) {
        reg->gauge("energy.total_joules").set(result.totalEnergy);
        reg->gauge("energy.service_joules")
            .set(result.energy.serviceEnergy);
        reg->gauge("energy.spinup_joules").set(result.energy.spinUpEnergy);
        reg->gauge("energy.spindown_joules")
            .set(result.energy.spinDownEnergy);
        Energy idle = 0;
        for (const Energy e : result.energy.idleEnergyPerMode)
            idle += e;
        reg->gauge("energy.idle_joules").set(idle);
        reg->gauge("cache.hit_ratio").set(result.cache.hitRatio());
        reg->gauge("responses.mean_ms")
            .set(result.responses.mean() * 1e3);
        reg->gauge("responses.p95_ms")
            .set(result.responses.percentile(0.95) * 1e3);
        reg->gauge("responses.max_s").set(result.responses.max());
        for (DiskId d = 0; d < numDisks; ++d) {
            reg->gauge("disk." + std::to_string(d) + ".energy_joules")
                .set(result.perDisk[d].total());
        }
        if (logDisk) {
            reg->gauge("log_device.service_joules")
                .set(result.logServiceEnergy);
        }
    }
    return result;
}

std::size_t
splitCapacity(std::size_t total, std::size_t parts, std::size_t part)
{
    PACACHE_ASSERT(parts >= 1 && total >= parts, "cache of ", total,
                   " blocks cannot be split across ", parts,
                   " partitions");
    return total / parts + (part < total % parts ? 1 : 0);
}

ExperimentResult
mergeByOwner(const std::vector<ExperimentResult> &parts,
             const std::function<std::size_t(DiskId)> &owner_of)
{
    PACACHE_ASSERT(!parts.empty(), "nothing to merge");
    ExperimentResult out;
    out.policyName = parts[0].policyName;
    out.numModes = parts[0].numModes;
    out.energy = EnergyStats(out.numModes);
    const std::size_t num_disks = parts[0].perDisk.size();
    out.perDisk.reserve(num_disks);
    for (DiskId d = 0; d < num_disks; ++d) {
        const ExperimentResult &owner = parts[owner_of(d)];
        PACACHE_ASSERT(d < owner.perDisk.size(),
                       "partition result missing disk ", d);
        out.energy += owner.perDisk[d];
        out.perDisk.push_back(owner.perDisk[d]);
        out.diskAccesses.push_back(owner.diskAccesses[d]);
        out.diskMeanInterArrival.push_back(
            owner.diskMeanInterArrival[d]);
    }
    for (const ExperimentResult &r : parts) {
        out.cache.accesses += r.cache.accesses;
        out.cache.hits += r.cache.hits;
        out.cache.misses += r.cache.misses;
        out.cache.evictions += r.cache.evictions;
        out.cache.coldMisses += r.cache.coldMisses;
        out.cache.prefetchInserts += r.cache.prefetchInserts;
        out.responses.merge(r.responses);
        out.logWrites += r.logWrites;
        out.prefetchedBlocks += r.prefetchedBlocks;
        out.logServiceEnergy += r.logServiceEnergy;
    }
    out.totalEnergy = out.energy.total() + out.logServiceEnergy;
    return out;
}

} // namespace pacache
