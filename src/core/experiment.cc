#include "core/experiment.hh"

#include <algorithm>
#include <optional>

#include "core/sim_stack.hh"
#include "obs/profiler.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/trace_source.hh"
#include "util/logging.hh"
#include "util/temp_file.hh"

namespace pacache
{

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU: return "LRU";
      case PolicyKind::FIFO: return "FIFO";
      case PolicyKind::CLOCK: return "CLOCK";
      case PolicyKind::ARC: return "ARC";
      case PolicyKind::MQ: return "MQ";
      case PolicyKind::LIRS: return "LIRS";
      case PolicyKind::Belady: return "Belady";
      case PolicyKind::OPG: return "OPG";
      case PolicyKind::PALRU: return "PA-LRU";
      case PolicyKind::PAARC: return "PA-ARC";
      case PolicyKind::PALIRS: return "PA-LIRS";
      case PolicyKind::InfiniteCache: return "InfiniteCache";
    }
    PACACHE_PANIC("unknown policy kind");
}

bool
policyNeedsClassifier(PolicyKind kind)
{
    return kind == PolicyKind::PALRU || kind == PolicyKind::PAARC ||
           kind == PolicyKind::PALIRS;
}

bool
policyNeedsFuture(PolicyKind kind)
{
    return policyNeedsNextUse(kind) || kind == PolicyKind::InfiniteCache;
}

bool
policyNeedsNextUse(PolicyKind kind)
{
    return kind == PolicyKind::Belady || kind == PolicyKind::OPG;
}

std::size_t
firstEnvelopeNap(const PowerModel &pm)
{
    // First mode below full speed that appears on the lower envelope.
    const auto &env = pm.envelopeModes();
    return env.size() > 1 ? env[1] : pm.deepestMode();
}

PaParams
resolvePaParams(const ExperimentConfig &config, const PowerModel &pm)
{
    PaParams pa = config.pa;
    if (pa.intervalThreshold <= 0)
        pa.intervalThreshold = pm.breakEvenTime(firstEnvelopeNap(pm));
    return pa;
}

WindowedFuture
buildFuture(const Trace &trace, const ExperimentConfig &config)
{
    if (!policyNeedsNextUse(config.policy))
        return {};
    std::vector<BlockAccess> accesses;
    {
        obs::ProfileScope scope(config.profiler, "expand_trace");
        accesses = expandTrace(trace);
    }
    obs::ProfileScope scope(config.profiler, "oracle_precompute");
    return WindowedFuture(accesses);
}

ExperimentResult
runExperiment(const Trace &trace, const ExperimentConfig &config)
{
    PACACHE_ASSERT(!trace.empty(), "cannot run an empty trace");
    // Infinite cache: capacity one past the total block volume.
    const std::size_t capacity = config.policy == PolicyKind::InfiniteCache
        ? trace.numBlockAccesses() + 16
        : config.cacheBlocks;
    SimStack stack(config, std::max<std::size_t>(trace.numDisks(), 1),
                   capacity, buildFuture(trace, config));
    stack.run(trace);
    return stack.collect();
}

ExperimentResult
runExperiment(tracefmt::TraceSource &source,
              const ExperimentConfig &config)
{
    // Disk-array sizing: take the header hint when the format has
    // one (.pct, memory), else a constant-memory pre-scan pass. The
    // infinite cache sizes itself from a pre-scan of the block volume.
    uint64_t num_disks = source.numDisksHint();
    if (num_disks == tracefmt::TraceSource::kUnknown)
        num_disks = tracefmt::scan(source).numDisks;
    const std::size_t disks =
        std::max<std::size_t>(static_cast<std::size_t>(num_disks), 1);
    const std::size_t capacity = config.policy == PolicyKind::InfiniteCache
        ? static_cast<std::size_t>(tracefmt::scan(source).blocks) + 16
        : config.cacheBlocks;

    WindowedFuture future;
    if (policyNeedsNextUse(config.policy)) {
        // The backward pass needs random access to the records: use
        // the source's own .pct file, or spill the stream to a
        // temporary one (a single sequential pass, never
        // materialized) that the built future no longer needs.
        std::string pct = source.pctPath();
        std::optional<ScopedTempFile> spill;
        if (pct.empty()) {
            spill.emplace("pacache-spill-", ".pct");
            tracefmt::writePct(spill->path(), source);
            source.rewind();
            pct = spill->path();
        }
        obs::ProfileScope scope(config.profiler, "oracle_precompute");
        WindowedFuture::Options wopts;
        if (config.windowAccesses > 0)
            wopts.windowEntries = config.windowAccesses;
        future = WindowedFuture(pct, wopts);
    }
    SimStack stack(config, disks, capacity, std::move(future));
    stack.run(source);
    return stack.collect();
}

} // namespace pacache
