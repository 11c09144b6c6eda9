#include "core/experiment.hh"

#include <algorithm>
#include <optional>

#include "core/sim_stack.hh"
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
    return kind == PolicyKind::Belady || kind == PolicyKind::OPG ||
           kind == PolicyKind::InfiniteCache;
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

ExperimentResult
runExperiment(const Trace &trace, const ExperimentConfig &config)
{
    PACACHE_ASSERT(!trace.empty(), "cannot run an empty trace");
    // Infinite cache: capacity one past the total block volume.
    const std::size_t capacity = config.policy == PolicyKind::InfiniteCache
        ? trace.numBlockAccesses() + 16
        : config.cacheBlocks;
    SimStack stack(config, std::max<std::size_t>(trace.numDisks(), 1),
                   capacity);
    stack.run(trace);
    return stack.collect();
}

ExperimentResult
runExperiment(tracefmt::TraceSource &source,
              const ExperimentConfig &config)
{
    // Off-line future knowledge needs the whole access stream before
    // the run starts: materialize by default, or run out-of-core on
    // the windowed oracle when a window was requested.
    const bool offline = config.policy == PolicyKind::Belady ||
                         config.policy == PolicyKind::OPG;
    if (offline && config.windowAccesses == 0) {
        const Trace trace = tracefmt::readAll(source);
        return runExperiment(trace, config);
    }

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

    if (!offline) {
        SimStack stack(config, disks, capacity);
        stack.run(source);
        return stack.collect();
    }

    // The backward pass needs random access to the records: use the
    // source's own .pct file, or spill the stream to a temporary one
    // (a single sequential pass, never materialized).
    WindowedOracle oracle;
    oracle.windowEntries = config.windowAccesses;
    oracle.chunkAccesses = config.oracleChunkAccesses;
    oracle.pctPath = source.pctPath();
    std::optional<ScopedTempFile> spill;
    if (oracle.pctPath.empty()) {
        spill.emplace("pacache-spill-", ".pct");
        tracefmt::writePct(spill->path(), source);
        source.rewind();
        oracle.pctPath = spill->path();
    }
    SimStack stack(config, disks, capacity, &oracle);
    stack.run(source);
    return stack.collect();
}

} // namespace pacache
