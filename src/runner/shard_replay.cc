#include "runner/shard_replay.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/sim_stack.hh"
#include "obs/profiler.hh"
#include "runner/thread_pool.hh"
#include "tracefmt/pct.hh"
#include "util/logging.hh"
#include "util/temp_file.hh"

namespace pacache::runner
{

namespace
{

/**
 * A shard's sub-trace reports the global disk count so its stack
 * builds a full-size disk-array replica (ids stay global; only owned
 * disks ever see traffic).
 */
class FullArraySource : public tracefmt::PctMmapSource
{
  public:
    FullArraySource(const std::string &path, uint64_t disks)
        : PctMmapSource(path, shardReadOptions()), allDisks(disks)
    {
    }

    uint64_t numDisksHint() const override { return allDisks; }

  private:
    /**
     * Shard sub-traces were demuxed moments ago, are hot in the page
     * cache, and are per-shard fractions of the input that get
     * unlinked on scope exit. DONTNEED-behind would pay one madvise
     * syscall per hint batch per concurrent shard to return pages the
     * kernel is about to drop with the files anyway, so it is
     * disabled here; the WILLNEED prefetch (cheap, keeps the replay
     * loop ahead of any cold pages) stays on.
     */
    static tracefmt::PctReadOptions
    shardReadOptions()
    {
        tracefmt::PctReadOptions opts;
        opts.releaseBehind = false;
        return opts;
    }

    uint64_t allDisks;
};

} // namespace

ExperimentResult
runShardedExperiment(const std::string &pct_path,
                     const ExperimentConfig &config,
                     const ShardReplayOptions &opts)
{
    const tracefmt::PctInfo info = tracefmt::readPctInfo(pct_path);
    const std::size_t num_disks =
        std::max<std::size_t>(info.numDisks, 1);
    const unsigned shards = static_cast<unsigned>(std::clamp<uint64_t>(
        opts.shards, 1, static_cast<uint64_t>(num_disks)));
    splitCapacity(config.cacheBlocks, shards, 0); // fail before demux

    // Per-shard configuration: headless, a common finishRun horizon,
    // and out-of-core oracles even for shards whose sub-trace is
    // empty (materialization would reject an empty trace).
    ExperimentConfig shard_cfg = config;
    shard_cfg.observer = nullptr;
    shard_cfg.profiler = nullptr;
    shard_cfg.storage.endTimeFloor =
        std::max(config.storage.endTimeFloor, info.endTime);
    const bool offline = config.policy == PolicyKind::Belady ||
                         config.policy == PolicyKind::OPG;
    if (offline && shard_cfg.windowAccesses == 0)
        shard_cfg.windowAccesses = std::size_t(1) << 20;
    // The budget caps the whole run's oracle state, so concurrent
    // shards split it evenly (max() keeps a tiny budget nonzero —
    // zero would silently mean unbounded).
    if (shard_cfg.oracleMemBudget > 0)
        shard_cfg.oracleMemBudget = std::max<std::size_t>(
            shard_cfg.oracleMemBudget / shards, 1);

    // One streaming pass demultiplexes the trace into per-shard
    // sub-traces; global order is preserved within each shard, so
    // per-shard times stay monotone.
    std::vector<std::unique_ptr<ScopedTempFile>> files;
    {
        obs::ProfileScope scope(config.profiler, "shard_demux");
        std::vector<std::unique_ptr<tracefmt::PctWriter>> writers;
        writers.reserve(shards);
        for (unsigned s = 0; s < shards; ++s) {
            files.push_back(std::make_unique<ScopedTempFile>(
                "pacache-shard-" + std::to_string(s) + "-", ".pct",
                opts.tempDir));
            writers.push_back(std::make_unique<tracefmt::PctWriter>(
                files[s]->path()));
        }
        tracefmt::PctMmapSource src(pct_path);
        TraceRecord rec;
        uint64_t r = 0;
        while (src.next(rec)) {
            tracefmt::ensurePackable(rec, pct_path, r);
            writers[rec.disk % shards]->append(rec);
            ++r;
        }
        for (auto &w : writers)
            w->finish();
    }

    // Replay every shard into its pre-assigned slot; the job count
    // only decides scheduling, never the statistics.
    std::vector<ExperimentResult> results(shards);
    {
        obs::ProfileScope scope(config.profiler, "replay");
        parallelFor(shards, opts.jobs > 0 ? opts.jobs : defaultWorkers(),
                    [&](std::size_t s) {
                        ExperimentConfig cfg = shard_cfg;
                        cfg.cacheBlocks =
                            splitCapacity(config.cacheBlocks, shards, s);
                        FullArraySource src(files[s]->path(), num_disks);
                        results[s] = runExperiment(src, cfg);
                    });
    }

    obs::ProfileScope scope(config.profiler, "merge");
    return mergeByOwner(results,
                        [shards](DiskId d) { return d % shards; });
}

} // namespace pacache::runner
