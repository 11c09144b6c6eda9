#include "runner/shard_replay.hh"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/sim_stack.hh"
#include "obs/profiler.hh"
#include "runner/thread_pool.hh"
#include "tracefmt/pct.hh"

namespace pacache::runner
{

namespace
{

/** Records between drops of the pages behind a shard's cursor. */
constexpr uint64_t kReleaseRecords = uint64_t(1) << 16;

/** How far the validation pass has come. */
enum class Validation
{
    Running, //!< the pass has not read the whole file yet
    Summed,  //!< every record decoded and the checksum matched
    Failed,  //!< the pass threw
};

/**
 * One shard's stream, read in place from its own mapping of the
 * input: the records whose disk it owns, in file order. Every
 * record's disk field is peeked and range-checked; only owned
 * records are decoded, with PctMmapSource::next's checks against the
 * shard's previous record. A record longer than
 * tracefmt::kUncheckedBlocks waits for the validation pass
 * (@p validation) to end. The source reports the header's disk
 * count, so the shard's stack builds a full-size disk-array replica
 * and ids stay global. It ends early once the validation pass has
 * failed.
 */
class ShardSource : public tracefmt::TraceSource
{
  public:
    ShardSource(const std::string &path, unsigned shard_,
                unsigned shards_,
                const std::atomic<Validation> &validation_)
        // The validation pass checks the sum once for every shard.
        : map(path), shard(shard_),
          shards(shards_), validation(validation_)
    {
    }

    bool
    next(TraceRecord &out) override
    {
        const uint64_t records = map.header().records;
        if (validation == Validation::Failed)
            pos = records;
        while (pos < records) {
            const uint64_t r = pos++;
            if (pos - released >= kReleaseRecords) {
                // Each concurrent shard maps the whole input: without
                // the drop, every one of them keeps all of it resident.
                map.dropRange(released, pos - released);
                released = pos;
            }
            if (map.diskOf(r) % shards != shard)
                continue;
            map.record(r, out, lastTime);
            if (out.numBlocks > tracefmt::kUncheckedBlocks) {
                validation.wait(Validation::Running);
                if (validation == Validation::Failed)
                    break;
            }
            lastTime = out.time;
            return true;
        }
        return false;
    }

    void
    rewind() override
    {
        pos = 0;
        released = 0;
        lastTime = 0;
    }

    const char *formatName() const override { return "pct"; }
    uint64_t numDisksHint() const override
    {
        return map.header().numDisks;
    }

  private:
    tracefmt::PctMapping map;
    unsigned shard;
    unsigned shards;
    const std::atomic<Validation> &validation;
    uint64_t pos = 0;
    uint64_t released = 0; //!< first record not yet dropped
    Time lastTime = 0;
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
    splitCapacity(config.cacheBlocks, shards, 0); // fail before replay

    // Per-shard configuration: headless, with a common finishRun
    // horizon. Off-line shards build their futures out of core, so a
    // shard that owns no record replays an empty stream.
    ExperimentConfig shard_cfg = config;
    shard_cfg.observer = nullptr;
    shard_cfg.profiler = nullptr;
    shard_cfg.storage.endTimeFloor =
        std::max(config.storage.endTimeFloor, info.endTime);
    // The budget caps the whole run's oracle state, so concurrent
    // shards split it evenly (max() keeps a tiny budget nonzero —
    // zero would silently mean unbounded).
    if (shard_cfg.oracleMemBudget > 0)
        shard_cfg.oracleMemBudget = std::max<std::size_t>(
            shard_cfg.oracleMemBudget / shards, 1);

    // Index 0 validates the input beside the shard replays: one
    // drain of a PctMmapSource runs every record's decode checks and
    // folds the checksum. Index s + 1 replays shard s into its
    // pre-assigned slot; the job count only decides scheduling, never
    // the statistics. A shard checks only what it reads, so a corrupt
    // input always fails the validator, whose error parallelFor
    // rethrows as the lowest failing index. parallelFor claims index
    // 0 first, so a shard that waits for the validator never waits on
    // a pass that no thread runs.
    std::vector<ExperimentResult> results(shards);
    std::atomic<Validation> validation{Validation::Running};
    {
        obs::ProfileScope scope(config.profiler, "replay");
        parallelFor(
            shards + 1, opts.jobs > 0 ? opts.jobs : defaultWorkers(),
            [&](std::size_t i) {
                if (i == 0) {
                    try {
                        tracefmt::PctMmapSource src(pct_path);
                        TraceRecord rec;
                        while (src.next(rec)) {
                        }
                        validation = Validation::Summed;
                        validation.notify_all();
                    } catch (...) {
                        validation = Validation::Failed;
                        validation.notify_all();
                        throw;
                    }
                    return;
                }
                if (validation == Validation::Failed)
                    return; // its result is never merged
                const unsigned s = static_cast<unsigned>(i - 1);
                ExperimentConfig cfg = shard_cfg;
                cfg.cacheBlocks =
                    splitCapacity(config.cacheBlocks, shards, s);
                ShardSource src(pct_path, s, shards, validation);
                results[s] = runExperiment(src, cfg);
            });
    }

    obs::ProfileScope scope(config.profiler, "merge");
    return mergeByOwner(results,
                        [shards](DiskId d) { return d % shards; });
}

} // namespace pacache::runner
