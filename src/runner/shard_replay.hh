/**
 * @file
 * Disk-sharded out-of-core replay: partition a .pct trace by disk
 * (shard = disk id mod shard count) and replay every shard on its
 * own complete simulation stack, the shards in parallel through
 * parallelFor, then merge the statistics deterministically. Each
 * shard reads its records in place from its own mapping of the
 * input, beside one validation pass over the whole file; no shard
 * sub-trace is written.
 *
 * The partition model is the sharded serving front-end's (serve/):
 * each shard owns a full-size disk-array replica so ids need no
 * remapping, the cache capacity is split across shards, and per-disk
 * statistics are read from each disk's owning shard exclusively —
 * the idle-only energy of the other shards' replicas is deliberately
 * not charged. Results therefore match a serve run over the same
 * partition, not the single-cache unsharded run.
 *
 * Determinism: the shard count fixes the partition, per-shard replay
 * is single-threaded and deterministic, results land in pre-assigned
 * slots, and the merge walks shards in index order — so the output
 * is byte-identical for any worker count (--jobs), which only
 * changes scheduling.
 */

#ifndef PACACHE_RUNNER_SHARD_REPLAY_HH
#define PACACHE_RUNNER_SHARD_REPLAY_HH

#include <string>

#include "core/experiment.hh"

namespace pacache::runner
{

/** Knobs for one sharded replay. */
struct ShardReplayOptions
{
    /**
     * Number of disk partitions (clamped to [1, numDisks]). This —
     * not the worker count — determines the statistics; keep it
     * fixed when comparing runs.
     */
    unsigned shards = 8;
    /**
     * Threads, at most one per shard plus one for the validation
     * pass; 0 = defaultWorkers().
     */
    unsigned jobs = 0;
    /** Has no effect: sharded replay writes no sub-traces. */
    std::string tempDir;
};

/**
 * Replay @p pct_path disk-sharded, all shards in parallel, and merge.
 * One validation pass (one drain of the file, which runs every
 * record's decode checks and folds the checksum) runs beside the
 * shard replays; if it fails, the shards stop early and its located
 * error is the one thrown, at any job count. A shard replays a record
 * longer than tracefmt::kUncheckedBlocks only once that pass has
 * succeeded, so a damaged length field cannot stall it. Off-line
 * policies (Belady/OPG) run out of core on windowed future knowledge
 * per shard, each over a spill of its own records, so a shard that
 * owns no record still replays (an empty stream) and idles its
 * replicas to the shared horizon. config.storage.endTimeFloor
 * is raised to the trace's end time for every shard for the same
 * reason. The observer/profiler hooks of @p config apply only to the
 * orchestration (replay/merge phases), not to the per-shard stacks.
 */
ExperimentResult
runShardedExperiment(const std::string &pct_path,
                     const ExperimentConfig &config,
                     const ShardReplayOptions &opts = {});

} // namespace pacache::runner

#endif // PACACHE_RUNNER_SHARD_REPLAY_HH
