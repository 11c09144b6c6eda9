/**
 * @file
 * Disk-sharded out-of-core replay: partition a .pct trace by disk
 * (shard = disk id mod shard count) in one streaming demux pass,
 * replay every shard's sub-trace on its own complete simulation
 * stack, the shards in parallel through parallelFor, and merge the
 * statistics deterministically.
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
    /** Replay threads, at most one per shard; 0 = defaultWorkers(). */
    unsigned jobs = 0;
    /** Directory for the per-shard sub-traces; "" = $TMPDIR or /tmp. */
    std::string tempDir;
};

/**
 * Demux @p pct_path by disk, replay all shards in parallel, and
 * merge. Off-line policies (Belady/OPG) run out-of-core on windowed
 * future knowledge per shard — config.windowAccesses == 0 gets a
 * default window rather than materializing, so an empty shard (one
 * whose disks received no requests) still replays and idles its
 * replicas to the shared horizon. config.storage.endTimeFloor is
 * raised to the trace's end time for every shard for the same
 * reason. The observer/profiler hooks of @p config apply only to
 * the orchestration (demux/replay/merge phases), not to the
 * per-shard stacks.
 */
ExperimentResult
runShardedExperiment(const std::string &pct_path,
                     const ExperimentConfig &config,
                     const ShardReplayOptions &opts = {});

} // namespace pacache::runner

#endif // PACACHE_RUNNER_SHARD_REPLAY_HH
