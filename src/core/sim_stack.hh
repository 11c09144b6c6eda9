/**
 * @file
 * SimStack — the one owner of a complete simulation stack (power and
 * service models, PA classifier, replacement policy, cache, event
 * queue, DPM, disk array, WTDU log device, StorageSystem), built from
 * an ExperimentConfig the same way for single runs, sharded replay,
 * serve stripes and crash-torture runs. The config's fault injector,
 * observer and profiler are wired in when set.
 */

#ifndef PACACHE_CORE_SIM_STACK_HH
#define PACACHE_CORE_SIM_STACK_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "disk/dpm.hh"
#include "disk/oracle_dpm.hh"
#include "sim/event_queue.hh"

namespace pacache
{

class SimStack
{
  public:
    /**
     * @p future arms an off-line policy (Belady, OPG) and must then be
     * built, in memory or out of core; on-line policies ignore it.
     */
    SimStack(const ExperimentConfig &config, std::size_t num_disks,
             std::size_t capacity, WindowedFuture future = {});
    ~SimStack();

    SimStack(const SimStack &) = delete;
    SimStack &operator=(const SimStack &) = delete;

    /** Replay @p trace. */
    void run(const Trace &trace);

    /** Stream @p source through the storage system. */
    void run(tracefmt::TraceSource &source);

    /** The kernel, for callers that drive step()/finish() directly. */
    StorageSystem &system() { return *storage; }

    /**
     * Statistics of a finished run over every disk of the array; also
     * sets the observer's final summary gauges.
     */
    ExperimentResult collect() const;

  private:
    /** Disk @p d's energy so far under the configured DPM. */
    EnergyStats diskEnergy(DiskId d) const;

    ExperimentConfig cfg;
    std::size_t numDisks;
    PowerModel pm;
    ServiceModel sm;
    std::unique_ptr<PaClassifier> classifier;
    std::unique_ptr<ReplacementPolicy> policy;
    std::unique_ptr<Cache> cache;
    EventQueue eq;
    AlwaysOnDpm alwaysOn;
    PracticalDpm practical;
    AdaptiveDpm adaptive;
    OracleDpm oracle;
    std::unique_ptr<DiskArray> disks;
    std::unique_ptr<Disk> logDisk;
    std::unique_ptr<StorageSystem> storage;
};

/**
 * Cache share of partition @p part when @p total blocks are split
 * across @p parts partitions: total / parts, with the remainder going
 * to the first partitions. Panics if a partition would get nothing.
 */
std::size_t splitCapacity(std::size_t total, std::size_t parts,
                          std::size_t part);

/**
 * Merge the results of disk-partitioned stacks, each of which built a
 * full-size disk array but served only the disks it owns. Per-disk
 * statistics come from the owning part (@p owner_of); the other
 * parts' idle-only replicas are deliberately not charged. Cache,
 * response and log statistics sum across parts in index order, so
 * the merge is deterministic.
 */
ExperimentResult
mergeByOwner(const std::vector<ExperimentResult> &parts,
             const std::function<std::size_t(DiskId)> &owner_of);

} // namespace pacache

#endif // PACACHE_CORE_SIM_STACK_HH
