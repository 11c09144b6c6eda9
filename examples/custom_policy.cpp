/**
 * @file
 * Extending the framework: implement a custom replacement policy
 * against the ReplacementPolicy interface, plug it into a Cache, and
 * race it against the built-ins on a full simulated storage system.
 *
 * The example policy is "LRU-2disks": a toy power-aware heuristic
 * that statically pins the blocks of the two least-busy disks (a
 * hard-coded version of what PA-LRU learns on-line).
 */

#include <iostream>
#include <memory>

#include "cache/lru.hh"
#include "core/storage_system.hh"
#include "disk/dpm.hh"
#include "trace/stats.hh"
#include "trace/workloads.hh"
#include "tracefmt/trace_source.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

/** A user-defined policy: protect a fixed set of disks. */
class PinnedDisksLru : public ReplacementPolicy
{
  public:
    explicit PinnedDisksLru(std::vector<bool> pinned)
        : pinnedDisk(std::move(pinned)) {}

    const char *name() const override { return "PinnedDisksLRU"; }

    // LruStack is keyed by block, so this policy ignores the cache
    // slot; built-in LRU and PA-LRU index their lists by it instead.
    void
    onAccess(const BlockId &block, CacheSlot, Time, std::size_t,
             bool hit) override
    {
        if (hit) {
            regular.remove(block);
            pinned.remove(block);
        }
        if (isPinned(block))
            pinned.touch(block);
        else
            regular.touch(block);
    }

    void
    onRemove(const BlockId &block, CacheSlot) override
    {
        if (!regular.remove(block))
            pinned.remove(block);
    }

    BlockId
    evict(Time, std::size_t) override
    {
        // Victims come from the unpinned stack while it has anything.
        return regular.empty() ? pinned.popLru() : regular.popLru();
    }

  private:
    bool
    isPinned(const BlockId &block) const
    {
        return block.disk < pinnedDisk.size() && pinnedDisk[block.disk];
    }

    std::vector<bool> pinnedDisk;
    LruStack regular, pinned;
};

double
runWith(const Trace &trace, ReplacementPolicy &policy, double &resp_ms)
{
    const PowerModel pm;
    const ServiceModel sm(pm.spec());
    PracticalDpm dpm(pm);
    EventQueue eq;
    Cache cache(1024, policy);
    DiskArray disks(trace.numDisks(), eq, pm, sm, dpm);
    StorageSystem system(eq, cache, disks, StorageConfig{});
    tracefmt::MemorySource source(trace);
    system.run(source);
    resp_ms = system.responses().mean() * 1000.0;
    return system.totalEnergy();
}

} // namespace

int
main()
{
    OltpParams params;
    params.duration = 1200;
    const Trace trace = makeOltpTrace(params);

    // Pick the two disks with the fewest requests to pin.
    const TraceStats stats = characterize(trace);
    std::vector<std::pair<uint64_t, DiskId>> by_load;
    for (uint32_t d = 0; d < stats.disks; ++d)
        by_load.emplace_back(stats.perDiskRequests[d], d);
    std::sort(by_load.begin(), by_load.end());
    std::vector<bool> pin(stats.disks, false);
    pin[by_load[0].second] = pin[by_load[1].second] = true;
    std::cout << "Pinning disks " << by_load[0].second << " and "
              << by_load[1].second << " (least busy).\n\n";

    TextTable t;
    t.header({"Policy", "Energy (J)", "Mean resp (ms)"});

    double resp = 0;
    LruPolicy lru;
    const double lru_energy = runWith(trace, lru, resp);
    t.row({lru.name(), fmt(lru_energy, 0), fmt(resp, 2)});

    PinnedDisksLru custom(pin);
    const double custom_energy = runWith(trace, custom, resp);
    t.row({custom.name(), fmt(custom_energy, 0), fmt(resp, 2)});

    t.print(std::cout);

    std::cout << "\nImplementing ReplacementPolicy takes name(), "
                 "onAccess(block, slot, now, idx, hit),\n"
                 "onRemove(block, slot) and evict(now, idx); the "
                 "Cache, DiskArray and StorageSystem\n"
                 "pieces compose around any policy — PA-LRU itself is "
                 "built exactly this way.\n";
    return 0;
}
