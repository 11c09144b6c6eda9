#include <gtest/gtest.h>

#include "cache/belady.hh"
#include "cache/lru.hh"
#include "core/opg.hh"
#include "core/optimal.hh"
#include "util/random.hh"

namespace pacache
{
namespace
{

std::vector<BlockAccess>
stream(std::initializer_list<std::pair<Time, BlockNum>> entries,
       DiskId disk = 0)
{
    std::vector<BlockAccess> out;
    for (const auto &[t, n] : entries)
        out.push_back({t, BlockId{disk, n}, false, out.size()});
    return out;
}

SchedulePricing
pricing(const PowerModel &pm, Time horizon)
{
    SchedulePricing p;
    p.pm = &pm;
    p.horizon = horizon;
    return p;
}

TEST(ScheduleEnergy, SingleDiskHandComputed)
{
    const PowerModel pm;
    const SchedulePricing cfg = pricing(pm, 100.0);
    // One access at t=40: closed gap envelope(40) + service, then an
    // open 60 s gap (standby park + spin-down is cheapest).
    const Energy e = scheduleEnergy({{40.0}}, cfg);
    const Energy open = 2.5 * 60.0 + 13.0;
    EXPECT_NEAR(e, pm.envelope(40.0) + cfg.serviceEnergyPerMiss + open,
                1e-9);
}

TEST(ScheduleEnergy, EmptyDiskIsOneOpenGap)
{
    const PowerModel pm;
    const Energy e = scheduleEnergy({{}}, pricing(pm, 1000.0));
    EXPECT_NEAR(e, 2.5 * 1000.0 + 13.0, 1e-9);
}

TEST(ScheduleEnergy, DisksPriceIndependently)
{
    const PowerModel pm;
    const SchedulePricing cfg = pricing(pm, 100.0);
    const Energy both = scheduleEnergy({{40.0}, {70.0}}, cfg);
    const Energy a = scheduleEnergy({{40.0}}, cfg);
    const Energy b = scheduleEnergy({{70.0}}, cfg);
    EXPECT_NEAR(both, a + b - (2.5 * 100.0 + 13.0) * 0, 1e-9);
    EXPECT_NEAR(both, a + b, 1e-9);
}

TEST(Optimal, NoEvictionsMeansColdMissesOnly)
{
    const PowerModel pm;
    const auto accs = stream({{1, 1}, {2, 2}, {3, 1}, {4, 2}});
    const auto r = optimalEnergy(accs, 4, pricing(pm, 10.0));
    EXPECT_EQ(r.misses, 2u);
    // Cold misses alone define the schedule.
    EXPECT_NEAR(r.energy,
                scheduleEnergy({{1.0, 2.0}}, pricing(pm, 10.0)), 1e-9);
}

TEST(Optimal, LowerBoundsBeladyOnFigure3Pattern)
{
    // Figure-3 style: an energy-aware schedule beats MIN.
    const auto accs = stream({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                              {5, 2}, {6, 5}, {7, 3}, {8, 4}, {16, 1}});
    const PowerModel pm;
    const SchedulePricing cfg = pricing(pm, 30.0);

    const auto opt = optimalEnergy(accs, 4, cfg);

    BeladyPolicy belady;
    belady.prepareWindowed(WindowedFuture(accs));
    const Energy belady_e = policyScheduleEnergy(accs, 4, belady, cfg);
    EXPECT_LE(opt.energy, belady_e + 1e-9);
}

TEST(Optimal, StrictlyBeatsBeladyWhenClusteringPays)
{
    // Belady keeps the block whose reuse is nearest, scattering a
    // miss into a long-idle window; the optimal schedule re-misses
    // inside the busy cluster instead. Cache of 1, disk 0 busy
    // cluster at t=0..2, one far re-reference at t=100, and another
    // block interleaved.
    const auto accs = stream(
        {{0, 1}, {1, 2}, {2, 1}, {100, 1}, {101, 2}});
    const PowerModel pm;
    const SchedulePricing cfg = pricing(pm, 200.0);

    const auto opt = optimalEnergy(accs, 1, cfg);
    BeladyPolicy belady;
    belady.prepareWindowed(WindowedFuture(accs));
    const Energy belady_e = policyScheduleEnergy(accs, 1, belady, cfg);
    EXPECT_LE(opt.energy, belady_e + 1e-9);
    EXPECT_GT(opt.statesVisited, 0u);
}

class OptimalSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OptimalSweep, LowerBoundsEveryPolicyOnRandomTinyTraces)
{
    Rng rng(GetParam());
    const PowerModel pm;
    for (int trial = 0; trial < 10; ++trial) {
        // Random tiny trace: 2 disks, 5 blocks each, ~18 accesses,
        // bursty times.
        std::vector<BlockAccess> accs;
        Time t = 0;
        const std::size_t n = 14 + rng.below(6);
        for (std::size_t i = 0; i < n; ++i) {
            t += rng.chance(0.3) ? rng.uniform(20.0, 60.0)
                                 : rng.uniform(0.1, 2.0);
            accs.push_back({t,
                            BlockId{static_cast<DiskId>(rng.below(2)),
                                    rng.below(5)},
                            false, i});
        }
        const SchedulePricing cfg = pricing(pm, t + 50.0);
        const auto opt = optimalEnergy(accs, 3, cfg);

        BeladyPolicy belady;
        belady.prepareWindowed(WindowedFuture(accs));
        LruPolicy lru;
        OpgPolicy opg(pm, DpmKind::Oracle, 0);
        opg.prepareWindowed(WindowedFuture(accs));
        const Energy be = policyScheduleEnergy(accs, 3, belady, cfg);
        const Energy le = policyScheduleEnergy(accs, 3, lru, cfg);
        const Energy oe = policyScheduleEnergy(accs, 3, opg, cfg);

        EXPECT_LE(opt.energy, be + 1e-9) << "trial " << trial;
        EXPECT_LE(opt.energy, le + 1e-9) << "trial " << trial;
        EXPECT_LE(opt.energy, oe + 1e-9) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalSweep,
                         ::testing::Values(31u, 32u, 33u, 34u));

TEST(Optimal, OpgTracksOptimalBetterThanLruOnAverage)
{
    // Aggregate check of the paper's premise: over random tiny
    // traces, OPG's energy gap to optimal is no larger than LRU's.
    Rng rng(77);
    const PowerModel pm;
    double opg_gap = 0, lru_gap = 0;
    for (int trial = 0; trial < 15; ++trial) {
        std::vector<BlockAccess> accs;
        Time t = 0;
        for (std::size_t i = 0; i < 16; ++i) {
            t += rng.chance(0.3) ? rng.uniform(20.0, 60.0)
                                 : rng.uniform(0.1, 2.0);
            accs.push_back({t, BlockId{0, rng.below(5)}, false, i});
        }
        const SchedulePricing cfg = pricing(pm, t + 50.0);
        const auto opt = optimalEnergy(accs, 3, cfg);
        OpgPolicy opg(pm, DpmKind::Oracle, 0);
        opg.prepareWindowed(WindowedFuture(accs));
        LruPolicy lru;
        opg_gap += policyScheduleEnergy(accs, 3, opg, cfg) - opt.energy;
        lru_gap += policyScheduleEnergy(accs, 3, lru, cfg) - opt.energy;
    }
    EXPECT_LE(opg_gap, lru_gap + 1e-6);
}

TEST(Optimal, RejectsBadInputs)
{
    const PowerModel pm;
    SchedulePricing cfg = pricing(pm, 0.5);
    const auto accs = stream({{1, 1}});
    EXPECT_ANY_THROW(optimalEnergy(accs, 1, cfg)); // horizon too small
    cfg.horizon = 10.0;
    EXPECT_ANY_THROW(optimalEnergy(accs, 0, cfg)); // zero capacity
}

} // namespace
} // namespace pacache
