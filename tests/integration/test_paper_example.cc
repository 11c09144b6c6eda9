/**
 * @file
 * The paper's Figure-3 example, executed: a 4-entry cache, a 2-mode
 * disk with instantaneous transitions and a 10-unit spin-down
 * threshold. Belady has fewer misses than the alternative schedule,
 * yet consumes MORE disk energy — Belady is not energy-optimal.
 */

#include <gtest/gtest.h>

#include "cache/belady.hh"
#include "cache/cache.hh"
#include "disk/disk.hh"
#include "disk/dpm.hh"

namespace pacache
{
namespace
{

/** Drive a disk with accesses at the given times; finalize at @p end. */
EnergyStats
runAccessPattern(const std::vector<Time> &times, Time end)
{
    // Figure-3 power model: idle 1 W, standby 0 W, instantaneous
    // transitions; the spin-up costs 4 J (the "shaded" transition
    // area). Threshold-based DPM with a 10-unit timeout.
    const PowerModel pm = makeTwoModeModel(1.0, 0.0, 4.0, 0.0, 0.0, 0.0);
    const ServiceModel sm(pm.spec());
    EventQueue eq;
    FixedTimeoutDpm dpm(10.0, 1);
    Disk disk(0, eq, pm, sm, dpm);
    for (Time t : times) {
        eq.schedule(t, [&](Time now) {
            DiskRequest r;
            r.arrival = now;
            r.block = 1;
            disk.submit(std::move(r));
        });
    }
    eq.runAll();
    const Time horizon = std::max(end, eq.now());
    eq.runUntil(horizon);
    disk.finalize(horizon);
    return disk.energy();
}

/** Misses produced by MIN on the Figure-3 request sequence. */
std::vector<Time>
missTimes(BeladyPolicy &policy)
{
    // Requests: A B C D E B E C D at t=0..8, then A at t=16.
    const BlockNum A = 1, B = 2, C = 3, D = 4, E = 5;
    std::vector<std::pair<Time, BlockNum>> reqs{
        {0, A}, {1, B}, {2, C}, {3, D}, {4, E},
        {5, B}, {6, E}, {7, C}, {8, D}, {16, A}};

    std::vector<BlockAccess> accs;
    for (const auto &[t, n] : reqs)
        accs.push_back({t, BlockId{0, n}, false, accs.size()});

    Cache cache(4, policy);
    policy.prepareWindowed(WindowedFuture(accs));
    std::vector<Time> misses;
    for (std::size_t i = 0; i < accs.size(); ++i) {
        if (!cache.access(accs[i].block, accs[i].time, i).hit)
            misses.push_back(accs[i].time);
    }
    return misses;
}

TEST(PaperFigure3, BeladyMissSchedule)
{
    BeladyPolicy belady;
    const auto misses = missTimes(belady);
    // Cold misses at 0..4 (E evicts A, whose reuse is furthest), then
    // hits until the A miss at 16.
    EXPECT_EQ(misses,
              (std::vector<Time>{0, 1, 2, 3, 4, 16}));
}

TEST(PaperFigure3, AlternativeHasMoreMisses)
{
    // The paper's alternative keeps A cached and re-misses on B/E
    // instead: misses at 0..6, then hits (including A at 16).
    const std::vector<Time> alternative{0, 1, 2, 3, 4, 5, 6};
    BeladyPolicy belady;
    EXPECT_GT(alternative.size(), missTimes(belady).size());
}

TEST(PaperFigure3, BeladyIsNotEnergyOptimal)
{
    BeladyPolicy belady;
    const auto belady_misses = missTimes(belady);
    const std::vector<Time> alternative{0, 1, 2, 3, 4, 5, 6};

    const EnergyStats be = runAccessPattern(belady_misses, 30.0);
    const EnergyStats ae = runAccessPattern(alternative, 30.0);

    // Belady: idle 0->14 (14 J), standby, spin-up at 16 (4 J), idle
    // 16->26 (10 J), standby to the horizon ~ 28 J. Alternative:
    // idle 0->16 (16 J), standby to the horizon ~ 16 J. More misses,
    // less energy.
    EXPECT_GT(be.total(), ae.total());
    EXPECT_EQ(be.spinUps, 1u);
    EXPECT_EQ(ae.spinUps, 0u);
    EXPECT_NEAR(ae.total(), 16.0, 0.7);
    EXPECT_NEAR(be.total(), 28.0, 0.7);
}

} // namespace
} // namespace pacache
