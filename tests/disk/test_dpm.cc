#include <gtest/gtest.h>

#include "disk/disk.hh"
#include "disk/dpm.hh"

namespace pacache
{
namespace
{

/** Adaptive DPM learns from gap lengths only, never from the cause. */
constexpr WakeCause kWake = WakeCause::DemandColdMiss;

TEST(AlwaysOn, NeverDemotes)
{
    AlwaysOnDpm dpm;
    EXPECT_FALSE(dpm.nextDemotion(0, 0, 0.0).has_value());
    EXPECT_FALSE(dpm.nextDemotion(0, 0, 1e9).has_value());
}

TEST(Practical, WalksEnvelopeSteps)
{
    const PowerModel pm;
    PracticalDpm dpm(pm);
    const auto &env = pm.envelopeModes();
    const auto &thr = pm.thresholds();

    std::size_t mode = 0;
    for (std::size_t k = 0; k + 1 < env.size(); ++k) {
        const auto d = dpm.nextDemotion(0, mode, 0.0);
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(d->targetMode, env[k + 1]);
        EXPECT_DOUBLE_EQ(d->atIdleAge, thr[k]);
        mode = d->targetMode;
    }
    EXPECT_FALSE(dpm.nextDemotion(0, mode, 0.0).has_value());
}

TEST(Practical, DemotionTargetsDeepen)
{
    const PowerModel pm;
    PracticalDpm dpm(pm);
    std::size_t mode = 0;
    Time last = -1;
    while (auto d = dpm.nextDemotion(0, mode, 0.0)) {
        EXPECT_GT(d->targetMode, mode);
        EXPECT_GT(d->atIdleAge, last);
        last = d->atIdleAge;
        mode = d->targetMode;
    }
    EXPECT_EQ(mode, pm.deepestMode());
}

TEST(Practical, OffEnvelopeModeResolves)
{
    // A mode not on the envelope (possible when another policy parked
    // the disk) must still resolve to a deeper envelope step.
    const PowerModel pm = makeTwoModeModel(10.0, 1.0, 90.0, 5.0, 0, 0);
    PracticalDpm dpm(pm);
    const auto d = dpm.nextDemotion(0, 0, 0.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->targetMode, 1u);
}

TEST(FixedTimeout, DemotesOnceAtTimeout)
{
    FixedTimeoutDpm dpm(30.0, 5);
    const auto d = dpm.nextDemotion(0, 0, 0.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->targetMode, 5u);
    EXPECT_DOUBLE_EQ(d->atIdleAge, 30.0);
    EXPECT_FALSE(dpm.nextDemotion(0, 5, 100.0).has_value());
}

TEST(FixedTimeout, NoDemotionBelowTarget)
{
    FixedTimeoutDpm dpm(30.0, 3);
    EXPECT_FALSE(dpm.nextDemotion(0, 4, 0.0).has_value());
}

TEST(Adaptive, StartsAtBreakEven)
{
    const PowerModel pm;
    AdaptiveDpm dpm(pm);
    EXPECT_NEAR(dpm.timeoutOf(0), pm.breakEvenTime(pm.deepestMode()),
                1e-9);
    const auto d = dpm.nextDemotion(0, 0, 0.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->targetMode, pm.deepestMode());
}

TEST(Adaptive, BadSleepBacksOff)
{
    const PowerModel pm;
    AdaptiveDpm dpm(pm);
    const Time before = dpm.timeoutOf(0);
    // Woken from standby shortly after demotion: a bad sleep.
    dpm.onIdleEnd(0, pm.deepestMode(), before + 1.0, kWake);
    EXPECT_NEAR(dpm.timeoutOf(0), before * 2.0, 1e-9);
}

TEST(Adaptive, GoodSleepLeansIn)
{
    const PowerModel pm;
    AdaptiveDpm dpm(pm);
    const Time before = dpm.timeoutOf(0);
    dpm.onIdleEnd(0, pm.deepestMode(), before * 10.0, kWake);
    EXPECT_NEAR(dpm.timeoutOf(0), before * 0.9, 1e-9);
}

TEST(Adaptive, TimeoutIsClamped)
{
    const PowerModel pm;
    AdaptiveDpm::Params p;
    p.maxTimeout = 40.0;
    p.minTimeout = 5.0;
    AdaptiveDpm dpm(pm, pm.deepestMode(), p);
    for (int i = 0; i < 10; ++i)
        dpm.onIdleEnd(0, pm.deepestMode(), 0.1, kWake);
    EXPECT_DOUBLE_EQ(dpm.timeoutOf(0), 40.0);
    for (int i = 0; i < 100; ++i)
        dpm.onIdleEnd(0, pm.deepestMode(), 1e6, kWake);
    EXPECT_DOUBLE_EQ(dpm.timeoutOf(0), 5.0);
}

TEST(Adaptive, DisksAdaptIndependently)
{
    const PowerModel pm;
    AdaptiveDpm dpm(pm);
    const Time init = dpm.timeoutOf(0);
    dpm.onIdleEnd(3, pm.deepestMode(), init + 1.0, kWake); // disk 3 bad sleep
    EXPECT_GT(dpm.timeoutOf(3), init);
    EXPECT_NEAR(dpm.timeoutOf(0), init, 1e-9);
    EXPECT_NEAR(dpm.timeoutOf(7), init, 1e-9); // lazily initialized
}

TEST(Adaptive, WakeBeforeDemotionDoesNotBackOff)
{
    const PowerModel pm;
    AdaptiveDpm dpm(pm);
    const Time before = dpm.timeoutOf(0);
    // The disk never reached the target mode: not a bad sleep.
    dpm.onIdleEnd(0, 0, 1.0, kWake);
    EXPECT_NEAR(dpm.timeoutOf(0), before, 1e-9);
}

TEST(Adaptive, DrivesDiskEndToEnd)
{
    // Alternating workload: clusters 5 s apart inside, 200 s gaps
    // between — the adaptive policy should sleep in the long gaps.
    const PowerModel pm;
    const ServiceModel sm(pm.spec());
    EventQueue eq;
    AdaptiveDpm dpm(pm);
    Disk disk(0, eq, pm, sm, dpm);
    for (int cluster = 0; cluster < 5; ++cluster) {
        for (int j = 0; j < 3; ++j) {
            eq.schedule(10.0 + 200.0 * cluster + 5.0 * j, [&](Time t) {
                DiskRequest r;
                r.arrival = t;
                disk.submit(std::move(r));
            });
        }
    }
    eq.runAll();
    const Time horizon = std::max(1100.0, eq.now());
    eq.runUntil(horizon);
    disk.finalize(horizon);
    EXPECT_GT(disk.energy().spinUps, 0u);
    // Cheaper than staying at full speed the whole time.
    EXPECT_LT(disk.energy().total(), 10.2 * horizon);
}

} // namespace
} // namespace pacache
