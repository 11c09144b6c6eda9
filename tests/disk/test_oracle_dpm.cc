#include <gtest/gtest.h>

#include "disk/disk.hh"
#include "disk/oracle_dpm.hh"

namespace pacache
{
namespace
{

constexpr WakeCause kCause = WakeCause::DemandColdMiss;

TEST(OracleDpm, ShortClosedGapStaysIdle)
{
    const PowerModel pm;
    OracleDpm dpm(pm);
    EnergyStats none(pm.numModes());
    dpm.onIdleEnd(0, 0, 5.0, kCause);
    const EnergyStats r = dpm.energy(0, none);
    EXPECT_NEAR(r.total(), 10.2 * 5.0, 1e-9);
    EXPECT_EQ(r.spinUps, 0u);
}

TEST(OracleDpm, LongClosedGapUsesEnvelope)
{
    const PowerModel pm;
    OracleDpm dpm(pm);
    EnergyStats none(pm.numModes());
    const Time gap = 500.0;
    dpm.onIdleEnd(0, 0, gap, WakeCause::CapacityMiss);
    const EnergyStats r = dpm.energy(0, none);
    EXPECT_NEAR(r.total(), pm.envelope(gap), 1e-9);
    EXPECT_EQ(r.spinUps, 1u);
    EXPECT_EQ(r.spinDowns, 1u);
    // The spin-up is charged to the request that ended the gap.
    EXPECT_EQ(r.spinUpsByCause[static_cast<std::size_t>(
                  WakeCause::CapacityMiss)],
              1u);
}

TEST(OracleDpm, EveryClosedGapPricedAtEnvelope)
{
    const PowerModel pm;
    OracleDpm dpm(pm);
    EnergyStats none(pm.numModes());
    const std::vector<Time> gaps{0.5, 12.0, 17.0, 25.0, 60.0, 120.0,
                                 400.0};
    for (Time g : gaps)
        dpm.onIdleEnd(0, 0, g, kCause);
    Energy expect = 0;
    for (Time g : gaps)
        expect += pm.envelope(g);
    EXPECT_NEAR(dpm.energy(0, none).total(), expect, 1e-6);
}

TEST(OracleDpm, TrailingGapPaysNoSpinUp)
{
    const PowerModel pm;
    OracleDpm dpm(pm);
    EnergyStats none(pm.numModes());
    dpm.onIdleEnd(0, 0, 1000.0, kCause);
    dpm.onTrailingIdle(1, 1000.0);
    const EnergyStats closed = dpm.energy(0, none);
    const EnergyStats open = dpm.energy(1, none);
    EXPECT_LT(open.total(), closed.total());
    EXPECT_EQ(open.spinUps, 0u);
    // Long trailing gap: standby park + spin-down only.
    EXPECT_NEAR(open.total(), 2.5 * 1000.0 + 13.0, 1e-9);
}

TEST(OracleDpm, ServiceEnergyCarriesOver)
{
    const PowerModel pm;
    OracleDpm dpm(pm);
    EnergyStats svc(pm.numModes());
    svc.serviceEnergy = 77.0;
    svc.busyTime = 3.0;
    svc.requests = 9;
    svc.idleEnergyPerMode[0] = 1e6; // the measurement's own idle term
    dpm.onIdleEnd(0, 0, 1.0, kCause);
    const EnergyStats r = dpm.energy(0, svc);
    EXPECT_NEAR(r.total(), 77.0 + 10.2, 1e-9);
    EXPECT_EQ(r.requests, 9u);
}

TEST(OracleDpm, PricesRealDiskTimeline)
{
    // Drive one disk with Oracle DPM and another with always-on over
    // the same arrivals: the disk never demotes, so both see the same
    // service; the oracle price must not exceed the always-on energy.
    PowerModel pm;
    ServiceModel sm(pm.spec());
    EventQueue eq;
    OracleDpm oracle(pm);
    AlwaysOnDpm always;
    Disk disk(0, eq, pm, sm, oracle);
    Disk reference(1, eq, pm, sm, always);

    for (int i = 0; i < 6; ++i) {
        eq.schedule(30.0 * (i + 1), [&](Time t) {
            for (Disk *d : {&disk, &reference}) {
                DiskRequest r;
                r.arrival = t;
                r.block = 1234;
                d->submit(std::move(r));
            }
        });
    }
    eq.runAll();
    const Time horizon = std::max(400.0, eq.now());
    eq.runUntil(horizon);
    disk.finalize(horizon);
    reference.finalize(horizon);

    EXPECT_EQ(disk.state(), Disk::State::Parked);
    EXPECT_EQ(disk.currentMode(), 0u);
    EXPECT_EQ(disk.energy().spinUps, 0u);
    const EnergyStats r = oracle.energy(0, disk.energy());
    EXPECT_LT(r.total(), reference.energy().total());
    EXPECT_GT(r.total(), 0.0);
    // Same busy accounting.
    EXPECT_DOUBLE_EQ(r.busyTime, reference.energy().busyTime);
    // Six closed gaps of about 30 s and a trailing one, all priced.
    EXPECT_EQ(r.spinDowns, 7u);
    EXPECT_EQ(r.spinUps, 6u);
}

} // namespace
} // namespace pacache
