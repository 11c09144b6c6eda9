#include <gtest/gtest.h>

#include <cmath>

#include "disk/disk.hh"
#include "disk/dpm.hh"

namespace pacache
{
namespace
{

/** Shared fixture: one disk, selectable DPM. */
struct DiskHarness
{
    PowerModel pm;
    ServiceModel sm;
    EventQueue eq;
    AlwaysOnDpm alwaysOn;
    PracticalDpm practical;

    DiskHarness() : pm(), sm(pm.spec()), practical(pm) {}

    std::unique_ptr<Disk>
    make(Dpm &dpm)
    {
        return std::make_unique<Disk>(0, eq, pm, sm, dpm);
    }

    void
    submitAt(Disk &d, Time when, BlockNum block = 0)
    {
        eq.schedule(when, [&d, block](Time t) {
            DiskRequest r;
            r.arrival = t;
            r.block = block;
            d.submit(std::move(r));
        });
    }
};

TEST(Disk, IdleDiskAccruesIdleEnergyUnderAlwaysOn)
{
    DiskHarness h;
    auto d = h.make(h.alwaysOn);
    h.eq.runUntil(100.0);
    d->finalize(100.0);
    const EnergyStats &s = d->energy();
    EXPECT_NEAR(s.idleEnergyPerMode[0], 10.2 * 100.0, 1e-6);
    EXPECT_NEAR(s.totalTime(), 100.0, 1e-9);
    EXPECT_EQ(s.spinUps, 0u);
    EXPECT_EQ(s.spinDowns, 0u);
}

TEST(Disk, ServicesARequestAndCountsIt)
{
    DiskHarness h;
    auto d = h.make(h.alwaysOn);
    h.submitAt(*d, 1.0, 500);
    h.eq.runAll();
    d->finalize(std::max(10.0, h.eq.now()));
    EXPECT_EQ(d->energy().requests, 1u);
    EXPECT_GT(d->energy().busyTime, 0.0);
    EXPECT_GT(d->energy().serviceEnergy, 0.0);
    EXPECT_EQ(d->responses().count(), 1u);
    // Response = service time only (disk was idle at full speed).
    EXPECT_LT(d->responses().mean(), 0.05);
}

TEST(Disk, TimeAccountingSumsToHorizon)
{
    DiskHarness h;
    auto d = h.make(h.practical);
    for (int i = 0; i < 5; ++i)
        h.submitAt(*d, 10.0 + 40.0 * i, 1000 * i);
    h.eq.runAll();
    const Time horizon = std::max(300.0, h.eq.now());
    h.eq.runUntil(horizon);
    d->finalize(horizon);
    EXPECT_NEAR(d->energy().totalTime(), horizon, 1e-6);
}

TEST(Disk, PracticalDpmDescendsWhenIdle)
{
    DiskHarness h;
    auto d = h.make(h.practical);
    // One request, then a long silence: the disk should walk all the
    // way down to standby.
    h.submitAt(*d, 1.0);
    h.eq.runAll();
    EXPECT_EQ(d->state(), Disk::State::Parked);
    EXPECT_EQ(d->currentMode(), h.pm.deepestMode());
    EXPECT_EQ(d->energy().spinDowns, h.pm.numModes() - 1);
}

TEST(Disk, SpinUpOnRequestFromStandby)
{
    DiskHarness h;
    auto d = h.make(h.practical);
    h.submitAt(*d, 1.0);
    h.submitAt(*d, 500.0); // long after standby threshold
    h.eq.runAll();
    d->finalize(std::max(600.0, h.eq.now()));
    EXPECT_EQ(d->energy().spinUps, 1u);
    EXPECT_NEAR(d->energy().spinUpEnergy, 135.0, 1e-9);
    EXPECT_NEAR(d->energy().spinUpTime, 10.9, 1e-9);
    // The second response pays the full spin-up.
    EXPECT_GT(d->responses().max(), 10.9);
}

TEST(Disk, ShortGapStaysAtFullSpeed)
{
    DiskHarness h;
    auto d = h.make(h.practical);
    h.submitAt(*d, 1.0);
    h.submitAt(*d, 2.0); // below the first threshold (~10.7 s)
    h.eq.runAll();
    d->finalize(std::max(200.0, h.eq.now()));
    // No spin-up was ever needed; the only demotions are the full
    // descent after the trace goes quiet.
    EXPECT_EQ(d->energy().spinUps, 0u);
    EXPECT_EQ(d->energy().spinDowns, h.pm.numModes() - 1);
    EXPECT_LT(d->responses().max(), 0.1);
}

TEST(Disk, MidGapArrivalSpinsUpFromIntermediateMode)
{
    DiskHarness h;
    auto d = h.make(h.practical);
    const Time thr0 = h.pm.thresholds()[0];
    const Time thr1 = h.pm.thresholds()[1];
    h.submitAt(*d, 1.0);
    // Arrive while parked in the first NAP mode.
    const Time gap_arrival = 1.0 + (thr0 + thr1) / 2;
    h.submitAt(*d, gap_arrival, 42);
    h.eq.runAll();
    d->finalize(std::max(gap_arrival + 50.0, h.eq.now()));
    EXPECT_EQ(d->energy().spinUps, 1u);
    // Spin-up energy from NAP1, well below the standby 135 J.
    EXPECT_LT(d->energy().spinUpEnergy, 135.0);
    EXPECT_GT(d->energy().spinUpEnergy, 0.0);
    // One demotion before the arrival, then a full descent once the
    // trace goes quiet: numModes transitions in total.
    EXPECT_EQ(d->energy().spinDowns, h.pm.numModes());
}

TEST(Disk, QueueDrainsFcfs)
{
    DiskHarness h;
    auto d = h.make(h.alwaysOn);
    std::vector<BlockNum> completed;
    for (int i = 0; i < 4; ++i) {
        h.eq.schedule(1.0, [&, i](Time t) {
            DiskRequest r;
            r.arrival = t;
            r.block = 100 + i;
            r.onComplete = [&completed](Time, const DiskRequest &req) {
                completed.push_back(req.block);
            };
            d->submit(std::move(r));
        });
    }
    h.eq.runAll();
    ASSERT_EQ(completed.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(completed[i], 100u + i);
}

/** Never demotes; records every idle gap the disk reports. */
struct GapRecorder : public AlwaysOnDpm
{
    std::vector<Time> closed;
    std::vector<WakeCause> causes;
    std::vector<Time> trailing;

    void
    onIdleEnd(DiskId, std::size_t, Time gap, WakeCause cause) override
    {
        closed.push_back(gap);
        causes.push_back(cause);
    }

    void onTrailingIdle(DiskId, Time gap) override
    {
        trailing.push_back(gap);
    }
};

TEST(Disk, IdleGapsRecordArrivalDistances)
{
    DiskHarness h;
    GapRecorder rec;
    auto d = h.make(rec);
    h.submitAt(*d, 10.0);
    h.eq.schedule(30.0, [&d](Time t) {
        DiskRequest r;
        r.arrival = t;
        r.cause = WakeCause::DemandWrite;
        d->submit(std::move(r));
    });
    h.eq.runAll();
    EXPECT_TRUE(rec.trailing.empty()); // still open until finalize
    d->finalize(std::max(50.0, h.eq.now()));
    // Gaps: [0,10) before the first arrival, (done1, 30), trailing.
    ASSERT_EQ(rec.closed.size(), 2u);
    EXPECT_NEAR(rec.closed[0], 10.0, 1e-9);
    EXPECT_NEAR(rec.closed[1], 20.0, 0.05); // minus service time
    EXPECT_EQ(rec.causes[0], WakeCause::DemandColdMiss);
    EXPECT_EQ(rec.causes[1], WakeCause::DemandWrite);
    ASSERT_EQ(rec.trailing.size(), 1u);
    EXPECT_GT(rec.trailing[0], 0.0);
}

TEST(Disk, MeanInterArrival)
{
    DiskHarness h;
    auto d = h.make(h.alwaysOn);
    h.submitAt(*d, 10.0);
    h.submitAt(*d, 20.0);
    h.submitAt(*d, 40.0);
    h.eq.runAll();
    EXPECT_NEAR(d->meanInterArrival(), 15.0, 1e-9);
    EXPECT_EQ(d->arrivals(), 3u);
}

TEST(Disk, EnergyConservation)
{
    // total() must equal the sum of its parts exactly.
    DiskHarness h;
    auto d = h.make(h.practical);
    for (int i = 0; i < 8; ++i)
        h.submitAt(*d, 5.0 + 30.0 * i, 777 * i);
    h.eq.runAll();
    const Time horizon = std::max(400.0, h.eq.now());
    h.eq.runUntil(horizon);
    d->finalize(horizon);

    const EnergyStats &s = d->energy();
    Energy sum = s.serviceEnergy + s.spinUpEnergy + s.spinDownEnergy;
    for (Energy e : s.idleEnergyPerMode)
        sum += e;
    EXPECT_DOUBLE_EQ(s.total(), sum);
    EXPECT_GT(s.total(), 0.0);
}

TEST(Disk, OnActivatedFiresAfterSpinUp)
{
    DiskHarness h;
    auto d = h.make(h.practical);
    int activations = 0;
    d->setOnActivated([&](Time) { ++activations; });
    h.submitAt(*d, 1.0);
    h.submitAt(*d, 500.0);
    h.eq.runAll();
    EXPECT_EQ(activations, 1);
}

TEST(Disk, FinalizeTwicePanics)
{
    DiskHarness h;
    auto d = h.make(h.alwaysOn);
    h.eq.runUntil(1.0);
    d->finalize(1.0);
    EXPECT_ANY_THROW(d->finalize(2.0));
}

TEST(Disk, SubmitAfterFinalizePanics)
{
    DiskHarness h;
    auto d = h.make(h.alwaysOn);
    h.eq.runUntil(1.0);
    d->finalize(1.0);
    DiskRequest r;
    r.arrival = 1.0;
    EXPECT_ANY_THROW(d->submit(std::move(r)));
}

TEST(Disk, ServeAtLowSpeedAvoidsSpinUp)
{
    DiskHarness h;
    DiskOptions opts;
    opts.serveAtLowSpeed = true;
    auto d = std::make_unique<Disk>(0, h.eq, h.pm, h.sm, h.practical,
                                    opts);
    const Time thr0 = h.pm.thresholds()[0];
    const Time thr1 = h.pm.thresholds()[1];
    h.submitAt(*d, 1.0);
    // Arrives while parked in NAP1 (still spinning): serviced there.
    h.submitAt(*d, 1.0 + (thr0 + thr1) / 2, 42);
    h.eq.runAll();
    d->finalize(std::max(400.0, h.eq.now()));
    EXPECT_EQ(d->energy().spinUps, 0u);
    EXPECT_EQ(d->energy().requests, 2u);
    // No multi-second spin-up in any response.
    EXPECT_LT(d->responses().max(), 1.0);
}

TEST(Disk, ServeAtLowSpeedIsSlowerAndCheaper)
{
    // Same two requests; option 1 vs option 2 at NAP1.
    auto run = [](bool low_speed) {
        DiskHarness h;
        DiskOptions opts;
        opts.serveAtLowSpeed = low_speed;
        Disk d(0, h.eq, h.pm, h.sm, h.practical, opts);
        const Time t2 = 1.0 + (h.pm.thresholds()[0] +
                               h.pm.thresholds()[1]) / 2;
        h.submitAt(d, 1.0);
        h.submitAt(d, t2, 42);
        h.eq.runAll();
        d.finalize(std::max(400.0, h.eq.now()));
        return std::pair<Energy, Time>{d.energy().total(),
                                       d.energy().busyTime};
    };
    const auto [e_low, busy_low] = run(true);
    const auto [e_full, busy_full] = run(false);
    EXPECT_GT(busy_low, busy_full); // slower media at 12k RPM
    EXPECT_LT(e_low, e_full);       // but no 27 J spin-up
}

TEST(Disk, ServeAtLowSpeedStillSpinsUpFromStandby)
{
    DiskHarness h;
    DiskOptions opts;
    opts.serveAtLowSpeed = true;
    auto d = std::make_unique<Disk>(0, h.eq, h.pm, h.sm, h.practical,
                                    opts);
    h.submitAt(*d, 1.0);
    h.submitAt(*d, 500.0); // standby (0 RPM) by then: must spin up
    h.eq.runAll();
    d->finalize(std::max(600.0, h.eq.now()));
    EXPECT_EQ(d->energy().spinUps, 1u);
    EXPECT_GT(d->responses().max(), 10.0);
}

TEST(Disk, ServeAtLowSpeedKeepsDescending)
{
    // After a low-speed service the DPM keeps demoting from the mode
    // the disk parked in.
    DiskHarness h;
    DiskOptions opts;
    opts.serveAtLowSpeed = true;
    auto d = std::make_unique<Disk>(0, h.eq, h.pm, h.sm, h.practical,
                                    opts);
    h.submitAt(*d, 1.0);
    h.submitAt(*d, 1.0 + (h.pm.thresholds()[0] +
                          h.pm.thresholds()[1]) / 2);
    h.eq.runAll();
    EXPECT_EQ(d->currentMode(), h.pm.deepestMode());
}

TEST(Disk, FixedTimeoutDpmGoesStraightToTarget)
{
    DiskHarness h;
    FixedTimeoutDpm dpm(5.0, h.pm.deepestMode());
    auto d = h.make(dpm);
    h.submitAt(*d, 1.0);
    h.eq.runAll();
    EXPECT_EQ(d->currentMode(), h.pm.deepestMode());
    EXPECT_EQ(d->energy().spinDowns, 1u); // one direct demotion
}

} // namespace
} // namespace pacache
