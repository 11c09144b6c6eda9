#include "disk/disk.hh"

#include <algorithm>

#include "obs/observer.hh"
#include "util/logging.hh"

namespace pacache
{

Disk::Disk(DiskId id, EventQueue &eq, const PowerModel &pm_,
           const ServiceModel &sm_, Dpm &dpm_, const DiskOptions &opts)
    : diskId(id), queue(eq), pm(&pm_), sm(&sm_), dpm(&dpm_),
      options(opts), stats(pm_.numModes()), obs(opts.observer)
{
    parkStart = eq.now();
    idleStart = eq.now();
    idleOpen = true;
    observeParked(eq.now());
    armDemotionTimer(eq.now());
}

void
Disk::observeState(const char *label, Time now)
{
    if (obs)
        obs->diskPowerState(diskId, label, now);
}

void
Disk::observeParked(Time now)
{
    if (obs)
        obs->diskPowerState(diskId, pm->mode(curMode).name, now);
}

void
Disk::accrueParked(Time now)
{
    if (curState != State::Parked)
        return;
    const Time dt = now - parkStart;
    PACACHE_ASSERT(dt >= -1e-12, "negative parked stretch");
    stats.timePerMode[curMode] += dt;
    stats.idleEnergyPerMode[curMode] += pm->mode(curMode).idlePower * dt;
    parkStart = now;
}

void
Disk::submit(DiskRequest req)
{
    PACACHE_ASSERT(!finalized, "submit after finalize");
    const Time now = queue.now();

    ++numArrivals;
    if (numArrivals == 1)
        firstArrival = now;
    lastArrival = now;

    if (idleOpen) {
        idleOpen = false;
        dpm->onIdleEnd(diskId, curMode, now - idleStart, req.cause);
    }

    pending.push_back(std::move(req));

    switch (curState) {
      case State::Parked:
        if (canServiceInMode(curMode))
            startService(now);
        else
            beginSpinUp(now);
        break;
      case State::SpinningDown:
        wantSpinUp = true;
        break;
      case State::Busy:
      case State::SpinningUp:
        break; // the active chain will drain the queue
    }
}

bool
Disk::canServiceInMode(std::size_t mode) const
{
    if (mode == 0)
        return true;
    return options.serveAtLowSpeed && pm->mode(mode).rpm > 0;
}

void
Disk::startService(Time now)
{
    PACACHE_ASSERT(!pending.empty(), "startService with empty queue");
    PACACHE_ASSERT(canServiceInMode(curMode),
                   "service requires a spinning mode");

    queue.cancel(demotionTimer);
    accrueParked(now);
    curState = State::Busy;
    observeState("busy", now);

    const DiskRequest &req = pending.front();
    const double speed = pm->mode(curMode).rpm / pm->spec().maxRpm;
    const Time seek = sm->seekTime(headPosition, req.block);
    const Time total = sm->serviceTimeAtSpeed(headPosition, req.block,
                                              req.numBlocks, speed);
    const Energy energy =
        sm->serviceEnergyAtSpeed(seek, total - seek, speed);
    headPosition = req.block + req.numBlocks - 1;

    queue.schedule(now + total, [this, total, energy](Time t) {
        stats.busyTime += total;
        stats.serviceEnergy += energy;
        onServiceDone(t);
    });
}

void
Disk::onServiceDone(Time now)
{
    ++stats.requests;
    DiskRequest done = std::move(pending.front());
    pending.pop_front();
    respStats.record(now - done.arrival);
    if (done.onComplete)
        done.onComplete(now, done);

    // The completion callback may have submitted more work; the queue
    // state decides what happens next.
    if (curState != State::Busy)
        return;
    if (!pending.empty()) {
        curState = State::Parked;
        parkStart = now;
        startService(now);
    } else {
        enterIdle(now);
    }
}

void
Disk::enterIdle(Time now)
{
    // The disk parks in whatever mode it serviced at (mode 0 unless
    // serve-at-low-speed is enabled).
    curState = State::Parked;
    parkStart = now;
    idleStart = now;
    idleOpen = true;
    observeParked(now);
    armDemotionTimer(now);
}

void
Disk::armDemotionTimer(Time now)
{
    const auto d = dpm->nextDemotion(diskId, curMode, now - idleStart);
    if (!d)
        return;
    PACACHE_ASSERT(d->targetMode > curMode && d->targetMode < pm->numModes(),
                   "DPM requested a non-deeper mode");
    const Time when = std::max(now, idleStart + d->atIdleAge);
    const std::size_t target = d->targetMode;
    demotionTimer = queue.schedule(when, [this, target](Time t) {
        onDemotionTimer(t, target);
    });
}

void
Disk::onDemotionTimer(Time now, std::size_t target_mode)
{
    if (curState != State::Parked)
        return; // stale timer (should have been cancelled)

    accrueParked(now);
    curState = State::SpinningDown;
    if (obs) {
        obs->diskSpinDownStart(diskId, pm->mode(target_mode).name, now);
        obs->diskPowerState(diskId, "spin-down", now);
    }

    const Time dt = pm->mode(target_mode).spinDownTime -
                    pm->mode(curMode).spinDownTime;
    const Energy de = pm->mode(target_mode).spinDownEnergy -
                      pm->mode(curMode).spinDownEnergy;
    PACACHE_ASSERT(dt >= 0 && de >= 0, "demotion must deepen the mode");

    queue.schedule(now + dt, [this, target_mode, dt, de](Time t) {
        stats.spinDownTime += dt;
        stats.spinDownEnergy += de;
        ++stats.spinDowns;
        onSpinDownDone(t, target_mode);
    });
}

void
Disk::onSpinDownDone(Time now, std::size_t target_mode)
{
    curMode = target_mode;
    if (wantSpinUp || !pending.empty()) {
        curState = State::Parked; // instantaneously parked at target
        parkStart = now;
        wantSpinUp = false;
        if (canServiceInMode(curMode))
            startService(now);
        else
            beginSpinUp(now);
    } else {
        curState = State::Parked;
        parkStart = now;
        observeParked(now);
        armDemotionTimer(now);
    }
}

void
Disk::beginSpinUp(Time now)
{
    PACACHE_ASSERT(curState == State::Parked && curMode > 0,
                   "spin-up only from a low-power parked mode");
    queue.cancel(demotionTimer);
    accrueParked(now);
    curState = State::SpinningUp;
    wantSpinUp = false;
    if (obs) {
        obs->diskSpinUpStart(diskId, pm->mode(curMode).name, now);
        obs->diskPowerState(diskId, "spin-up", now);
    }

    // The request at the head of the queue is what forced this
    // transition; its cause owns the spin-up in the ledger.
    PACACHE_ASSERT(!pending.empty(), "spin-up with no pending cause");
    const WakeCause cause = pending.front().cause;

    const Time dt = pm->mode(curMode).spinUpTime;
    const Energy de = pm->mode(curMode).spinUpEnergy;
    queue.schedule(now + dt, [this, dt, de, cause](Time t) {
        stats.spinUpTime += dt;
        stats.spinUpEnergy += de;
        ++stats.spinUps;
        stats.attributeSpinUp(cause, de);
        onSpinUpDone(t);
    });
}

void
Disk::onSpinUpDone(Time now)
{
    curMode = 0;
    curState = State::Parked;
    parkStart = now;
    observeParked(now);

    if (onActivated)
        onActivated(now); // may submit flush writes re-entrantly

    if (curState == State::Parked && !pending.empty())
        startService(now);
    else if (curState == State::Parked)
        enterIdle(now);
}

void
Disk::finalize(Time end)
{
    PACACHE_ASSERT(!finalized, "finalize called twice");
    PACACHE_ASSERT(curState == State::Parked,
                   "finalize with disk ", diskId, " still active; drain the "
                   "event queue first");
    PACACHE_ASSERT(end >= queue.now() - 1e-12, "finalize into the past");
    accrueParked(end);
    queue.cancel(demotionTimer);
    if (idleOpen) {
        idleOpen = false;
        dpm->onTrailingIdle(diskId, end - idleStart);
    }
    finalized = true;
}

double
Disk::meanInterArrival() const
{
    if (numArrivals < 2)
        return 0.0;
    return (lastArrival - firstArrival) /
           static_cast<double>(numArrivals - 1);
}

} // namespace pacache
