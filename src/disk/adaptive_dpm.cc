#include "disk/dpm.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pacache
{

AdaptiveDpm::AdaptiveDpm(const PowerModel &model, std::size_t target_mode,
                         const Params &params)
    : powerModel(&model), targetMode(target_mode), p(params)
{
    PACACHE_ASSERT(targetMode > 0 && targetMode < model.numModes(),
                   "adaptive target must be a low-power mode");
    PACACHE_ASSERT(p.increaseFactor > 1.0 && p.decreaseFactor < 1.0 &&
                       p.decreaseFactor > 0.0,
                   "bad adaptation factors");
    PACACHE_ASSERT(p.minTimeout > 0 && p.maxTimeout >= p.minTimeout,
                   "bad timeout bounds");
    const Time be = model.breakEvenTime(targetMode);
    initialTimeout = std::clamp(be, p.minTimeout, p.maxTimeout);
}

Time &
AdaptiveDpm::slot(DiskId disk) const
{
    if (disk >= timeouts.size())
        timeouts.resize(disk + 1, initialTimeout);
    return timeouts[disk];
}

Time
AdaptiveDpm::timeoutOf(DiskId disk) const
{
    return slot(disk);
}

std::optional<Demotion>
AdaptiveDpm::nextDemotion(DiskId disk, std::size_t current_mode,
                          Time) const
{
    if (current_mode >= targetMode)
        return std::nullopt;
    return Demotion{targetMode, slot(disk)};
}

void
AdaptiveDpm::onIdleEnd(DiskId disk, std::size_t mode_at_wake,
                       Time idle_length, WakeCause)
{
    Time &timeout = slot(disk);
    const Time break_even = powerModel->breakEvenTime(targetMode);
    if (mode_at_wake >= targetMode &&
        idle_length < timeout + break_even) {
        // Bad sleep: the disk was demoted but woken before the
        // transition paid for itself. Back off.
        timeout = std::min(timeout * p.increaseFactor, p.maxTimeout);
    } else if (idle_length >= p.goodSleepMultiple * timeout) {
        // Plenty of slack: demote sooner next time.
        timeout = std::max(timeout * p.decreaseFactor, p.minTimeout);
    }
}

} // namespace pacache
