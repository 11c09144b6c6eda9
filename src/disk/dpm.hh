/**
 * @file
 * Disk power management (DPM) policy interface.
 *
 * A DPM policy decides, while a disk idles, when to demote it to a
 * deeper power mode. The disk state machine asks the policy for the
 * *next* demotion each time the disk finishes parking in a mode; the
 * policy answers with a target mode and the idle age (time since the
 * idle period began) at which the demotion should start.
 *
 * The disk reports every idle period back as it closes, and the one
 * still open when the run ends at finalize. Oracle DPM
 * (oracle_dpm.hh) never demotes and prices each period from these
 * reports alone.
 */

#ifndef PACACHE_DISK_DPM_HH
#define PACACHE_DISK_DPM_HH

#include <memory>
#include <optional>
#include <vector>

#include "disk/power_model.hh"
#include "sim/types.hh"
#include "stats/energy_stats.hh"

namespace pacache
{

/** A planned demotion: go to @c targetMode once idle for @c atIdleAge. */
struct Demotion
{
    std::size_t targetMode;
    Time atIdleAge;
};

/** Interface for demotion policies. */
class Dpm
{
  public:
    virtual ~Dpm() = default;

    /**
     * @param disk          the asking disk (adaptive policies keep
     *                      per-disk state)
     * @param current_mode  mode the disk is parked in now
     * @param idle_age      seconds since this idle period started
     * @return the next demotion, or nullopt to stay put.
     */
    virtual std::optional<Demotion>
    nextDemotion(DiskId disk, std::size_t current_mode,
                 Time idle_age) const = 0;

    /**
     * Feedback: an idle period of @p idle_length ended because a
     * request of cause @p cause arrived while the disk was parked in
     * (or demoting toward) @p mode_at_wake. Adaptive policies learn
     * from this; Oracle DPM prices the period.
     */
    virtual void onIdleEnd(DiskId, std::size_t /*mode_at_wake*/,
                           Time /*idle_length*/, WakeCause /*cause*/)
    {
    }

    /**
     * The run ended with an idle period of @p idle_length still open.
     * No request closes it, so no spin-up follows it.
     */
    virtual void onTrailingIdle(DiskId, Time /*idle_length*/) {}

    /** Human-readable policy name. */
    virtual const char *name() const = 0;
};

/** Never demotes: the disk stays at full speed (baseline). */
class AlwaysOnDpm : public Dpm
{
  public:
    std::optional<Demotion>
    nextDemotion(DiskId, std::size_t, Time) const override
    {
        return std::nullopt;
    }

    const char *name() const override { return "always-on"; }
};

/**
 * The paper's Practical DPM: threshold-based stepwise demotion
 * through the modes on the lower envelope, using the 2-competitive
 * thresholds (intersection points of consecutive energy lines,
 * Irani et al.). After idling for thresholds()[k], the disk moves to
 * envelope step k+1.
 */
class PracticalDpm : public Dpm
{
  public:
    explicit PracticalDpm(const PowerModel &model) : powerModel(&model) {}

    std::optional<Demotion>
    nextDemotion(DiskId disk, std::size_t current_mode,
                 Time idle_age) const override;

    const char *name() const override { return "practical"; }

  private:
    const PowerModel *powerModel;
};

/**
 * Classic single-threshold policy: after @c timeout seconds of
 * idleness, go straight to a fixed mode (standby by default).
 * Included as the mobile-disk baseline the related work uses.
 */
class FixedTimeoutDpm : public Dpm
{
  public:
    FixedTimeoutDpm(Time timeout, std::size_t target_mode)
        : idleTimeout(timeout), targetMode(target_mode) {}

    std::optional<Demotion>
    nextDemotion(DiskId, std::size_t current_mode, Time) const override
    {
        // An idle age already past the timeout demotes immediately
        // (the disk clamps the delay at zero).
        if (current_mode >= targetMode)
            return std::nullopt;
        return Demotion{targetMode, idleTimeout};
    }

    const char *name() const override { return "fixed-timeout"; }

  private:
    Time idleTimeout;
    std::size_t targetMode;
};

/**
 * Adaptive single-threshold DPM in the spirit of the mobile-disk
 * work the paper surveys (Douglis et al., Helmbold et al.): each
 * disk keeps its own spin-down timeout, doubled after a "bad sleep"
 * (the idle period ended soon after the demotion would have paid
 * off, i.e. the disk was woken before the break-even point) and
 * multiplicatively decreased after long idle periods.
 */
class AdaptiveDpm : public Dpm
{
  public:
    struct Params
    {
        double increaseFactor = 2.0;  //!< after a bad sleep
        double decreaseFactor = 0.9;  //!< after a good sleep
        double goodSleepMultiple = 4.0; //!< idle >= k*timeout is good
        Time minTimeout = 1.0;
        Time maxTimeout = 300.0;
    };

    /**
     * @param model        power model (break-even seeds the timeout)
     * @param target_mode  mode to demote into (deepest by default)
     * @param params       adaptation knobs
     */
    AdaptiveDpm(const PowerModel &model, std::size_t target_mode,
                const Params &params);

    AdaptiveDpm(const PowerModel &model, std::size_t target_mode)
        : AdaptiveDpm(model, target_mode, Params{}) {}

    explicit AdaptiveDpm(const PowerModel &model)
        : AdaptiveDpm(model, model.deepestMode()) {}

    std::optional<Demotion>
    nextDemotion(DiskId disk, std::size_t current_mode,
                 Time idle_age) const override;

    void onIdleEnd(DiskId disk, std::size_t mode_at_wake,
                   Time idle_length, WakeCause) override;

    const char *name() const override { return "adaptive"; }

    /** Current timeout for a disk (test hook). */
    Time timeoutOf(DiskId disk) const;

  private:
    Time &slot(DiskId disk) const;

    const PowerModel *powerModel;
    std::size_t targetMode;
    Params p;
    Time initialTimeout;
    mutable std::vector<Time> timeouts; //!< per-disk, lazily grown
};

} // namespace pacache

#endif // PACACHE_DISK_DPM_HH
