/**
 * @file
 * Event-driven model of one multi-speed disk with an FCFS request
 * queue, a power state machine (parked-at-mode / busy / spinning
 * down / spinning up), per-mode energy accounting, and an attached
 * DPM policy that schedules demotions while the disk idles and hears
 * of every idle period as it ends.
 *
 * Behavioural rules (paper Section 2):
 *  - Requests are serviced only at full speed.
 *  - A request arriving while the disk is below full speed (or
 *    demoting) triggers a spin-up; demotions are not preemptible, so
 *    a request arriving mid-demotion waits for the demotion to finish
 *    before the spin-up starts.
 *  - While the queue is non-empty the disk stays at full speed; an
 *    idle period begins when the last service completes and ends when
 *    the next request arrives.
 */

#ifndef PACACHE_DISK_DISK_HH
#define PACACHE_DISK_DISK_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "disk/dpm.hh"
#include "disk/power_model.hh"
#include "disk/service_model.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "stats/energy_stats.hh"
#include "stats/response_stats.hh"

namespace pacache
{

namespace obs
{
class SimObserver;
}

/** One I/O request as seen by a disk. */
struct DiskRequest
{
    Time arrival = 0;       //!< absolute submission time
    BlockNum block = 0;     //!< starting logical block
    uint32_t numBlocks = 1; //!< request length in blocks
    bool write = false;
    /**
     * Why this request exists, for spin-up attribution: if the disk
     * must spin up to service it, the transition's energy is charged
     * to this cause in the energy-attribution ledger.
     */
    WakeCause cause = WakeCause::DemandColdMiss;
    /** Optional completion callback (completion time, request). */
    std::function<void(Time, const DiskRequest &)> onComplete;
};

/** Behavioural options for a disk. */
struct DiskOptions
{
    /**
     * DRPM's "serve at any rotational speed" option (the paper's
     * option 1, used by Carrera & Bianchini): requests arriving while
     * the disk is parked in a spinning NAP mode are serviced at that
     * speed — rotational latency and transfer stretch, active power
     * drops — instead of forcing a spin-up. Standby (0 RPM) still
     * requires a spin-up. Off by default (the paper's option 2).
     */
    bool serveAtLowSpeed = false;

    /**
     * Observability fan-out (metrics / trace events / timeline).
     * Null (the default) disables instrumentation entirely; when set,
     * it must outlive the disk and have been configured before the
     * disk is constructed (the constructor reports the initial
     * power state).
     */
    obs::SimObserver *observer = nullptr;
};

/** Event-driven single-disk simulator. */
class Disk
{
  public:
    /** Coarse power/activity state. */
    enum class State
    {
        Parked,       //!< idle at currentMode (possibly full speed)
        Busy,         //!< servicing a request at full speed
        SpinningDown, //!< demoting to a deeper mode
        SpinningUp,   //!< returning to full speed
    };

    /**
     * @param id     disk index (for stats/labels)
     * @param eq     shared event queue (owns simulated time)
     * @param pm     power model (shared, not owned)
     * @param sm     service model (shared, not owned)
     * @param dpm    demotion policy (shared, not owned)
     */
    Disk(DiskId id, EventQueue &eq, const PowerModel &pm,
         const ServiceModel &sm, Dpm &dpm, const DiskOptions &opts);

    Disk(DiskId id, EventQueue &eq, const PowerModel &pm,
         const ServiceModel &sm, Dpm &dpm)
        : Disk(id, eq, pm, sm, dpm, DiskOptions{}) {}

    Disk(const Disk &) = delete;
    Disk &operator=(const Disk &) = delete;

    /** Submit a request at the current simulated time. */
    void submit(DiskRequest req);

    /**
     * Close accounting at the end of the simulation: accrue parked
     * energy up to @p end and report the trailing idle gap to the DPM
     * (Dpm::onTrailingIdle). The trailing gap is *not* charged a
     * spin-up (no further request arrives).
     */
    void finalize(Time end);

    DiskId id() const { return diskId; }
    State state() const { return curState; }

    /** Index of the power mode the disk is parked in (valid when
     *  Parked). */
    std::size_t currentMode() const { return curMode; }

    /** True when the disk is at full speed and able to service. */
    bool atFullSpeed() const
    {
        return curState == State::Busy ||
               (curState == State::Parked && curMode == 0);
    }

    /** Energy/time breakdown accumulated so far. */
    const EnergyStats &energy() const { return stats; }

    /** Response-time statistics. */
    const ResponseStats &responses() const { return respStats; }

    /** Mean inter-arrival time of submitted requests. */
    double meanInterArrival() const;

    /** Number of requests submitted. */
    uint64_t arrivals() const { return numArrivals; }

    /**
     * Register a callback fired whenever the disk reaches full speed
     * after being below it (used by WBEU/WTDU flush-on-activation).
     */
    void setOnActivated(std::function<void(Time)> cb)
    {
        onActivated = std::move(cb);
    }

    const PowerModel &powerModel() const { return *pm; }

  private:
    /** Accrue parked energy from parkStart to now, then reset it. */
    void accrueParked(Time now);

    /** Begin servicing the head of the queue (must be at full speed,
     *  Parked). */
    void startService(Time now);

    void onServiceDone(Time now);

    /** Queue drained at full speed: enter Parked@0 and arm the DPM. */
    void enterIdle(Time now);

    /** Ask the DPM for the next demotion and schedule its timer. */
    void armDemotionTimer(Time now);

    void onDemotionTimer(Time now, std::size_t target_mode);
    void onSpinDownDone(Time now, std::size_t target_mode);
    void beginSpinUp(Time now);
    void onSpinUpDone(Time now);

    /** True when requests can be serviced in the current mode. */
    bool canServiceInMode(std::size_t mode) const;

    /** Report a residency-state change to the observer (if any). */
    void observeState(const char *label, Time now);

    /** Report parking in @c curMode to the observer (if any). */
    void observeParked(Time now);

    DiskId diskId;
    EventQueue &queue;
    const PowerModel *pm;
    const ServiceModel *sm;
    Dpm *dpm;
    DiskOptions options;

    State curState = State::Parked;
    std::size_t curMode = 0;
    Time parkStart = 0;     //!< when the current parked stretch began
    Time idleStart = 0;     //!< when the current idle period began
    bool idleOpen = false;  //!< an idle gap is in progress
    bool wantSpinUp = false; //!< request arrived during spin-down

    std::deque<DiskRequest> pending;
    EventQueue::Handle demotionTimer;

    BlockNum headPosition = 0; //!< last accessed block (seek origin)

    EnergyStats stats;
    ResponseStats respStats;

    uint64_t numArrivals = 0;
    Time firstArrival = 0;
    Time lastArrival = 0;

    std::function<void(Time)> onActivated;

    obs::SimObserver *obs; //!< null = no instrumentation

    bool finalized = false;
};

} // namespace pacache

#endif // PACACHE_DISK_DISK_HH
