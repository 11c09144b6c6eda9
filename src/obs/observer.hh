/**
 * @file
 * SimObserver — the single hook surface the simulator components talk
 * to. It fans each hook out to whichever sinks are attached:
 *
 *   - a MetricRegistry (hierarchical counters/gauges/histograms),
 *   - a TraceEventWriter (Chrome trace-event JSON: one power-mode
 *     residency track per disk plus instant events for spin-ups,
 *     spin-downs, PA epochs/class flips, WBEU forced wake-ups and
 *     WTDU log-region recycling),
 *   - a TimelineSink (per-interval delta rows), and
 *   - a progress meter (simulated-time and record progress plus
 *     blocks/sec to a stream, normally stderr).
 *
 * Components hold a `SimObserver *` that is null by default; every
 * hook is guarded by that null check, so an un-instrumented run pays
 * one untaken branch per hook ("pay for what you use").
 *
 * Wiring order: attach sinks, call configureRun() (names the trace
 * tracks and sizes per-disk state) *before* constructing the disks,
 * and install the timeline snapshot callback before run().
 */

#ifndef PACACHE_OBS_OBSERVER_HH
#define PACACHE_OBS_OBSERVER_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace_writer.hh"
#include "sim/types.hh"

namespace pacache::obs
{

/** Cumulative run statistics, filled by the snapshot callback. */
struct TimelineSnapshot
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    std::vector<uint64_t> missesPerDisk;
    std::vector<Energy> idleEnergyPerMode;
    Energy serviceEnergy = 0;
    Energy spinUpEnergy = 0;
    Energy spinDownEnergy = 0;
    uint64_t spinUps = 0;
    uint64_t spinDowns = 0;
    uint64_t responseCount = 0;
    double responseSum = 0;
    std::vector<uint32_t> prioritySet;
};

/** Observability fan-out for one simulation run. */
class SimObserver
{
  public:
    SimObserver() = default;
    SimObserver(const SimObserver &) = delete;
    SimObserver &operator=(const SimObserver &) = delete;

    // ---- wiring ----------------------------------------------------

    void attachMetrics(MetricRegistry *registry);
    void attachTrace(TraceEventWriter *writer);
    void attachTimeline(TimelineSink *sink, Time interval);
    void enableProgress(std::ostream &err);

    /**
     * Declare the run layout: data-disk count, whether a WTDU log
     * device exists (it gets track @c num_disks), and the power-mode
     * names (for residency labels in metrics finalization).
     */
    void configureRun(std::size_t num_disks, bool has_log_device,
                      std::vector<std::string> mode_names);

    /** Install the cumulative-statistics provider for timeline rows. */
    void setSnapshotFn(std::function<void(TimelineSnapshot &)> fn)
    {
        snapshotFn = std::move(fn);
    }

    /** Predicate "is this disk currently PA-priority?" (may be null). */
    void setPriorityFn(std::function<bool(DiskId)> fn)
    {
        priorityFn = std::move(fn);
    }

    MetricRegistry *metrics() { return registry; }
    TraceEventWriter *trace() { return traceWriter; }

    // ---- run lifecycle (StorageSystem) -----------------------------

    /**
     * Start of run(): trace record count (0 = unknown) and trace end
     * (for progress).
     */
    void runBegin(uint64_t total_records, Time trace_end);

    /**
     * One block access of trace record @p record has been fully
     * processed at simulated @p now.
     */
    void requestProcessed(Time now, uint64_t record);

    /**
     * End of run(), after disk finalization at @p horizon: closes the
     * open residency spans, emits the final timeline row, prints the
     * progress summary.
     */
    void runEnd(Time horizon);

    // ---- disk hooks ------------------------------------------------

    /** The disk entered a new activity/power state (residency track). */
    void diskPowerState(DiskId disk, std::string_view label, Time now);

    void diskSpinUpStart(DiskId disk, std::string_view from_label,
                         Time now);
    void diskSpinDownStart(DiskId disk, std::string_view target_label,
                           Time now);

    // ---- cache hooks -----------------------------------------------

    void cacheAccess(bool hit);
    void cacheEviction(const BlockId &victim, bool dirty);

    // ---- PA classifier hooks ---------------------------------------

    void paEpochBoundary(uint64_t epoch, Time now);
    void paClassFlip(DiskId disk, bool priority, Time now);

    // ---- write-policy hooks (StorageSystem) ------------------------

    void wbeuForcedWake(DiskId disk, std::size_t dirty_blocks, Time now);
    void wtduLogWrite();
    void wtduRegionRecycle(DiskId disk, Time now);

  private:
    struct OpenSpan
    {
        std::string label;
        Time start = 0;
        bool open = false;
    };

    uint32_t classifierTrack() const
    {
        return static_cast<uint32_t>(numDisks) + 1;
    }

    void nameClassifierTrack();
    void emitTimelineRow(Time t_end);
    void printProgress(Time now, bool final);

    // Sinks.
    MetricRegistry *registry = nullptr;
    TraceEventWriter *traceWriter = nullptr;
    TimelineSink *timeline = nullptr;
    std::ostream *progress = nullptr;

    // Layout.
    std::size_t numDisks = 0;
    bool hasLogDevice = false;
    std::vector<std::string> modeNames;

    // Hot-path counters, resolved once at configureRun.
    Counter *cacheAccesses = nullptr;
    Counter *cacheHits = nullptr;
    Counter *cacheEvictionsTotal = nullptr;
    Counter *cacheEvictionsPriority = nullptr;
    Counter *wtduLogWrites = nullptr;
    Counter *paEpochs = nullptr;
    Counter *paClassFlips = nullptr;
    Counter *wbeuForcedWakeups = nullptr;
    Counter *wtduRegionRecycles = nullptr;
    std::vector<Counter *> diskSpinUps;
    std::vector<Counter *> diskSpinDowns;

    // Trace state.
    std::vector<OpenSpan> spans;
    bool classifierTrackNamed = false;

    // Timeline state.
    Time timelineInterval = 0;
    Time nextTick = 0;
    Time lastRowEnd = 0;
    uint64_t rowIndex = 0;
    TimelineSnapshot prevSnapshot;
    std::function<void(TimelineSnapshot &)> snapshotFn;
    std::function<bool(DiskId)> priorityFn;

    // Progress state.
    uint64_t totalRecords = 0;
    uint64_t processedRecords = 0;
    uint64_t processedAccesses = 0;
    Time traceEnd = 0;
    std::chrono::steady_clock::time_point wallStart;
    std::chrono::steady_clock::time_point lastPrint;
};

} // namespace pacache::obs

#endif // PACACHE_OBS_OBSERVER_HH
