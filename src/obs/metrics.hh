/**
 * @file
 * MetricRegistry — hierarchical counters, gauges, and histograms for
 * simulator observability.
 *
 * Metrics are named with dot-separated paths ("disk.3.spinups",
 * "cache.evictions.priority", "wtdu.log_writes"); the JSON snapshot
 * nests along the dots, the flat-text snapshot prints one
 * "name value" line per metric. Because nesting must be unambiguous,
 * a name may not be a dot-prefix of another registered name (that
 * would make it both a leaf and an object) — registering one is a
 * fatal configuration error, as is re-registering a name as a
 * different metric kind. Re-registering the same name with the same
 * kind returns the existing instrument.
 *
 * Cost model: instruments are plain slots (a counter increment is one
 * add); components that might run without observability hold a null
 * registry/observer pointer and skip the call entirely, so an
 * un-instrumented run pays only an untaken branch per hook.
 *
 * Threading contract: a MetricRegistry and its instruments are
 * SINGLE-WRITER. Registration mutates the name tree, and Counter /
 * Gauge / Histogram updates are non-atomic on purpose — making them
 * atomic would put contended read-modify-writes on the simulator hot
 * path (see the micro_obs overhead gate). A registry must therefore
 * be confined to one thread at a time: either one simulation thread
 * owns it outright, or each concurrent lane keeps its own
 * thread-local state and the lanes are combined after the fact
 * (runner::runAll records a sweep's gauges serially from its result
 * slots once every run has finished; the serve front-end keeps all
 * statistics shard-local under the stripe lock and merges them in
 * ServeServer::finish()). Snapshots (writeJson /
 * writeFlat) are reads and may only run once writers have quiesced.
 */

#ifndef PACACHE_OBS_METRICS_HH
#define PACACHE_OBS_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "util/histogram.hh"

namespace pacache::obs
{

/** Monotonically increasing counter (no decrement API by design). */
class Counter
{
  public:
    void inc(uint64_t by = 1) { count += by; }
    uint64_t value() const { return count; }

  private:
    uint64_t count = 0;
};

/** Last-write-wins scalar. */
class Gauge
{
  public:
    void set(double v) { val = v; }
    double value() const { return val; }

  private:
    double val = 0.0;
};

/**
 * Positive-value distribution with geometric bins; tracks exact
 * count/mean/min/max and bin-interpolated percentiles.
 */
class Histogram
{
  public:
    /** Geometric bins spanning [min_edge, max_edge]. */
    Histogram(double min_edge, double max_edge,
              std::size_t bins_per_decade = 8)
        : bins(IntervalHistogram::geometric(min_edge, max_edge,
                                            bins_per_decade))
    {
    }

    void record(double v);

    uint64_t count() const { return bins.sampleCount(); }
    double mean() const { return bins.mean(); }
    double min() const { return bins.sampleCount() ? minSeen : 0.0; }
    double max() const { return bins.sampleCount() ? maxSeen : 0.0; }

    /** p in [0,1]; bin-interpolated quantile. */
    double percentile(double p) const { return bins.quantile(p); }

  private:
    IntervalHistogram bins;
    double minSeen = 0.0;
    double maxSeen = 0.0;
};

/** Registry of named instruments with snapshot serialization. */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Find-or-create. Fatal on kind or hierarchy collision. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name, double min_edge = 1e-6,
                         double max_edge = 1e6);

    std::size_t size() const { return slots.size(); }

    /**
     * Nested-object JSON snapshot: dot segments become objects,
     * leaves become numbers (histograms become summary objects).
     */
    void writeJson(std::ostream &os) const;

    /**
     * Flat text snapshot: one "name value" line per metric in name
     * order; histograms expand to .count/.mean/.p50/.p95/.p99/.max
     * pseudo-leaves.
     */
    void writeText(std::ostream &os) const;

    /**
     * Prometheus-style text exposition: one "name value" line per
     * metric with names sanitized to [a-zA-Z0-9_] (dots and any
     * other byte become '_'; a leading digit gets a '_' prefix),
     * each preceded by a "# TYPE" comment. Histograms expand to
     * _count/_mean/_p50/_p95/_p99/_max gauge lines.
     */
    void writePrometheus(std::ostream &os) const;

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };

    struct Slot
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    /** Validate the name and reject dot-prefix collisions. */
    Slot &findOrCreate(std::string_view name, Kind kind);

    std::map<std::string, Slot, std::less<>> slots;
};

} // namespace pacache::obs

#endif // PACACHE_OBS_METRICS_HH
