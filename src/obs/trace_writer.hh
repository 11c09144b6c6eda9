/**
 * @file
 * Chrome trace-event writer: buffers duration ("complete", ph "X"),
 * instant (ph "i"), and track-name metadata (ph "M") events during a
 * simulation and serializes them as trace-event JSON loadable in
 * Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Simulated seconds map to trace microseconds. Events are buffered
 * and sorted by timestamp before writing, so the emitted file has
 * monotonically non-decreasing "ts" fields even though duration
 * events are recorded when they *close* (their ts is the open time).
 *
 * A run records one event per power-state span (about 10^5 on the
 * fig6 workloads), so recording must stay cheap. Event names are
 * interned into a small per-writer table (a run uses a few dozen
 * distinct names, so a linear scan beats hashing), and instant
 * arguments live in one side pool, so a buffered event is a
 * trivially copyable 40-byte record with no allocation of its own.
 * Events are kept in fixed chunks of kChunkEvents that never move,
 * so the buffer grows without the copies and fresh-page faults of a
 * doubling vector.
 */

#ifndef PACACHE_OBS_TRACE_WRITER_HH
#define PACACHE_OBS_TRACE_WRITER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace pacache::obs
{

/** Buffering trace-event recorder. */
class TraceEventWriter
{
  public:
    /** One "name": "value" argument attached to an event. */
    using Arg = std::pair<std::string, std::string>;

    /** Name a track (trace "thread"); shown as the lane label. */
    void setTrackName(uint32_t track, std::string name);

    /** Record a duration (complete) event on @p track. */
    void complete(uint32_t track, std::string_view name, Time start,
                  Time end, const char *category = "power");

    /** Record an instant event on @p track. */
    void instant(uint32_t track, std::string_view name, Time t,
                 const char *category = "event",
                 std::vector<Arg> args = {});

    std::size_t eventCount() const { return count; }

    /**
     * Serialize everything as {"traceEvents":[...]} with events in
     * non-decreasing timestamp order. The buffer is left intact, so
     * this is safe to call more than once.
     */
    void writeJson(std::ostream &os) const;

  private:
    struct Event
    {
        int64_t tsUs;         //!< microseconds
        int64_t durUs;        //!< for 'X'
        const char *category;
        uint32_t track;
        uint32_t name;        //!< index into names
        uint32_t argBegin;    //!< first of argCount entries in args
        uint16_t argCount;
        char phase;           //!< 'X', 'i', or 'M'
    };
    static_assert(std::is_trivially_copyable_v<Event>);

    static int64_t toMicros(Time t);

    /** Index of @p name in names, adding it on first use. */
    uint32_t intern(std::string_view name);

    /** Buffer one event whose args are @p event_args. */
    void record(char phase, uint32_t track, std::string_view name,
                int64_t ts_us, int64_t dur_us, const char *category,
                std::vector<Arg> event_args);

    static constexpr std::size_t kChunkEvents = 1024;

    const Event &
    event(std::size_t i) const
    {
        return chunks[i / kChunkEvents][i % kChunkEvents];
    }

    std::vector<std::unique_ptr<Event[]>> chunks;
    std::size_t count = 0; //!< events recorded
    std::vector<std::string> names; //!< interned, by id
    std::vector<Arg> args; //!< every event's args, back to back
};

} // namespace pacache::obs

#endif // PACACHE_OBS_TRACE_WRITER_HH
