#include "obs/trace_writer.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/json.hh"
#include "util/logging.hh"

namespace pacache::obs
{

int64_t
TraceEventWriter::toMicros(Time t)
{
    return static_cast<int64_t>(std::llround(t * 1e6));
}

uint32_t
TraceEventWriter::intern(std::string_view name)
{
    const auto known = static_cast<uint32_t>(names.size());
    for (uint32_t id = 0; id < known; ++id) {
        if (names[id] == name)
            return id;
    }
    names.emplace_back(name);
    return known;
}

void
TraceEventWriter::record(char phase, uint32_t track, std::string_view name,
                         int64_t ts_us, int64_t dur_us,
                         const char *category, std::vector<Arg> event_args)
{
    PACACHE_ASSERT(event_args.size() <= UINT16_MAX &&
                       args.size() + event_args.size() <= UINT32_MAX,
                   "trace event with ", event_args.size(), " args after ",
                   args.size());
    Event e;
    e.tsUs = ts_us;
    e.durUs = dur_us;
    e.category = category;
    e.track = track;
    e.name = intern(name);
    e.argBegin = static_cast<uint32_t>(args.size());
    e.argCount = static_cast<uint16_t>(event_args.size());
    e.phase = phase;
    for (Arg &a : event_args)
        args.push_back(std::move(a));
    if (count % kChunkEvents == 0)
        chunks.push_back(
            std::make_unique_for_overwrite<Event[]>(kChunkEvents));
    chunks.back()[count % kChunkEvents] = e;
    ++count;
}

void
TraceEventWriter::setTrackName(uint32_t track, std::string name)
{
    record('M', track, "thread_name", 0, 0, "__metadata",
           {{"name", std::move(name)}});
}

void
TraceEventWriter::complete(uint32_t track, std::string_view name,
                           Time start, Time end, const char *category)
{
    PACACHE_ASSERT(end >= start - 1e-12, "negative-duration trace event");
    const int64_t ts = toMicros(start);
    record('X', track, name, ts, std::max<int64_t>(0, toMicros(end) - ts),
           category, {});
}

void
TraceEventWriter::instant(uint32_t track, std::string_view name, Time t,
                          const char *category, std::vector<Arg> event_args)
{
    record('i', track, name, toMicros(t), 0, category,
           std::move(event_args));
}

void
TraceEventWriter::writeJson(std::ostream &os) const
{
    // Sort a copy of the index so writeJson stays const/idempotent.
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         // Metadata first, then by timestamp.
                         const Event &ea = event(a);
                         const Event &eb = event(b);
                         const bool ma = ea.phase == 'M';
                         const bool mb = eb.phase == 'M';
                         if (ma != mb)
                             return ma;
                         return ea.tsUs < eb.tsUs;
                     });

    JsonWriter json(os);
    json.beginObject();
    json.kv("displayTimeUnit", "ms");
    json.key("traceEvents").beginArray();
    for (const std::size_t i : order) {
        const Event &e = event(i);
        json.beginObject();
        json.kv("name", names[e.name]);
        json.kv("cat", e.category);
        json.kv("ph", std::string_view(&e.phase, 1));
        json.kv("pid", uint64_t{0});
        json.kv("tid", uint64_t{e.track});
        json.kv("ts", e.tsUs);
        if (e.phase == 'X')
            json.kv("dur", e.durUs);
        if (e.phase == 'i')
            json.kv("s", "t"); // thread-scoped instant
        if (e.argCount) {
            json.key("args").beginObject();
            for (uint32_t a = e.argBegin; a < e.argBegin + e.argCount; ++a)
                json.kv(args[a].first, args[a].second);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << '\n';
}

} // namespace pacache::obs
