/**
 * @file
 * TraceSink — the write side of the ingestion subsystem: stream
 * records into the native text format or the .pct binary without
 * materializing the trace, so conversions run in constant memory.
 */

#ifndef PACACHE_TRACEFMT_SINK_HH
#define PACACHE_TRACEFMT_SINK_HH

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "tracefmt/detect.hh"
#include "tracefmt/pct.hh"

namespace pacache::tracefmt
{

/** Streaming consumer of trace records. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Append one record (records must arrive in time order). */
    virtual void append(const TraceRecord &rec) = 0;

    /** Flush and close; no appends afterwards. */
    virtual void finish() {}
};

/** Native text format sink. */
class TextSink : public TraceSink
{
  public:
    /** Open @p path (fatal on failure). */
    explicit TextSink(const std::string &path);

    /** Write to a borrowed stream. */
    explicit TextSink(std::ostream &os);

    void append(const TraceRecord &rec) override;
    void finish() override;

  private:
    std::ofstream owned;
    std::ostream *out;
    std::string path;
};

/** .pct binary sink. */
class PctSink : public TraceSink
{
  public:
    explicit PctSink(const std::string &path) : writer(path) {}

    void append(const TraceRecord &rec) override { writer.append(rec); }
    void finish() override { info = writer.finish(); }

    /** Final header (valid after finish()). */
    const PctInfo &header() const { return info; }

  private:
    PctWriter writer;
    PctInfo info;
};

/**
 * The format a sink for @p path writes: @p fmt, or for Auto, .pct for
 * a ".pct" extension and native text otherwise.
 */
TraceFormat sinkFormat(const std::string &path, TraceFormat fmt);

/** Open a sink for @p path in sinkFormat(path, fmt). */
std::unique_ptr<TraceSink>
openTraceSink(const std::string &path,
              TraceFormat fmt = TraceFormat::Auto);

/** Drain @p src into @p sink (finishing it); returns records copied. */
uint64_t copyAll(TraceSource &src, TraceSink &sink);

} // namespace pacache::tracefmt

#endif // PACACHE_TRACEFMT_SINK_HH
