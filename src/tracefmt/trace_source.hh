/**
 * @file
 * TraceSource — the pull-based streaming interface behind every
 * workload ingestion path.
 *
 * A source yields TraceRecords one at a time in arrival order and can
 * be rewound to its first record, so simulations can be driven by
 * traces far larger than RAM while off-line consumers (Belady, OPG,
 * trace characterization) can still materialize when they must.
 */

#ifndef PACACHE_TRACEFMT_TRACE_SOURCE_HH
#define PACACHE_TRACEFMT_TRACE_SOURCE_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace pacache::tracefmt
{

/** Streaming producer of time-ordered trace records. */
class TraceSource
{
  public:
    /** Hint value meaning "not known without a full scan". */
    static constexpr uint64_t kUnknown = ~uint64_t{0};

    virtual ~TraceSource() = default;

    /** Produce the next record; false at end of stream. */
    virtual bool next(TraceRecord &out) = 0;

    /** Reposition at the first record (sources are re-runnable). */
    virtual void rewind() = 0;

    /** Short format name ("text", "pct", "spc", ...). */
    virtual const char *formatName() const = 0;

    /** Total record count, when cheaply known (else kUnknown). */
    virtual uint64_t sizeHint() const { return kUnknown; }

    /** Number of disks (max id + 1), when cheaply known. */
    virtual uint64_t numDisksHint() const { return kUnknown; }

    /** Last arrival time, when cheaply known (negative if not). */
    virtual Time endTimeHint() const { return -1; }

    /**
     * Path of the backing .pct file, when this source *is* a whole
     * .pct file (empty otherwise). The windowed oracle's backward
     * pass re-opens it for random access; a source without one is
     * spilled to a temporary .pct first.
     */
    virtual std::string pctPath() const { return {}; }
};

/** Adapter: stream an in-memory Trace. */
class MemorySource : public TraceSource
{
  public:
    explicit MemorySource(const Trace &trace_) : trace(&trace_) {}
    /** The source only points at the trace: it must outlive it. */
    explicit MemorySource(const Trace &&) = delete;

    bool
    next(TraceRecord &out) override
    {
        if (pos >= trace->size())
            return false;
        out = (*trace)[pos++];
        return true;
    }

    void rewind() override { pos = 0; }
    const char *formatName() const override { return "memory"; }
    uint64_t sizeHint() const override { return trace->size(); }
    uint64_t numDisksHint() const override { return trace->numDisks(); }

    Time
    endTimeHint() const override
    {
        return trace->empty() ? -1 : trace->endTime();
    }

  private:
    const Trace *trace;
    std::size_t pos = 0;
};

/** Materialize the remainder of @p src into an in-memory Trace. */
Trace readAll(TraceSource &src);

/** Constant-memory whole-stream summary. */
struct ScanSummary
{
    uint64_t records = 0;
    uint64_t writes = 0;
    uint64_t blocks = 0; //!< sum of record lengths
    std::size_t numDisks = 0;
    Time firstTime = 0;
    Time endTime = 0;

    double
    writeRatio() const
    {
        return records ? static_cast<double>(writes) /
                             static_cast<double>(records)
                       : 0.0;
    }

    double
    meanInterArrival() const
    {
        return records > 1 ? (endTime - firstTime) /
                                 static_cast<double>(records - 1)
                           : 0.0;
    }
};

/** Scan @p src from its current position, then rewind it. */
ScanSummary scan(TraceSource &src);

} // namespace pacache::tracefmt

#endif // PACACHE_TRACEFMT_TRACE_SOURCE_HH
