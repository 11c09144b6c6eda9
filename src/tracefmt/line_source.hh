/**
 * @file
 * LineSource — shared machinery for line-oriented trace formats:
 * file/stream line iteration with 1-based line accounting (for
 * error context), '#'-comment and blank-line skipping, arrival-order
 * enforcement, the packed-key range check on every record's extent,
 * and optional rebasing of the first arrival to t = 0.
 */

#ifndef PACACHE_TRACEFMT_LINE_SOURCE_HH
#define PACACHE_TRACEFMT_LINE_SOURCE_HH

#include <fstream>
#include <istream>
#include <string>
#include <string_view>

#include "tracefmt/parse.hh"
#include "tracefmt/trace_source.hh"

namespace pacache::tracefmt
{

/** Base for all text trace parsers. */
class LineSource : public TraceSource
{
  public:
    bool next(TraceRecord &out) override;
    void rewind() override;

  protected:
    /**
     * Open @p path (fatal with the path on failure).
     * @param rebase  shift arrivals so the first record is at t = 0
     * @param clamp   clamp out-of-order arrivals to the previous time
     *                (real traces have small timestamp regressions);
     *                when false they are a parse error
     */
    LineSource(const std::string &path, bool rebase, bool clamp);

    /** Borrow an already-open stream; @p name labels parse errors. */
    LineSource(std::istream &is, std::string name, bool rebase,
               bool clamp);

    /**
     * Parse one non-comment line into @p out. Return false to skip
     * the line (format-specific noise such as headers or non-queue
     * blktrace actions); report malformed input via parseFail(at).
     */
    virtual bool parseLine(std::string_view line, const ParseCursor &at,
                           TraceRecord &out) = 0;

    /** Called on rewind so parsers can reset per-pass state. */
    virtual void onRewind() {}

    const ParseCursor &cursor() const { return at; }

  private:
    std::ifstream owned;
    std::istream *in;
    std::streampos start;
    ParseCursor at;
    std::string line;
    bool rebase;
    bool clamp;
    bool haveFirst = false;
    Time firstTime = 0;
    Time lastTime = 0;
};

} // namespace pacache::tracefmt

#endif // PACACHE_TRACEFMT_LINE_SOURCE_HH
