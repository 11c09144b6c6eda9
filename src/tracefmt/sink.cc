#include "tracefmt/sink.hh"

#include "trace/record.hh"
#include "util/logging.hh"

namespace pacache::tracefmt
{

TextSink::TextSink(const std::string &path_)
    : owned(path_), out(&owned), path(path_)
{
    if (!owned)
        PACACHE_FATAL("cannot open '", path, "' for writing");
    *out << "# pacache trace: time disk block count R|W\n";
}

TextSink::TextSink(std::ostream &os) : out(&os), path("<stream>")
{
    *out << "# pacache trace: time disk block count R|W\n";
}

void
TextSink::append(const TraceRecord &rec)
{
    *out << toString(rec) << '\n';
}

void
TextSink::finish()
{
    out->flush();
    if (!*out)
        PACACHE_FATAL("write error on '", path, "'");
}

TraceFormat
sinkFormat(const std::string &path, TraceFormat fmt)
{
    if (fmt != TraceFormat::Auto)
        return fmt;
    const bool pct = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".pct") == 0;
    return pct ? TraceFormat::Pct : TraceFormat::Text;
}

std::unique_ptr<TraceSink>
openTraceSink(const std::string &path, TraceFormat fmt)
{
    switch (sinkFormat(path, fmt)) {
      case TraceFormat::Text:
        return std::make_unique<TextSink>(path);
      case TraceFormat::Pct:
        return std::make_unique<PctSink>(path);
      default:
        PACACHE_FATAL("cannot write traces in the '",
                      traceFormatName(fmt),
                      "' format (use text or pct)");
    }
}

uint64_t
copyAll(TraceSource &src, TraceSink &sink)
{
    uint64_t n = 0;
    TraceRecord rec;
    while (src.next(rec)) {
        sink.append(rec);
        ++n;
    }
    sink.finish();
    return n;
}

} // namespace pacache::tracefmt
