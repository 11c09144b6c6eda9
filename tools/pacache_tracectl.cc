/**
 * @file
 * pacache_tracectl — trace-file swiss army knife for the workload
 * ingestion subsystem: convert between formats (native text, SPC,
 * MSR-Cambridge, blktrace text, binary .pct), inspect headers,
 * characterize workloads, and derive filtered or time-scaled traces.
 * Every command streams, so files larger than RAM are fine.
 *
 * Examples:
 *   pacache_tracectl convert --in fin1.spc --out fin1.pct
 *   pacache_tracectl info --in fin1.pct
 *   pacache_tracectl stats --in trace.txt
 *   pacache_tracectl head --in fin1.pct --n 20
 *   pacache_tracectl filter --in big.pct --out disk0.pct --disk 0
 *   pacache_tracectl scale --in slow.txt --out fast.txt --time-factor 0.5
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <set>
#include <string>

#include "cli.hh"
#include "trace/stats.hh"
#include "tracefmt/detect.hh"
#include "tracefmt/pct.hh"
#include "tracefmt/sink.hh"
#include "tracefmt/trace_source.hh"
#include "util/build_info.hh"
#include "util/logging.hh"
#include "util/mem.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

const char kUsage[] = R"(pacache_tracectl — trace conversion and inspection

usage: pacache_tracectl COMMAND [flags]

commands:
  convert    rewrite --in as --out (any format to text or .pct)
  info       one-screen summary: format, header, scan statistics
  stats      full characterization with a per-disk table
  head       print the first records as native text
  filter     keep a disk and/or time window, write to --out
  scale      multiply arrival times by --time-factor, write to --out

input (all commands):
  --in FILE              input trace
  --in-format NAME       auto | text | spc | msr | blktrace | pct
                         (default: auto — sniffed from the file)
  --block-bytes N        cache block size byte extents map onto
                         (foreign formats; default: 4096)
  --sector-bytes N       LBA / sector unit (SPC, blktrace; default: 512)
  --disks N              fold disk ids onto N disks via modulo
  --no-rebase            keep original timestamps (default: shift the
                         first foreign-format arrival to t = 0)
  --strict-order         fail on out-of-order arrivals instead of
                         clamping them (foreign formats)

output (convert / filter / scale):
  --out FILE             output trace
  --out-format NAME      text | pct (default: auto — ".pct" extension
                         selects the binary format)

command flags:
  --n N                  head: records to print (default: 10)
  --disk D               filter: keep only this disk id
  --from T / --to T      filter: keep arrivals in [T, T) seconds
  --time-factor X        scale: multiply every arrival time by X

  --help                 this text
  --version              build information
)";

/** "peak RSS 12.3 MiB" — evidence the command really streamed. */
std::string
peakRssLine()
{
    return "peak RSS " +
           fmt(static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0),
               1) +
           " MiB";
}

/** Foreign-format mapping knobs from the shared flags. */
tracefmt::IngestOptions
ingestOptions(const cli::Args &args)
{
    tracefmt::IngestOptions opt;
    opt.blockBytes = args.getUint("block-bytes", opt.blockBytes);
    opt.sectorBytes = static_cast<uint32_t>(
        args.getUint("sector-bytes", opt.sectorBytes, UINT32_MAX));
    opt.diskModulo =
        static_cast<uint32_t>(args.getUint("disks", 0, UINT32_MAX));
    if (args.has("no-rebase"))
        opt.rebaseTime = false;
    if (args.has("strict-order"))
        opt.clampUnsorted = false;
    return opt;
}

std::unique_ptr<tracefmt::TraceSource>
openInput(const cli::Args &args)
{
    if (!args.has("in"))
        PACACHE_FATAL("--in FILE is required (see --help)");
    return tracefmt::openTraceSource(
        args.get("in", ""),
        tracefmt::parseTraceFormat(args.get("in-format", "auto")),
        ingestOptions(args));
}

/**
 * Stream @p src through @p keep (record in, possibly-rewritten record
 * kept or dropped) into --out; shared by convert (identity), filter,
 * and scale. The records go to a side file, renamed over --out only
 * once the input has been read to its end (which also settles a .pct
 * input's checksum) and removed if anything fails, so a bad input
 * never leaves a valid-looking partial trace behind.
 */
uint64_t
transformInto(const cli::Args &args, tracefmt::TraceSource &src,
              const std::function<bool(TraceRecord &)> &keep)
{
    if (!args.has("out"))
        PACACHE_FATAL("--out FILE is required (see --help)");
    const std::string out = args.get("out", "");
    const std::string part = out + ".part";
    uint64_t written = 0;
    try {
        const auto sink = tracefmt::openTraceSink(
            part, tracefmt::sinkFormat(out, tracefmt::parseTraceFormat(
                                                args.get("out-format",
                                                         "auto"))));
        TraceRecord rec;
        while (src.next(rec)) {
            if (!keep(rec))
                continue;
            sink->append(rec);
            ++written;
        }
        sink->finish();
    } catch (...) {
        std::remove(part.c_str());
        throw;
    }
    if (std::rename(part.c_str(), out.c_str()) != 0) {
        std::remove(part.c_str());
        PACACHE_FATAL("cannot rename '", part, "' to '", out, "'");
    }
    return written;
}

int
cmdConvert(const cli::Args &args)
{
    const auto src = openInput(args);
    const uint64_t n =
        transformInto(args, *src, [](TraceRecord &) { return true; });
    std::cout << "converted " << n << " records (" << src->formatName()
              << " -> " << args.get("out", "") << ")\n";
    return 0;
}

int
cmdInfo(const cli::Args &args)
{
    const auto src = openInput(args);
    const tracefmt::ScanSummary sum = tracefmt::scan(*src);

    std::cout << "file:     " << args.get("in", "") << '\n'
              << "format:   " << src->formatName() << '\n';
    if (const auto *pct =
            dynamic_cast<const tracefmt::PctMmapSource *>(src.get())) {
        const tracefmt::PctInfo &h = pct->header();
        std::cout << "header:   version " << h.version << ", checksum 0x"
                  << std::hex << h.checksum << std::dec << '\n';
    }
    std::cout << "records:  " << sum.records << " (" << sum.blocks
              << " blocks, " << fmtPct(sum.writeRatio(), 1)
              << " writes)\n"
              << "disks:    " << sum.numDisks << '\n'
              << "time:     " << fmt(sum.firstTime, 3) << " .. "
              << fmt(sum.endTime, 3) << " s, mean inter-arrival "
              << fmt(sum.meanInterArrival() * 1000.0, 3) << " ms\n"
              << "memory:   " << peakRssLine() << '\n';
    return 0;
}

int
cmdStats(const cli::Args &args)
{
    // One streaming pass: memory is bounded by the per-disk
    // unique-block sets (the footprint), never the trace length.
    const auto src = openInput(args);
    const TraceStats st = characterize(*src);

    std::cout << "requests: " << st.requests << " ("
              << fmtPct(st.writeRatio, 1) << " writes)\n"
              << "footprint: " << st.uniqueBlocks << " unique blocks\n"
              << "duration: " << fmt(st.duration, 3)
              << " s, mean inter-arrival "
              << fmt(st.meanInterArrival * 1000.0, 3) << " ms\n\n";

    TextTable table;
    table.header({"disk", "requests", "interarrival_ms", "unique"});
    for (uint32_t d = 0; d < st.disks; ++d) {
        table.row({std::to_string(d),
                   std::to_string(st.perDiskRequests[d]),
                   fmt(st.perDiskInterArrival[d] * 1000.0, 3),
                   std::to_string(st.perDiskUnique[d])});
    }
    table.print(std::cout);
    std::cout << '\n' << peakRssLine() << '\n';
    return 0;
}

int
cmdHead(const cli::Args &args)
{
    const auto src = openInput(args);
    const uint64_t n = args.getUint("n", 10);
    TraceRecord rec;
    for (uint64_t i = 0; i < n && src->next(rec); ++i)
        std::cout << toString(rec) << '\n';
    return 0;
}

int
cmdFilter(const cli::Args &args)
{
    const bool by_disk = args.has("disk");
    const DiskId disk = static_cast<DiskId>(
        args.getUint("disk", 0, std::numeric_limits<DiskId>::max()));
    const Time from = args.getDouble("from", 0.0);
    const Time to = args.getDouble("to", -1.0); // < 0: no upper bound
    if (!by_disk && !args.has("from") && !args.has("to"))
        PACACHE_FATAL("filter needs --disk, --from, or --to");

    const auto src = openInput(args);
    uint64_t seen = 0;
    const uint64_t kept =
        transformInto(args, *src, [&](TraceRecord &rec) {
            ++seen;
            if (by_disk && rec.disk != disk)
                return false;
            if (rec.time < from)
                return false;
            if (to >= 0 && rec.time >= to)
                return false;
            return true;
        });
    std::cout << "kept " << kept << " of " << seen << " records -> "
              << args.get("out", "") << '\n';
    return 0;
}

int
cmdScale(const cli::Args &args)
{
    const double factor = args.getDouble("time-factor", 0.0);
    if (factor <= 0)
        PACACHE_FATAL("scale needs --time-factor > 0, got ", factor);

    const auto src = openInput(args);
    const uint64_t n = transformInto(args, *src, [&](TraceRecord &rec) {
        rec.time *= factor;
        return true;
    });
    std::cout << "scaled " << n << " records by " << fmt(factor, 3)
              << " -> " << args.get("out", "") << '\n';
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const cli::Args args(argc, argv);
    if (args.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    if (args.has("version")) {
        std::cout << buildInfoBanner("pacache_tracectl") << '\n';
        return 0;
    }
    const std::set<std::string> known{
        "in", "in-format", "out", "out-format", "block-bytes",
        "sector-bytes", "disks", "no-rebase", "strict-order", "n",
        "disk", "from", "to", "time-factor", "help", "version"};
    if (const std::string bad = args.firstUnknown(known); !bad.empty())
        PACACHE_FATAL("unknown flag --", bad, " (see --help)");

    if (args.positional().empty())
        PACACHE_FATAL("missing command (see --help)");
    const std::string &cmd = args.positional().front();
    if (cmd == "convert")
        return cmdConvert(args);
    if (cmd == "info")
        return cmdInfo(args);
    if (cmd == "stats")
        return cmdStats(args);
    if (cmd == "head")
        return cmdHead(args);
    if (cmd == "filter")
        return cmdFilter(args);
    if (cmd == "scale")
        return cmdScale(args);
    PACACHE_FATAL("unknown command '", cmd, "' (see --help)");
} catch (const std::exception &e) {
    std::cerr << e.what() << '\n';
    return 1;
}
