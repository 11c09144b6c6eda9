/**
 * @file
 * pacache_tracegen — emit workload traces in the pacache text format
 * for use with pacache_sim --trace or external tooling.
 *
 * Examples:
 *   pacache_tracegen --workload oltp --out oltp.txt
 *   pacache_tracegen --workload synthetic --requests 100000 \
 *       --write-ratio 0.5 --pareto --out wr50.txt
 *   pacache_tracegen --scale --workload oltp --disks 1024 \
 *       --requests 1000000000 --out big.pct
 */

#include <iostream>
#include <memory>
#include <set>

#include "cli.hh"
#include "trace/stats.hh"
#include "trace/stream_gen.hh"
#include "trace/trace_io.hh"
#include "tracefmt/detect.hh"
#include "tracefmt/sink.hh"
#include "util/logging.hh"
#include "util/mem.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

const char kUsage[] = R"(pacache_tracegen — workload trace generator

  --workload NAME     oltp | cello | synthetic | opg-showcase
                      (default: synthetic)
  --trace FILE        re-emit an existing trace instead (format
                      sniffed unless --trace-format says otherwise)
  --out FILE          output path (default: stdout)
  --duration SECONDS  workload length where applicable
  --requests N        synthetic request count (default: 20000)
  --write-ratio R     synthetic write fraction
  --interarrival MS   synthetic mean inter-arrival time
  --pareto            synthetic: bursty Pareto arrivals
  --disks N           synthetic disk count
  --seed N            generator seed

scaled streaming generation:
  --scale             generate the scaled OLTP/Cello workload
                      (--workload oltp | cello) by streaming straight
                      into --out — the trace is never materialized,
                      so multi-GB / billion-request .pct files use
                      constant memory. --disks sets the array size
                      (default: 64); the run stops at --requests
                      (default: 10000000 when no --duration is given)
                      and/or --duration seconds.

  --help              this text
  --version           build information
)";

int
runScaleMode(const cli::Args &args)
{
    if (!args.has("out"))
        PACACHE_FATAL("--scale streams; it requires --out FILE");

    const std::string name = args.get("workload", "oltp");
    const uint32_t disks =
        static_cast<uint32_t>(args.getUint("disks", 64, UINT32_MAX));
    std::vector<DiskStream> streams;
    if (name == "oltp")
        streams = scaledOltpStreams(disks);
    else if (name == "cello")
        streams = scaledCelloStreams(disks);
    else
        PACACHE_FATAL("--scale supports --workload oltp | cello, got '",
                      name, "'");

    const Time duration = args.getDouble("duration", 0.0);
    uint64_t requests = args.getUint("requests", 0);
    if (duration <= 0 && requests == 0)
        requests = 10000000;

    StreamingSyntheticSource gen(std::move(streams), duration,
                                 args.getUint("seed", 42), requests);
    const auto sink = tracefmt::openTraceSink(
        args.get("out", ""), tracefmt::TraceFormat::Auto);
    const uint64_t n = tracefmt::copyAll(gen, *sink);
    std::cerr << "streamed " << n << " requests (" << disks
              << " disks, " << name << " scaled) to "
              << args.get("out", "") << ", peak RSS "
              << fmt(static_cast<double>(peakRssBytes()) /
                         (1024.0 * 1024.0),
                     1)
              << " MiB\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const cli::Args args(argc, argv);
    std::set<std::string> known{"out", "scale"};
    known.insert(cli::workloadFlags().begin(),
                 cli::workloadFlags().end());
    if (cli::handleStandardFlags(args, "pacache_tracegen", kUsage,
                                 known))
        return 0;

    if (args.has("scale"))
        return runScaleMode(args);

    const Trace trace = cli::loadWorkload(args, "synthetic");

    if (args.has("out")) {
        writeTraceFile(args.get("out", ""), trace);
        const TraceStats s = characterize(trace);
        std::cerr << "wrote " << s.requests << " requests ("
                  << s.disks << " disks, " << fmtPct(s.writeRatio, 1)
                  << " writes) to " << args.get("out", "") << "\n";
    } else {
        writeTrace(std::cout, trace);
    }
    return 0;
} catch (const std::exception &e) {
    std::cerr << e.what() << '\n';
    return 1;
}
