/**
 * @file
 * pacache_sim — command-line driver for the full simulated storage
 * system: pick a workload (built-in synthesizer or a trace file), a
 * replacement policy, a write policy, a DPM regime and a cache size;
 * get the energy/latency report.
 *
 * Examples:
 *   pacache_sim --workload oltp --policy pa-lru --cache-blocks 1024
 *   pacache_sim --trace mytrace.txt --policy arc --dpm oracle
 *   pacache_sim --workload cello --policy lru --write wtdu
 *   pacache_sim --workload synthetic --requests 50000 --write-ratio 0.8
 */

#include <chrono>
#include <fstream>
#include <optional>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "cli.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "obs/energy_ledger.hh"
#include "obs/observer.hh"
#include "obs/profiler.hh"
#include "runner/shard_replay.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"
#include "tracefmt/detect.hh"
#include "tracefmt/trace_source.hh"
#include "util/build_info.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

const char kUsage[] = R"(pacache_sim — power-aware storage cache simulator

workload selection (one of):
  --trace FILE           load a trace file; the format is sniffed
                         unless --trace-format says otherwise
  --trace-format NAME    auto | text | spc | msr | blktrace | pct
                         (default: auto)
  --stream               drive the simulation straight from the trace
                         file instead of loading it into memory, so
                         traces larger than RAM work (requires --trace;
                         off-line policies build their future knowledge
                         out of core over the .pct file, spilling other
                         formats to a temporary one)
  --window N             with --stream and belady/opg: keep N
                         look-ahead accesses of the out-of-core future
                         in memory (default: 1Mi); results are
                         bit-identical to the in-memory oracle for any N
  --oracle-mem-budget M  with opg: cap the oracle's in-RAM replay
                         state (deterministic-miss sets and next-use
                         indexes) at M MiB, spilling overflow pages
                         to unlinked temporary files; results stay
                         bit-identical to the unbounded oracle
                         (0 = unbounded, the default)
  --shards N             partition the trace by disk (shard = disk id
                         mod N) and replay every shard on its own
                         simulation stack in parallel (requires
                         --stream and a .pct trace; statistics follow
                         the sharded-cache model of pacache_serve and
                         are byte-identical for any --jobs)
  --workload NAME        oltp | cello | synthetic | opg-showcase
                         (default: oltp)
  --duration SECONDS     workload length where applicable
  --requests N           synthetic workload request count
  --write-ratio R        synthetic write fraction (0..1)
  --interarrival MS      synthetic mean inter-arrival time
  --pareto               synthetic: bursty Pareto arrivals
  --disks N              synthetic disk count
  --seed N               generator seed

system configuration:
  --policy NAME          lru | fifo | clock | arc | mq | lirs | belady |
                         opg | pa-lru | pa-arc | pa-lirs | infinite
                         (default: lru)
  --dpm NAME             always-on | adaptive | practical | oracle
                         (default: practical)
  --write NAME           wt | wb | wbeu | wtdu   (default: wb)
  --cache-blocks N       cache capacity in blocks (default: 1024)
  --epoch SECONDS        PA classifier epoch (default: 900)
  --opg-theta J          OPG penalty floor (default: auto)

parallel sweeps:
  --sweep FILE           run every point of the JSON sweep spec instead
                         of a single experiment; axes: workloads,
                         policies, cache_blocks, dpms, write_policies,
                         plus name and duration (see EXPERIMENTS.md);
                         only --sweep-out and --jobs combine with it
  --sweep-out FILE       write the sweep report as JSON (default:
                         console table only)
  --jobs N               worker threads for --sweep / --shards
                         (default: all hardware threads)

output:
  --per-disk             include the per-disk breakdown
  --energy-ledger        print the energy-attribution ledger: active /
                         idle / spin-up / spin-down rows per disk plus
                         spin-ups by wake cause, with the conservation
                         check (rows sum to the energy totals)
  --help                 this text
  --version              build information

observability:
  --metrics-out FILE     metric registry + summary snapshot; JSON, or
                         flat "name value" text if FILE ends in .txt,
                         or Prometheus-style exposition if it ends in
                         .prom
  --trace-events FILE    Chrome trace-event JSON (load in Perfetto or
                         chrome://tracing): per-disk power-state
                         residency tracks, spin-up/-down markers, PA
                         epochs and class flips, WBEU/WTDU events
  --timeline FILE        per-interval activity rows; JSONL, or CSV if
                         FILE ends in .csv
  --timeline-interval S  timeline row length in simulated seconds
                         (default: 900, the PA epoch)
  --progress             live progress meter on stderr
  --profile              time the simulator's own phases (ingest,
                         oracle precompute, replay, drain, report) and
                         print a self-time summary table; with
                         --trace-events the spans land on a dedicated
                         wall-clock track in the trace file
)";

/**
 * The full --metrics-out JSON document: build identification, run
 * configuration, the report-level summary statistics (energy,
 * responses, cache), and the nested metric registry snapshot. The
 * summary numbers are the same doubles the console report formats, so
 * the file reconciles with the printed output exactly.
 */
void
writeMetricsJson(std::ostream &os, const cli::Args &args,
                 const tracefmt::ScanSummary &st,
                 const ExperimentConfig &cfg,
                 const ExperimentResult &r,
                 const std::vector<std::string> &mode_names,
                 const obs::EnergyLedger &ledger,
                 const obs::MetricRegistry &registry)
{
    JsonWriter json(os);
    json.beginObject();

    json.key("build");
    writeBuildInfoJson(json);

    json.key("run");
    json.beginObject();
    if (args.has("trace"))
        json.kv("trace", args.get("trace", ""));
    else
        json.kv("workload", args.get("workload", "oltp"));
    json.kv("policy", r.policyName);
    json.kv("dpm", args.get("dpm", "practical"));
    json.kv("write_policy", writePolicyName(cfg.storage.writePolicy));
    json.kv("cache_blocks", static_cast<uint64_t>(cfg.cacheBlocks));
    json.kv("requests", st.records);
    json.kv("disks", static_cast<uint64_t>(st.numDisks));
    json.endObject();

    json.kv("total_energy_joules", r.totalEnergy);
    json.key("energy");
    r.energy.writeJsonValue(json, &mode_names);

    json.key("responses");
    r.responses.writeJsonValue(json);

    json.key("cache");
    json.beginObject();
    json.kv("accesses", r.cache.accesses);
    json.kv("hits", r.cache.hits);
    json.kv("misses", r.cache.misses);
    json.kv("hit_ratio", r.cache.hitRatio());
    json.kv("cold_misses", r.cache.coldMisses);
    json.kv("evictions", r.cache.evictions);
    json.endObject();

    json.key("energy_ledger");
    ledger.writeJsonValue(json);

    // The registry snapshot is a complete JSON object of its own;
    // splice it in verbatim.
    std::ostringstream reg;
    registry.writeJson(reg);
    json.key("metrics");
    json.rawValue(reg.str());

    json.endObject();
    json.finish();
}

/**
 * --sweep mode: expand the spec, run every point on the thread pool,
 * print a per-point table, and optionally dump a JSON report whose
 * ordering is independent of the job count.
 */
int
runSweepMode(const cli::Args &args)
{
    const std::string path = args.get("sweep", "");
    std::ifstream in(path);
    if (!in)
        PACACHE_FATAL("cannot open sweep spec '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const runner::SweepSpec spec =
        runner::SweepSpec::fromJsonText(buf.str());

    const unsigned jobs = static_cast<unsigned>(
        args.getUint("jobs", 0, std::numeric_limits<unsigned>::max()));
    const unsigned workers =
        jobs == 0 ? runner::defaultWorkers() : jobs;

    // Open the report file before the sweep so a bad path fails in
    // milliseconds, not after minutes of simulation.
    std::optional<std::ofstream> sweepOut;
    if (args.has("sweep-out"))
        sweepOut.emplace(cli::openOutput(args.get("sweep-out", "")));

    std::cout << "sweep '" << spec.name << "': " << spec.points()
              << " runs on " << workers << " worker"
              << (workers == 1 ? "" : "s") << "\n\n";

    obs::MetricRegistry registry;
    const auto outcomes = runner::runSweep(spec, jobs, &registry);

    TextTable table;
    table.header({"run", "energy (J)", "hit ratio", "mean resp (ms)",
                  "wall (ms)", "req/s"});
    for (const auto &o : outcomes) {
        table.row({o.label, fmt(o.result.totalEnergy, 1),
                   fmtPct(o.result.cache.hitRatio(), 1),
                   fmt(o.result.responses.mean() * 1000.0, 3),
                   fmt(o.wallMs, 1), fmt(o.requestsPerSec, 0)});
    }
    table.print(std::cout);

    const double sweepWall =
        registry.gauge("runner.sweep.wall_ms").value();
    std::cout << "\nsweep wall clock " << fmt(sweepWall, 1)
              << " ms, aggregate "
              << fmt(registry.gauge("runner.sweep.requests_per_sec")
                         .value(),
                     0)
              << " requests/s\n";

    if (sweepOut) {
        std::ofstream &out = *sweepOut;
        JsonWriter json(out);
        json.beginObject();
        json.key("build");
        writeBuildInfoJson(json);
        json.kv("sweep", spec.name);
        json.kv("jobs", workers);
        json.kv("wall_ms", sweepWall);
        // Cross-run distributions; all simulation-derived, so this
        // object is byte-identical for any --jobs (unlike the
        // wall-clock fields above).
        json.key("dist");
        json.beginObject();
        json.kv("requests_total",
                registry.gauge("runner.sweep.dist.requests_total")
                    .value());
        for (const char *group : {"energy_j", "hit_ratio"}) {
            json.key(group);
            json.beginObject();
            for (const char *leaf :
                 {"count", "mean", "p50", "p95", "p99", "min",
                  "max"}) {
                const std::string name =
                    std::string("runner.sweep.dist.") + group + '.' +
                    leaf;
                json.kv(leaf, registry.gauge(name).value());
            }
            json.endObject();
        }
        json.endObject();
        json.key("runs");
        json.beginArray();
        for (const auto &o : outcomes) {
            json.beginObject();
            json.kv("label", o.label);
            json.kv("policy", o.result.policyName);
            json.kv("total_energy_joules", o.result.totalEnergy);
            json.kv("hit_ratio", o.result.cache.hitRatio());
            json.kv("mean_response_s", o.result.responses.mean());
            json.kv("wall_ms", o.wallMs);
            json.kv("requests_per_sec", o.requestsPerSec);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        json.finish();
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const cli::Args args(argc, argv);
    std::set<std::string> known{
        "stream", "window", "oracle-mem-budget",
        "shards", "policy", "dpm",
        "write", "cache-blocks", "epoch",
        "opg-theta", "per-disk", "energy-ledger", "metrics-out",
        "trace-events", "timeline", "timeline-interval", "progress",
        "profile", "sweep", "sweep-out", "jobs"};
    known.insert(cli::workloadFlags().begin(),
                 cli::workloadFlags().end());
    if (cli::handleStandardFlags(args, "pacache_sim", kUsage, known))
        return 0;

    if (args.has("sweep")) {
        // The spec sets every point's options, so any other flag
        // would be silently ignored.
        const std::string bad =
            args.firstUnknown({"sweep", "sweep-out", "jobs"});
        if (!bad.empty())
            PACACHE_FATAL("--", bad, " does not apply to --sweep (only "
                          "--sweep-out and --jobs do; the spec sets "
                          "every run's options)");
        return runSweepMode(args);
    }

    // --stream skips materialization. Both paths compute the workload
    // line with one constant-memory scan, so their reports match byte
    // for byte.
    const bool streaming = args.has("stream");
    if (streaming && !args.has("trace"))
        PACACHE_FATAL("--stream requires --trace (generated workloads "
                      "are already in memory)");

    // Phase timing for the simulator's own pipeline; a null profiler
    // pointer (the default) keeps every ProfileScope a no-op.
    obs::Profiler profiler;
    const bool profiling = args.has("profile");
    obs::Profiler *const prof = profiling ? &profiler : nullptr;

    Trace trace;
    std::unique_ptr<tracefmt::TraceSource> source;
    tracefmt::ScanSummary st;
    {
        const obs::ProfileScope ingest(prof, "ingest");
        if (streaming) {
            const std::string path = args.get("trace", "");
            source = tracefmt::openTraceSource(
                path, tracefmt::parseTraceFormat(
                          args.get("trace-format", "auto")));
            st = tracefmt::scan(*source);
            if (st.records == 0)
                PACACHE_FATAL("trace '", path, "' has no records");
        } else {
            trace = cli::loadWorkload(args, "oltp");
            tracefmt::MemorySource src(trace);
            st = tracefmt::scan(src);
        }
    }

    ExperimentConfig cfg;
    cfg.policy = runner::parsePolicyKind(args.get("policy", "lru"));
    cfg.dpm = runner::parseDpmChoice(args.get("dpm", "practical"));
    cfg.storage.writePolicy =
        runner::parseWritePolicy(args.get("write", "wb"));
    cfg.cacheBlocks = args.getUint("cache-blocks", 1024);
    cfg.pa.epochLength = args.getDouble("epoch", 900.0);
    cfg.opgTheta = args.getDouble("opg-theta", -1.0);
    cfg.windowAccesses =
        static_cast<std::size_t>(args.getUint("window", 0));
    const uint64_t budget_mb = args.getUint("oracle-mem-budget", 0);
    if (budget_mb > (std::numeric_limits<std::size_t>::max() >> 20))
        PACACHE_FATAL("--oracle-mem-budget ", budget_mb,
                      " MiB does not fit in a byte count");
    cfg.oracleMemBudget = static_cast<std::size_t>(budget_mb) << 20;
    if (cfg.oracleMemBudget > 0 && cfg.policy != PolicyKind::OPG)
        PACACHE_FATAL("--oracle-mem-budget applies to --policy opg "
                      "only (Belady keeps O(capacity) state)");
    if (args.has("window")) {
        if (!policyNeedsNextUse(cfg.policy))
            PACACHE_FATAL("--window applies to --policy belady or opg "
                          "only");
        if (!streaming)
            PACACHE_FATAL("--window needs --stream (the in-memory path "
                          "builds the whole future in memory)");
    }

    // Observability sinks, attached only when requested; the null
    // observer default keeps the un-instrumented hot path unchanged.
    // Output files open before the run so a bad path fails fast, not
    // after hours of simulation.
    obs::SimObserver observer;
    obs::MetricRegistry registry;
    obs::TraceEventWriter trace_events;
    std::ofstream metrics_out, trace_out, timeline_out;
    std::unique_ptr<obs::TimelineWriter> timeline;
    bool observing = false;
    if (args.has("metrics-out")) {
        metrics_out = cli::openOutput(args.get("metrics-out", ""));
        observer.attachMetrics(&registry);
        observing = true;
    }
    if (args.has("trace-events")) {
        trace_out = cli::openOutput(args.get("trace-events", ""));
        observer.attachTrace(&trace_events);
        observing = true;
    }
    if (args.has("timeline")) {
        const std::string path = args.get("timeline", "");
        timeline_out = cli::openOutput(path);
        timeline = std::make_unique<obs::TimelineWriter>(
            timeline_out, obs::TimelineWriter::formatForPath(path));
        const double interval =
            args.getDouble("timeline-interval", 900.0);
        if (interval <= 0)
            PACACHE_FATAL("--timeline-interval must be positive, got ",
                          interval);
        observer.attachTimeline(timeline.get(), interval);
        observing = true;
    }
    if (args.has("progress")) {
        observer.enableProgress(std::cerr);
        observing = true;
    }
    if (observing)
        cfg.observer = &observer;
    cfg.profiler = prof;

    const unsigned shards = static_cast<unsigned>(
        args.getUint("shards", 0, std::numeric_limits<unsigned>::max()));
    if (shards > 0) {
        if (!streaming)
            PACACHE_FATAL("--shards needs --stream");
        if (source->pctPath().empty())
            PACACHE_FATAL("--shards needs a .pct trace (every shard "
                          "maps the file and reads its own records); "
                          "convert with pacache_tracectl first");
        if (observing)
            PACACHE_FATAL("--shards runs headless per-shard stacks; "
                          "drop the observability flags");
    }

    const auto wallStart = std::chrono::steady_clock::now();
    ExperimentResult r;
    if (shards > 0) {
        runner::ShardReplayOptions shard_opts;
        shard_opts.shards = shards;
        shard_opts.jobs = static_cast<unsigned>(args.getUint(
            "jobs", 0, std::numeric_limits<unsigned>::max()));
        r = runner::runShardedExperiment(source->pctPath(), cfg,
                                         shard_opts);
    } else {
        r = streaming ? runExperiment(*source, cfg)
                      : runExperiment(trace, cfg);
    }
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - wallStart;
    if (args.has("metrics-out")) {
        registry.gauge("run.wall_ms").set(wall.count());
        registry.gauge("run.requests_per_sec")
            .set(wall.count() > 0 ? static_cast<double>(st.records) *
                                        1000.0 / wall.count()
                                  : 0.0);
    }

    std::vector<std::string> mode_names;
    {
        const PowerModel pm(cfg.spec);
        for (std::size_t m = 0; m < pm.numModes(); ++m)
            mode_names.push_back(pm.mode(m).name);
    }
    obs::EnergyLedger ledger(mode_names);
    for (std::size_t d = 0; d < r.perDisk.size(); ++d)
        ledger.addDisk("disk" + std::to_string(d), r.perDisk[d]);
    if (r.logServiceEnergy != 0) {
        // The WTDU log device never parks; only its service energy
        // enters totalEnergy, so its ledger row is that single cell.
        EnergyStats log_stats(mode_names.size());
        log_stats.serviceEnergy = r.logServiceEnergy;
        ledger.addDisk("log", log_stats);
    }

    if (args.has("trace-events")) {
        // Closed profiler phases ride along on their own track; the
        // still-open report phase (below) is console-summary only.
        if (profiling)
            profiler.emitTrace(trace_events);
        trace_events.writeJson(trace_out);
    }
    if (args.has("metrics-out")) {
        const std::string path = args.get("metrics-out", "");
        std::ostream &out = metrics_out;
        if (cli::hasSuffix(path, ".txt")) {
            registry.writeText(out);
        } else if (cli::hasSuffix(path, ".prom")) {
            registry.writePrometheus(out);
        } else {
            writeMetricsJson(out, args, st, cfg, r, mode_names, ledger,
                             registry);
        }
    }
    if (timeline)
        timeline_out.flush();

    {
        const obs::ProfileScope report_scope(prof, "report");
        std::cout << "workload: " << st.records << " requests, "
                  << st.numDisks << " disks, "
                  << fmtPct(st.writeRatio(), 1)
                  << " writes, mean inter-arrival "
                  << fmt(st.meanInterArrival() * 1000.0, 2) << " ms\n";
        std::cout << "system:   policy " << r.policyName << ", dpm "
                  << args.get("dpm", "practical") << ", write "
                  << writePolicyName(cfg.storage.writePolicy)
                  << ", cache " << cfg.cacheBlocks << " blocks\n\n";

        printSummaryReport(std::cout, r);

        if (args.has("per-disk")) {
            std::cout << "\nper-disk breakdown:\n\n";
            printPerDiskReport(std::cout, r);
        }
        if (args.has("energy-ledger")) {
            std::cout << '\n';
            ledger.writeTable(std::cout);
        }
    }
    if (profiling) {
        std::cout << '\n';
        profiler.writeSummary(std::cout);
    }
    return 0;
} catch (const std::exception &e) {
    std::cerr << e.what() << '\n';
    return 1;
}
