/**
 * @file
 * Ablation: the two multi-speed service disciplines the paper
 * discusses (Section 2.1). Option 1 (Carrera & Bianchini / DRPM):
 * serve requests at whatever speed the platters are at — slower
 * service, no spin-up. Option 2 (the paper's choice): always spin up
 * to full speed first — fast service, expensive transitions.
 *
 * Crossed with LRU and PA-LRU on the OLTP workload under Practical
 * DPM. Observed shape: option 1 roughly halves energy for both
 * policies and all but erases PA-LRU's edge (it can even invert) —
 * power-aware caching earns its keep by avoiding spin-ups, and
 * option 1 removes most spin-ups by construction. This supports the
 * paper's choice of option 2 as the regime where cache policy
 * matters.
 *
 * All 4 runs execute in parallel through runner::runAll
 * (PACACHE_JOBS overrides the worker count).
 */

#include <iostream>
#include <vector>

#include "bench_report.hh"
#include "core/experiment.hh"
#include "runner/sweep.hh"
#include "trace/workloads.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

runner::RunPoint
point(const Trace &trace, PolicyKind policy, bool serve_low)
{
    runner::RunPoint p;
    p.label = std::string(serve_low ? "serve-at-speed" : "spin-up") +
              "/" + policyKindName(policy);
    p.trace = &trace;
    p.config.policy = policy;
    p.config.dpm = DpmChoice::Practical;
    p.config.cacheBlocks = 1024;
    p.config.pa.epochLength = 900;
    p.config.disk.serveAtLowSpeed = serve_low;
    return p;
}

} // namespace

int
main()
{
    OltpParams params;
    params.duration = 3600;
    const Trace trace = makeOltpTrace(params);

    std::vector<runner::RunPoint> points;
    for (bool low : {false, true}) {
        points.push_back(point(trace, PolicyKind::LRU, low));
        points.push_back(point(trace, PolicyKind::PALRU, low));
    }
    const auto outcomes =
        runner::runAll(points, benchsupport::jobsFromEnv());

    std::cout << "=== Ablation: multi-speed service discipline "
                 "(OLTP, Practical DPM) ===\n\n";
    TextTable t;
    t.header({"Discipline", "Policy", "Energy (J)", "Mean resp (ms)",
              "p95 resp (ms)", "Spin-ups"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const ExperimentResult &r = outcomes[i].result;
        t.row({i < 2 ? "spin-up (opt 2)" : "serve-at-speed (opt 1)",
               r.policyName, fmt(r.totalEnergy, 0),
               fmt(r.responses.mean() * 1000.0, 2),
               fmt(r.responses.percentile(0.95) * 1000.0, 2),
               std::to_string(r.energy.spinUps)});
    }
    t.print(std::cout);

    std::cout << "\nOption 1 removes most spin-ups outright, so the "
                 "remaining policy gap isolates the\ninterval-"
                 "stretching benefit of power-aware caching from the "
                 "spin-up-avoidance benefit.\n";

    benchsupport::BenchReport report("ablation_multispeed",
                                     benchsupport::jobsFromEnv());
    for (const auto &o : outcomes)
        report.addRun(o.label, o.wallMs, trace.size());
    report.write();
    return 0;
}
