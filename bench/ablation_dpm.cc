/**
 * @file
 * Ablation: how the disk-level power-management scheme interacts
 * with cache-level power awareness. Crosses the DPM regimes
 * (always-on, adaptive timeout, 2-competitive threshold walk,
 * off-line Oracle) with LRU and PA-LRU on the OLTP workload.
 *
 * Expected shape: without any DPM the cache policy barely matters
 * for energy; the better the DPM, the bigger PA-LRU's edge — cache
 * power-awareness and disk power management are complements, which
 * is the paper's core premise.
 *
 * All 8 runs execute in parallel through runner::runAll
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

const std::vector<DpmChoice> kDpms{
    DpmChoice::AlwaysOn, DpmChoice::Adaptive, DpmChoice::Practical,
    DpmChoice::Oracle};

runner::RunPoint
point(const Trace &trace, PolicyKind policy, DpmChoice dpm)
{
    runner::RunPoint p;
    p.label = std::string(runner::dpmChoiceName(dpm)) + "/" +
              policyKindName(policy);
    p.trace = &trace;
    p.config.policy = policy;
    p.config.dpm = dpm;
    p.config.cacheBlocks = 1024;
    p.config.pa.epochLength = 900;
    return p;
}

} // namespace

int
main()
{
    OltpParams params;
    params.duration = 3600;
    const Trace trace = makeOltpTrace(params);

    // Point order: DPM-major, LRU then PA-LRU within each regime.
    std::vector<runner::RunPoint> points;
    for (DpmChoice dpm : kDpms) {
        points.push_back(point(trace, PolicyKind::LRU, dpm));
        points.push_back(point(trace, PolicyKind::PALRU, dpm));
    }
    const auto outcomes =
        runner::runAll(points, benchsupport::jobsFromEnv());

    std::cout << "=== Ablation: DPM regime x cache policy (OLTP) "
                 "===\n\n";
    TextTable t;
    t.header({"DPM", "LRU (J)", "PA-LRU (J)", "PA-LRU saving",
              "LRU resp (ms)", "PA-LRU resp (ms)"});
    for (std::size_t i = 0; i < kDpms.size(); ++i) {
        const ExperimentResult &lru = outcomes[2 * i].result;
        const ExperimentResult &pa = outcomes[2 * i + 1].result;
        t.row({runner::dpmChoiceName(kDpms[i]),
               fmt(lru.totalEnergy, 0), fmt(pa.totalEnergy, 0),
               fmtPct(1.0 - pa.totalEnergy / lru.totalEnergy, 1),
               fmt(lru.responses.mean() * 1000.0, 2),
               fmt(pa.responses.mean() * 1000.0, 2)});
    }
    t.print(std::cout);

    std::cout << "\nOracle response times equal the always-on ones "
                 "(just-in-time spin-up);\nadaptive vs practical "
                 "trades a simpler controller for slightly worse "
                 "energy.\n";

    benchsupport::BenchReport report("ablation_dpm",
                                     benchsupport::jobsFromEnv());
    for (const auto &o : outcomes)
        report.addRun(o.label, o.wallMs, trace.size());
    report.write();
    return 0;
}
