/**
 * @file
 * Parallel-runner scaling: a fig6-style sweep (OLTP, five policies,
 * two DPM regimes) executed at increasing worker counts. The sweep is
 * embarrassingly parallel — one immutable trace shared by all runs,
 * results written to pre-assigned slots — so wall clock should shrink
 * near-linearly until the host runs out of cores. BENCH_sweep_scaling
 * .json records the wall clock and speedup at each job count; on a
 * single-core host the curve is flat, which the report makes visible
 * rather than hiding.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_report.hh"
#include "obs/metrics.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

runner::SweepSpec
scalingSpec()
{
    runner::SweepSpec spec;
    spec.name = "fig6-style-scaling";
    spec.workloads = {"oltp"};
    spec.policies = {PolicyKind::InfiniteCache, PolicyKind::Belady,
                     PolicyKind::OPG, PolicyKind::LRU,
                     PolicyKind::PALRU};
    spec.cacheBlocks = {1024};
    spec.dpms = {DpmChoice::Oracle, DpmChoice::Practical};
    spec.writePolicies = {WritePolicy::WriteBack};
    spec.duration = 1800; // quarter of the paper's 2-hour OLTP run
    return spec;
}

} // namespace

int
main()
{
    const runner::SweepSpec spec = scalingSpec();
    const runner::SweepPlan plan(spec);

    const unsigned hw = runner::defaultWorkers();
    std::vector<unsigned> jobLevels{1, 2, 4};
    if (std::find(jobLevels.begin(), jobLevels.end(), hw) ==
        jobLevels.end())
        jobLevels.push_back(hw);

    std::cout << "=== sweep scaling: " << plan.points().size()
              << " runs, host has " << hw << " hardware thread"
              << (hw == 1 ? "" : "s") << " ===\n\n";

    uint64_t requestsPerSweep = 0;
    for (const auto &p : plan.points())
        requestsPerSweep += p.trace->size();

    benchsupport::BenchReport report("sweep_scaling", hw);
    TextTable t;
    t.header({"jobs", "wall (ms)", "speedup vs 1", "req/s"});

    double serialWall = 0;
    for (const unsigned jobs : jobLevels) {
        obs::MetricRegistry metrics;
        runner::runAll(plan.points(), jobs, &metrics);
        const double wall =
            metrics.gauge("runner.sweep.wall_ms").value();
        if (jobs == 1)
            serialWall = wall;
        const double speedup = wall > 0 ? serialWall / wall : 0.0;
        t.row({std::to_string(jobs), fmt(wall, 1), fmt(speedup, 2),
               fmt(wall > 0 ? static_cast<double>(requestsPerSweep) *
                                  1000.0 / wall
                            : 0.0,
                   0)});
        report.addRun("jobs" + std::to_string(jobs), wall,
                      requestsPerSweep);
        report.metric("speedup_jobs" + std::to_string(jobs), speedup);
    }
    t.print(std::cout);
    std::cout << '\n';

    report.metric("hardware_threads", hw);
    report.write();
    return 0;
}
