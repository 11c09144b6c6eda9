/**
 * @file
 * Paper Figure 8: percentage energy savings of PA-LRU over LRU as a
 * function of the spin-up cost (energy for the standby -> active
 * transition), swept over {33.75, 67.5, 101.25, 135, 202.5, 270,
 * 675} J as in the paper. Savings should be fairly stable across the
 * 67.5-270 J range of real SCSI disks and fall off at both extremes.
 *
 * All 14 runs execute in parallel through runner::runAll
 * (PACACHE_JOBS overrides the worker count).
 */

#include <iostream>
#include <vector>

#include "bench_report.hh"
#include "core/experiment.hh"
#include "obs/energy_ledger.hh"
#include "runner/sweep.hh"
#include "util/logging.hh"
#include "trace/workloads.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

const std::vector<Energy> kSpinUpCosts{33.75,  67.5,  101.25, 135.0,
                                       202.5, 270.0, 675.0};

runner::RunPoint
point(const Trace &trace, Energy spinup_cost, PolicyKind policy)
{
    runner::RunPoint p;
    p.label = std::string(policyKindName(policy)) + "/spinup" +
              fmt(spinup_cost, 2) + "J";
    p.trace = &trace;
    p.config.policy = policy;
    p.config.dpm = DpmChoice::Practical;
    p.config.cacheBlocks = 1024;
    p.config.pa.epochLength = 900;
    p.config.spec.spinUpEnergy = spinup_cost;
    return p;
}

} // namespace

int
main()
{
    std::cout << "=== Figure 8: PA-LRU energy savings vs spin-up cost "
                 "(OLTP) ===\n\n";

    OltpParams params;
    params.duration = 3600; // half the full trace: sweep is 14 runs
    const Trace trace = makeOltpTrace(params);

    // Point order: cost-major, LRU then PA-LRU within each cost.
    std::vector<runner::RunPoint> points;
    for (Energy cost : kSpinUpCosts) {
        points.push_back(point(trace, cost, PolicyKind::LRU));
        points.push_back(point(trace, cost, PolicyKind::PALRU));
    }
    const auto outcomes =
        runner::runAll(points, benchsupport::jobsFromEnv());

    // Figure points must satisfy the energy-attribution ledger's
    // conservation invariant (rows sum back to the energy totals).
    for (const auto &o : outcomes) {
        const double err = obs::ledgerMaxRelError(o.result.perDisk);
        PACACHE_ASSERT(err <= obs::kLedgerConservationTol,
                       "ledger conservation violated at '", o.label,
                       "' (rel error ", err, ")");
    }

    TextTable t;
    t.header({"Spin-up cost (J)", "Energy savings over LRU"});
    for (std::size_t i = 0; i < kSpinUpCosts.size(); ++i) {
        const double lru = outcomes[2 * i].result.totalEnergy;
        const double pa = outcomes[2 * i + 1].result.totalEnergy;
        t.row({fmt(kSpinUpCosts[i], 2), fmtPct(1.0 - pa / lru, 1)});
    }
    t.print(std::cout);

    std::cout << "\nPaper shape: stable savings across 67.5-270 J "
                 "(real SCSI disks), smaller at both extremes —\n"
                 "cheap spin-ups mean LRU also sleeps; expensive "
                 "spin-ups push thresholds past the available gaps.\n";

    benchsupport::BenchReport report("fig8_spinup",
                                     benchsupport::jobsFromEnv());
    for (const auto &o : outcomes)
        report.addRun(o.label, o.wallMs, trace.size());
    report.write();
    return 0;
}
