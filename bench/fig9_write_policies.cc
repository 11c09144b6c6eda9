/**
 * @file
 * Paper Figure 9: effects of storage-cache write policies on disk
 * energy, as percentage savings relative to write-through (WT),
 * under Practical DPM with an LRU cache:
 *
 *  (a1)(b1)(c1)  WB / WBEU / WTDU vs write ratio 0..1 at 250 ms mean
 *                inter-arrival, Exponential and Pareto arrivals;
 *  (a2)(b2)(c2)  the same vs mean inter-arrival 10..10000 ms at
 *                write ratio 0.5.
 *
 * Paper shapes: WB saves up to ~20% at 100% writes; WBEU up to
 * ~60-65%; WTDU up to ~55% while retaining WT persistency; benefits
 * shrink at low write ratios; WB peaks at mid inter-arrival times.
 *
 * The full grid — 30 synthetic traces x 4 write policies = 120
 * independent runs — executes in parallel through runner::runAll
 * (PACACHE_JOBS overrides the worker count); the tables consume the
 * outcomes in grid order, so they are identical to the old serial
 * driver's.
 */

#include <iostream>
#include <vector>

#include "bench_report.hh"
#include "core/experiment.hh"
#include "obs/energy_ledger.hh"
#include "runner/sweep.hh"
#include "util/logging.hh"
#include "trace/synthetic.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

const std::vector<WritePolicy> kWritePolicies{
    WritePolicy::WriteThrough, WritePolicy::WriteBack,
    WritePolicy::WriteBackEagerUpdate,
    WritePolicy::WriteThroughDeferredUpdate};

const std::vector<double> kWriteRatios{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
const std::vector<double> kInterArrivals{
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0, 10000.0};

Trace
makeTrace(double write_ratio, double interarrival_ms, bool pareto,
          uint64_t seed)
{
    SyntheticParams p;
    p.numRequests = 20000;
    p.writeRatio = write_ratio;
    p.arrival = pareto ? ArrivalModel::pareto(interarrival_ms, 1.5)
                       : ArrivalModel::exponential(interarrival_ms);
    p.seed = seed;
    return generateSynthetic(p);
}

struct Savings
{
    double wb, wbeu, wtdu;
};

/**
 * The trace grid: the write-ratio panel's traces first (ratio-major,
 * exponential before Pareto), then the inter-arrival panel's, so the
 * flat run order is (trace, write policy) in table order.
 */
class Grid
{
  public:
    Grid()
    {
        traces.reserve(2 * (kWriteRatios.size() +
                            kInterArrivals.size()));
        for (double w : kWriteRatios) {
            traces.push_back(makeTrace(w, 250.0, false, 21));
            traces.push_back(makeTrace(w, 250.0, true, 22));
        }
        for (double ms : kInterArrivals) {
            traces.push_back(makeTrace(0.5, ms, false, 23));
            traces.push_back(makeTrace(0.5, ms, true, 24));
        }
        for (std::size_t ti = 0; ti < traces.size(); ++ti) {
            for (WritePolicy wp : kWritePolicies) {
                runner::RunPoint p;
                p.label = "trace" + std::to_string(ti) + "/" +
                          runner::writePolicyCliName(wp);
                p.trace = &traces[ti];
                p.config.policy = PolicyKind::LRU;
                p.config.dpm = DpmChoice::Practical;
                p.config.cacheBlocks = 4096;
                p.config.storage.writePolicy = wp;
                runPoints.push_back(std::move(p));
            }
        }
    }

    const std::vector<runner::RunPoint> &points() const
    {
        return runPoints;
    }

    /** Savings vs WT for the grid's @p trace_idx-th trace. */
    Savings
    savings(const std::vector<runner::RunOutcome> &outcomes,
            std::size_t trace_idx) const
    {
        const auto energy = [&](std::size_t wp) {
            return outcomes[trace_idx * kWritePolicies.size() + wp]
                .result.totalEnergy;
        };
        const double wt = energy(0);
        return Savings{1.0 - energy(1) / wt, 1.0 - energy(2) / wt,
                       1.0 - energy(3) / wt};
    }

  private:
    std::vector<Trace> traces;
    std::vector<runner::RunPoint> runPoints;
};

void
writeRatioPanel(const Grid &grid,
                const std::vector<runner::RunOutcome> &outcomes)
{
    std::cout << "--- Figure 9 (a1)(b1)(c1): savings vs write ratio "
                 "(inter-arrival 250 ms) ---\n\n";
    TextTable t;
    t.header({"write ratio", "WB exp", "WB par", "WBEU exp",
              "WBEU par", "WTDU exp", "WTDU par"});
    for (std::size_t i = 0; i < kWriteRatios.size(); ++i) {
        const Savings e = grid.savings(outcomes, 2 * i);
        const Savings p = grid.savings(outcomes, 2 * i + 1);
        t.row({fmt(kWriteRatios[i], 1), fmtPct(e.wb, 1),
               fmtPct(p.wb, 1), fmtPct(e.wbeu, 1), fmtPct(p.wbeu, 1),
               fmtPct(e.wtdu, 1), fmtPct(p.wtdu, 1)});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
interArrivalPanel(const Grid &grid,
                  const std::vector<runner::RunOutcome> &outcomes)
{
    std::cout << "--- Figure 9 (a2)(b2)(c2): savings vs mean "
                 "inter-arrival time (write ratio 0.5) ---\n\n";
    TextTable t;
    t.header({"inter-arrival (ms)", "WB exp", "WB par", "WBEU exp",
              "WBEU par", "WTDU exp", "WTDU par"});
    const std::size_t base = 2 * kWriteRatios.size();
    for (std::size_t i = 0; i < kInterArrivals.size(); ++i) {
        const Savings e = grid.savings(outcomes, base + 2 * i);
        const Savings p = grid.savings(outcomes, base + 2 * i + 1);
        t.row({fmt(kInterArrivals[i], 0), fmtPct(e.wb, 1),
               fmtPct(p.wb, 1), fmtPct(e.wbeu, 1), fmtPct(p.wbeu, 1),
               fmtPct(e.wtdu, 1), fmtPct(p.wtdu, 1)});
    }
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main()
{
    std::cout << "=== Figure 9: write policies vs disk energy "
                 "(savings relative to WT, Practical DPM) ===\n\n";
    const Grid grid;
    const auto outcomes =
        runner::runAll(grid.points(), benchsupport::jobsFromEnv());

    // Figure points must satisfy the energy-attribution ledger's
    // conservation invariant (rows sum back to the energy totals).
    for (const auto &o : outcomes) {
        const double err = obs::ledgerMaxRelError(o.result.perDisk);
        PACACHE_ASSERT(err <= obs::kLedgerConservationTol,
                       "ledger conservation violated at '", o.label,
                       "' (rel error ", err, ")");
    }
    writeRatioPanel(grid, outcomes);
    interArrivalPanel(grid, outcomes);

    benchsupport::BenchReport report("fig9_write_policies",
                                     benchsupport::jobsFromEnv());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        report.addRun(outcomes[i].label, outcomes[i].wallMs,
                      grid.points()[i].trace->size());
    report.write();
    return 0;
}
