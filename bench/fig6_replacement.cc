/**
 * @file
 * Paper Figure 6: effects of power-aware cache replacement.
 *  (a) disk energy, OLTP trace, Oracle and Practical DPM,
 *  (b) disk energy, Cello96 trace, Oracle and Practical DPM,
 *  (c) average response time under Practical DPM,
 * for InfiniteCache / Belady / OPG / LRU / PA-LRU, normalized to LRU
 * exactly as the paper plots them.
 *
 * Paper shapes to look for: OPG saves 2-9% over Belady; PA-LRU saves
 * ~16% energy and ~50% response time over LRU on OLTP but only a few
 * percent on Cello96 (cold-miss dominated); the infinite cache lower-
 * bounds everything under Oracle DPM.
 *
 * All points run in parallel through runner::runAll (PACACHE_JOBS
 * overrides the worker count); the tables are identical to the old
 * serial driver because results are consumed in spec order.
 */

#include <iostream>

#include "bench_report.hh"
#include "core/experiment.hh"
#include "obs/energy_ledger.hh"
#include "runner/sweep.hh"
#include "trace/stats.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

struct TraceSetup
{
    const char *name;
    Trace trace;
    std::size_t cacheBlocks;
    Time epoch;
};

const std::vector<PolicyKind> kPolicies{
    PolicyKind::InfiniteCache, PolicyKind::Belady, PolicyKind::OPG,
    PolicyKind::LRU, PolicyKind::PALRU};
const std::vector<DpmChoice> kDpms{DpmChoice::Oracle,
                                   DpmChoice::Practical};

/** Flat index for (setup, policy, dpm) into the run-point list. */
std::size_t
pointIndex(std::size_t setup, std::size_t policy, std::size_t dpm)
{
    return (setup * kPolicies.size() + policy) * kDpms.size() + dpm;
}

void
energyPanel(const TraceSetup &setup, std::size_t setup_idx,
            const std::vector<runner::RunOutcome> &outcomes)
{
    std::cout << "--- Figure 6 energy: " << setup.name
              << " (normalized to LRU) ---\n\n";
    TextTable t;
    t.header({"Policy", "Oracle DPM", "Practical DPM",
              "Oracle (J)", "Practical (J)"});

    const auto energy = [&](std::size_t policy, std::size_t dpm) {
        return outcomes[pointIndex(setup_idx, policy, dpm)]
            .result.totalEnergy;
    };
    const double lru_o = energy(3, 0), lru_p = energy(3, 1);
    for (std::size_t i = 0; i < kPolicies.size(); ++i) {
        t.row({policyKindName(kPolicies[i]),
               fmt(energy(i, 0) / lru_o, 3),
               fmt(energy(i, 1) / lru_p, 3), fmt(energy(i, 0), 0),
               fmt(energy(i, 1), 0)});
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
responsePanel(const std::vector<TraceSetup> &setups,
              const std::vector<runner::RunOutcome> &outcomes)
{
    std::cout << "--- Figure 6 (c): average response time, Practical "
                 "DPM (normalized to LRU) ---\n\n";
    TextTable t;
    std::vector<std::string> head{"Policy"};
    for (const auto &s : setups) {
        head.push_back(std::string(s.name) + " (norm)");
        head.push_back(std::string(s.name) + " (ms)");
    }
    t.header(head);

    const auto mean = [&](std::size_t setup, std::size_t policy) {
        return outcomes[pointIndex(setup, policy, 1)]
            .result.responses.mean();
    };
    for (std::size_t i = 0; i < kPolicies.size(); ++i) {
        if (kPolicies[i] == PolicyKind::InfiniteCache)
            continue; // the paper's 6(c) omits it
        std::vector<std::string> cells{policyKindName(kPolicies[i])};
        for (std::size_t s = 0; s < setups.size(); ++s) {
            cells.push_back(fmt(mean(s, i) / mean(s, 3), 3));
            cells.push_back(fmt(mean(s, i) * 1000.0, 2));
        }
        t.row(cells);
    }
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main()
{
    std::cout << "=== Figure 6: power-aware cache replacement ===\n\n";

    std::vector<TraceSetup> setups;
    setups.push_back({"OLTP", makeOltpTrace(), 1024, 900});

    CelloParams cp;
    cp.duration = 300;
    setups.push_back({"Cello96", makeCelloTrace(cp), 256, 60});

    for (const auto &s : setups) {
        const TraceStats st = characterize(s.trace);
        std::cout << s.name << ": " << st.requests << " requests, "
                  << st.disks << " disks, cache " << s.cacheBlocks
                  << " blocks\n";
    }
    std::cout << '\n';

    std::vector<runner::RunPoint> points;
    for (const auto &s : setups) {
        for (PolicyKind policy : kPolicies) {
            for (DpmChoice dpm : kDpms) {
                runner::RunPoint p;
                p.label = std::string(s.name) + "/" +
                          policyKindName(policy) + "/" +
                          runner::dpmChoiceName(dpm);
                p.trace = &s.trace;
                p.config.policy = policy;
                p.config.dpm = dpm;
                p.config.cacheBlocks = s.cacheBlocks;
                p.config.pa.epochLength = s.epoch;
                points.push_back(std::move(p));
            }
        }
    }
    const auto outcomes =
        runner::runAll(points, benchsupport::jobsFromEnv());

    // Every figure point must satisfy the energy-attribution ledger's
    // conservation invariant; a violation means the published numbers
    // would not decompose.
    for (const auto &o : outcomes) {
        const double err = obs::ledgerMaxRelError(o.result.perDisk);
        PACACHE_ASSERT(err <= obs::kLedgerConservationTol,
                       "ledger conservation violated at '", o.label,
                       "' (rel error ", err, ")");
    }

    for (std::size_t s = 0; s < setups.size(); ++s)
        energyPanel(setups[s], s, outcomes);
    responsePanel(setups, outcomes);

    benchsupport::BenchReport report("fig6_replacement",
                                     benchsupport::jobsFromEnv());
    for (std::size_t i = 0; i < points.size(); ++i)
        report.addRun(outcomes[i].label, outcomes[i].wallMs,
                      points[i].trace->size());
    report.write();
    return 0;
}
