/**
 * @file
 * Ablations and extensions beyond the paper's headline figures:
 *   1. every replacement policy (on-line and off-line) on the OLTP
 *      workload — including PA-ARC, the PA technique wrapped around
 *      ARC as Section 4 suggests;
 *   2. OPG's theta knob, sweeping from pure OPG (theta = 0) toward
 *      Belady (theta -> infinity);
 *   3. PA-LRU's epoch length, the main classifier design choice.
 *
 * The whole grid executes in parallel through runner::runAll
 * (PACACHE_JOBS overrides the worker count). Runs shared between
 * panels — ablation 2's Belady row and ablation 3's 900 s epoch are
 * the same configurations as ablation 1's — run once and are read by
 * both tables.
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

const std::vector<PolicyKind> kPolicies{
    PolicyKind::LRU,  PolicyKind::FIFO,   PolicyKind::CLOCK,
    PolicyKind::ARC,  PolicyKind::MQ,     PolicyKind::LIRS,
    PolicyKind::Belady, PolicyKind::OPG,  PolicyKind::PALRU,
    PolicyKind::PAARC, PolicyKind::PALIRS};
const std::vector<Energy> kThetas{0.0,  5.0,   15.0, 29.6,
                                  60.0, 150.0, 1e6};
// 900 s sits in kPolicies' PA-LRU run; only the others are new.
const std::vector<Time> kExtraEpochs{60.0, 300.0, 1800.0, 3600.0};

constexpr std::size_t kBeladyIdx = 6; //!< within kPolicies
constexpr std::size_t kPaLruIdx = 8;  //!< within kPolicies

runner::RunPoint
oltpPoint(const Trace &trace, const std::string &label,
          ExperimentConfig cfg)
{
    runner::RunPoint p;
    p.label = label;
    p.trace = &trace;
    cfg.dpm = DpmChoice::Practical;
    cfg.cacheBlocks = 1024;
    if (cfg.pa.epochLength == PaParams{}.epochLength)
        cfg.pa.epochLength = 900;
    p.config = cfg;
    return p;
}

} // namespace

int
main()
{
    OltpParams params;
    params.duration = 3600;
    const Trace trace = makeOltpTrace(params);
    const OpgShowcaseParams sp;
    const Trace showcase = makeOpgShowcaseTrace(sp);

    // Flat point list: ablation 1's policies, ablation 2's thetas,
    // ablation 3's extra epochs, ablation 4's showcase pair.
    std::vector<runner::RunPoint> points;
    for (PolicyKind k : kPolicies) {
        ExperimentConfig cfg;
        cfg.policy = k;
        points.push_back(
            oltpPoint(trace, std::string("a1/") + policyKindName(k),
                      cfg));
    }
    const std::size_t theta0 = points.size();
    for (Energy theta : kThetas) {
        ExperimentConfig cfg;
        cfg.policy = PolicyKind::OPG;
        cfg.opgTheta = theta;
        points.push_back(
            oltpPoint(trace, "a2/theta" + fmt(theta, 1), cfg));
    }
    const std::size_t epoch0 = points.size();
    for (Time epoch : kExtraEpochs) {
        ExperimentConfig cfg;
        cfg.policy = PolicyKind::PALRU;
        cfg.pa.epochLength = epoch;
        points.push_back(
            oltpPoint(trace, "a3/epoch" + fmt(epoch, 0), cfg));
    }
    const std::size_t showcase0 = points.size();
    for (PolicyKind k : {PolicyKind::Belady, PolicyKind::OPG}) {
        runner::RunPoint p;
        p.label = std::string("a4/") + policyKindName(k);
        p.trace = &showcase;
        p.config.policy = k;
        p.config.dpm = DpmChoice::Practical;
        p.config.cacheBlocks = sp.suggestedCacheBlocks();
        points.push_back(std::move(p));
    }

    const auto outcomes =
        runner::runAll(points, benchsupport::jobsFromEnv());

    std::cout << "=== Ablation 1: all replacement policies (OLTP, "
                 "Practical DPM) ===\n\n";
    {
        TextTable t;
        t.header({"Policy", "Energy (J)", "vs LRU", "Miss ratio",
                  "Mean resp (ms)", "Spin-ups"});
        const double lru_energy = outcomes[0].result.totalEnergy;
        for (std::size_t i = 0; i < kPolicies.size(); ++i) {
            const ExperimentResult &r = outcomes[i].result;
            t.row({r.policyName, fmt(r.totalEnergy, 0),
                   fmt(r.totalEnergy / lru_energy, 3),
                   fmt(1.0 - r.cache.hitRatio(), 3),
                   fmt(r.responses.mean() * 1000.0, 2),
                   std::to_string(r.energy.spinUps)});
        }
        t.print(std::cout);
    }

    std::cout << "\n=== Ablation 2: OPG theta (0 = pure OPG ... large "
                 "= Belady) ===\n\n";
    {
        TextTable t;
        t.header({"theta (J)", "Energy (J)", "Miss ratio"});
        for (std::size_t i = 0; i < kThetas.size(); ++i) {
            const ExperimentResult &r = outcomes[theta0 + i].result;
            t.row({fmt(kThetas[i], 1), fmt(r.totalEnergy, 0),
                   fmt(1.0 - r.cache.hitRatio(), 4)});
        }
        const ExperimentResult &belady = outcomes[kBeladyIdx].result;
        t.row({"Belady", fmt(belady.totalEnergy, 0),
               fmt(1.0 - belady.cache.hitRatio(), 4)});
        t.print(std::cout);
    }

    std::cout << "\n=== Ablation 3: PA-LRU epoch length ===\n\n";
    {
        TextTable t;
        t.header({"epoch (s)", "Energy (J)", "Mean resp (ms)"});
        const auto row = [&](Time epoch, const ExperimentResult &r) {
            t.row({fmt(epoch, 0), fmt(r.totalEnergy, 0),
                   fmt(r.responses.mean() * 1000.0, 2)});
        };
        row(60.0, outcomes[epoch0 + 0].result);
        row(300.0, outcomes[epoch0 + 1].result);
        row(900.0, outcomes[kPaLruIdx].result);
        row(1800.0, outcomes[epoch0 + 2].result);
        row(3600.0, outcomes[epoch0 + 3].result);
        t.print(std::cout);
    }

    std::cout << "\n=== Ablation 4: OPG mechanism showcase "
                 "(generalized Figure 3) ===\n\n"
              << "Two disks, deterministic cycles; the cache cannot "
                 "hold both working sets.\nBelady evicts by forward "
                 "distance (the sleepy disk's blocks); OPG trades "
                 "misses\non the always-active disk for sleep on the "
                 "other.\n\n";
    {
        TextTable t;
        t.header({"Policy", "Misses", "Energy (J)",
                  "sleepy-disk spin-ups", "sleepy-disk standby (s)"});
        for (std::size_t i = 0; i < 2; ++i) {
            const ExperimentResult &r = outcomes[showcase0 + i].result;
            t.row({r.policyName, std::to_string(r.cache.misses),
                   fmt(r.totalEnergy, 0),
                   std::to_string(r.perDisk[1].spinUps),
                   fmt(r.perDisk[1].timePerMode.back(), 0)});
        }
        t.print(std::cout);
    }

    benchsupport::BenchReport report("ablation_policies",
                                     benchsupport::jobsFromEnv());
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        report.addRun(outcomes[i].label, outcomes[i].wallMs,
                      points[i].trace->size());
    report.write();
    return 0;
}
