/**
 * @file
 * Ablation: sequential prefetch degree (the paper's future-work
 * extension, in the spirit of Papathanasiou & Scott's "increasing
 * disk burstiness"). A scan-heavy synthetic workload is swept over
 * prefetch degrees: each fetched run lets the disk sleep through the
 * following re-references, trading a longer transfer for fewer
 * wake-ups.
 *
 * All 5 runs execute in parallel through runner::runAll
 * (PACACHE_JOBS overrides the worker count).
 */

#include <iostream>
#include <vector>

#include "bench_report.hh"
#include "core/experiment.hh"
#include "runner/sweep.hh"
#include "trace/synthetic.hh"
#include "util/table.hh"

using namespace pacache;

namespace
{

Trace
scanTrace()
{
    // Mostly-sequential trace: 10 disks, sparse arrivals so power
    // management has room to act.
    SyntheticParams p;
    p.numRequests = 20000;
    p.numDisks = 10;
    p.arrival = ArrivalModel::pareto(400.0, 1.5);
    p.writeRatio = 0.1;
    p.address.seqProb = 0.7;
    p.address.localProb = 0.1;
    p.address.reuseProb = 0.2;
    p.address.footprintBlocks = 1u << 20;
    return generateSynthetic(p);
}

} // namespace

int
main()
{
    const Trace trace = scanTrace();
    const std::vector<uint32_t> degrees{0, 2, 8, 32, 128};

    std::vector<runner::RunPoint> points;
    for (uint32_t degree : degrees) {
        runner::RunPoint p;
        p.label = "degree" + std::to_string(degree);
        p.trace = &trace;
        p.config.cacheBlocks = 4096;
        p.config.storage.prefetchBlocks = degree;
        points.push_back(std::move(p));
    }
    const auto outcomes =
        runner::runAll(points, benchsupport::jobsFromEnv());

    std::cout << "=== Ablation: sequential prefetch degree "
                 "(scan-heavy workload, LRU, Practical DPM) ===\n\n";
    TextTable t;
    t.header({"degree", "Energy (J)", "vs none", "Mean resp (ms)",
              "Disk accesses", "Prefetched blocks", "Hit ratio"});
    const double base = outcomes[0].result.totalEnergy;
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        const ExperimentResult &r = outcomes[i].result;
        uint64_t accesses = 0;
        for (uint64_t a : r.diskAccesses)
            accesses += a;
        t.row({std::to_string(degrees[i]), fmt(r.totalEnergy, 0),
               fmt(r.totalEnergy / base, 3),
               fmt(r.responses.mean() * 1000.0, 2),
               std::to_string(accesses),
               std::to_string(r.prefetchedBlocks),
               fmt(r.cache.hitRatio(), 3)});
    }
    t.print(std::cout);

    std::cout << "\nDiminishing returns set in once runs outlast the "
                 "sequential locality; very large degrees\nwaste "
                 "transfer energy and cache space on blocks that are "
                 "never referenced.\n";

    benchsupport::BenchReport report("ablation_prefetch",
                                     benchsupport::jobsFromEnv());
    for (const auto &o : outcomes)
        report.addRun(o.label, o.wallMs, trace.size());
    report.write();
    return 0;
}
