#include "qa/trace_gen.hh"

namespace pacache::qa
{

Gen<SyntheticParams>
genTraceParams(const CaseProfile &profile)
{
    return Gen<SyntheticParams>([profile](Rng &rng) {
        SyntheticParams p;
        p.numRequests =
            intIn(profile.minRequests, profile.maxRequests)(rng);
        p.numDisks = static_cast<uint32_t>(
            intIn(profile.minDisks, profile.maxDisks)(rng));

        // Arrival process: Poisson or bursty Pareto, spanning dense
        // (10 ms) to sparse (5 s) mean inter-arrivals — sparse tails
        // are where disks actually reach the deep power modes.
        const double mean_ms = realIn(10.0, 5000.0)(rng);
        p.arrival = boolWith(0.5)(rng)
            ? ArrivalModel::pareto(mean_ms, realIn(1.1, 1.9)(rng))
            : ArrivalModel::exponential(mean_ms);

        p.writeRatio = elementOf<double>({0.0, 0.05, 0.2, 0.5, 0.8,
                                          1.0})(rng);

        // Spatial/temporal locality: tight footprints force eviction
        // pressure; the Zipf knobs sweep weak to strong reuse.
        p.address.footprintBlocks = intIn(32, 2048)(rng);
        p.address.seqProb = realIn(0.0, 0.4)(rng);
        p.address.localProb = realIn(0.0, 0.4)(rng);
        p.address.maxLocalDistance =
            static_cast<uint32_t>(intIn(1, 200)(rng));
        p.address.reuseProb = realIn(0.0, 0.9)(rng);
        p.address.zipfTheta = realIn(0.0, 1.2)(rng);
        p.address.stackSize = 1u << intIn(4, 10)(rng);

        // Multi-disk skew: a hot disk with a long cold tail.
        if (p.numDisks > 1 && rng.chance(profile.skewProb)) {
            p.diskWeights.resize(p.numDisks);
            double w = 1.0;
            const double decay = realIn(0.2, 0.9)(rng);
            for (uint32_t d = 0; d < p.numDisks; ++d) {
                p.diskWeights[d] = w;
                w *= decay;
            }
        }
        return p;
    });
}

Gen<DiskSpec>
genDiskSpec()
{
    return Gen<DiskSpec>([](Rng &rng) {
        DiskSpec spec; // Ultrastar 36Z15 baseline, then fuzz
        spec.idlePower = realIn(5.0, 15.0)(rng);
        spec.standbyPower = realIn(0.5, 3.0)(rng);
        spec.spinUpEnergy = realIn(50.0, 300.0)(rng);
        spec.spinUpTime = realIn(2.0, 20.0)(rng);
        spec.spinDownEnergy = realIn(2.0, 30.0)(rng);
        spec.spinDownTime = realIn(0.5, 3.0)(rng);
        return spec;
    });
}

Gen<CaseConfig>
genCaseConfig(const CaseProfile &profile)
{
    return Gen<CaseConfig>([profile](Rng &rng) {
        CaseConfig cfg;
        cfg.cacheBlocks =
            intIn(profile.minCacheBlocks, profile.maxCacheBlocks)(rng);
        // Experiment-level properties need every policy family; the
        // off-line ones also exercise the out-of-core future on the
        // streaming path.
        cfg.policy = elementOf<PolicyKind>(
            {PolicyKind::LRU, PolicyKind::FIFO, PolicyKind::CLOCK,
             PolicyKind::ARC, PolicyKind::MQ, PolicyKind::LIRS,
             PolicyKind::Belady, PolicyKind::OPG, PolicyKind::PALRU,
             PolicyKind::PAARC, PolicyKind::PALIRS})(rng);
        cfg.dpmKind = boolWith(0.5)(rng) ? DpmKind::Oracle
                                         : DpmKind::Practical;
        cfg.dpm = elementOf<DpmChoice>(
            {DpmChoice::AlwaysOn, DpmChoice::Practical,
             DpmChoice::Adaptive, DpmChoice::Oracle})(rng);
        cfg.writePolicy = elementOf<WritePolicy>(
            {WritePolicy::WriteThrough, WritePolicy::WriteBack,
             WritePolicy::WriteBackEagerUpdate,
             WritePolicy::WriteThroughDeferredUpdate})(rng);
        cfg.wtduRegionBlocks = intIn(4, 64)(rng);
        cfg.theta = elementOf<double>({0.0, 0.0, 5.0, 29.6, 120.0})(rng);
        cfg.crashStep = intIn(0, 256)(rng);
        cfg.paEpoch = realIn(5.0, 60.0)(rng);
        cfg.spec = genDiskSpec()(rng);
        return cfg;
    });
}

Gen<CrashPlan>
genCrashPlan()
{
    return Gen<CrashPlan>([](Rng &rng) {
        CrashPlan plan;
        plan.armed = true;
        plan.site = elementOf<CrashSite>(
            {CrashSite::LogAppend, CrashSite::LogAppendTorn,
             CrashSite::EagerUpdate, CrashSite::SpinUp,
             CrashSite::RetirePre, CrashSite::RetirePost,
             CrashSite::DataWrite, CrashSite::Shutdown,
             CrashSite::Recovery})(rng);
        // Low occurrences hit rare sites (retire, spin-up); the high
        // tail reaches deep into frequent ones (data-write) and, when
        // the site never fires that often, exercises the clean-finish
        // differential path.
        plan.occurrence = frequency<uint64_t>(
            {{3.0, intIn(0, 7)}, {2.0, intIn(8, 63)},
             {1.0, intIn(64, 255)}})(rng);
        plan.reorderSeed = rng.next64();
        plan.surviveProb = elementOf<double>(
            {0.0, 0.25, 0.5, 0.75, 1.0})(rng);
        return plan;
    });
}

Gen<FuzzCase>
genCase(const CaseProfile &profile)
{
    return Gen<FuzzCase>([profile](Rng &rng) {
        FuzzCase c;
        c.cfg = genCaseConfig(profile)(rng);
        SyntheticParams tp = genTraceParams(profile)(rng);
        tp.seed = rng.next64();
        c.trace = generateSynthetic(tp);
        // Drawn last so arming crash plans never perturbed the trace
        // streams of pre-existing seeds.
        c.cfg.crash = genCrashPlan()(rng);
        return c;
    });
}

FuzzCase
makeCase(uint64_t master_seed, uint64_t index, const CaseProfile &profile)
{
    const uint64_t seed = deriveSeed(master_seed, index);
    Rng rng(seed);
    FuzzCase c = genCase(profile)(rng);
    c.seed = seed;
    return c;
}

} // namespace pacache::qa
