/**
 * @file
 * Golden equivalence: the indexed-heap/ordered-set fast paths
 * (OpgPolicy, BeladyPolicy) must replay byte-identically to
 * NaiveOracle, OPG and MIN written straight from their definitions
 * with the legacy per-call pricing — same eviction sequence in the
 * same order, same hit/miss/eviction counts, same deterministic-miss
 * trajectories, and exactly equal (==, not near-equal) priced
 * schedule energy. Any divergence means the fast path changed
 * behavior, not just speed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cache/belady.hh"
#include "cache/cache.hh"
#include "core/opg.hh"
#include "core/optimal.hh"
#include "qa/naive_oracle.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace pacache
{
namespace
{

/** Forwarding wrapper that records the victim sequence. */
class RecordingPolicy : public ReplacementPolicy
{
  public:
    explicit RecordingPolicy(ReplacementPolicy &inner_) : inner(&inner_)
    {
    }

    const char *name() const override { return inner->name(); }

    void
    onAccess(const BlockId &block, CacheSlot slot, Time now,
             std::size_t idx, bool hit) override
    {
        inner->onAccess(block, slot, now, idx, hit);
    }

    void
    beforeMiss(const BlockId &block, Time now, std::size_t idx) override
    {
        inner->beforeMiss(block, now, idx);
    }

    void onRemove(const BlockId &block, CacheSlot slot) override
    {
        inner->onRemove(block, slot);
    }

    BlockId
    evict(Time now, std::size_t idx) override
    {
        const BlockId victim = inner->evict(now, idx);
        victims.push_back(victim);
        return victim;
    }

    bool supportsPrefetch() const override
    {
        return inner->supportsPrefetch();
    }

    std::vector<BlockId> victims;

  private:
    ReplacementPolicy *inner;
};

struct ReplayResult
{
    std::vector<BlockId> victims;
    CacheStats stats;
    /** deterministicMissCount(0) sampled after every access. */
    std::vector<std::size_t> detMiss0;
};

/** Arm @p policy over @p accesses, unless the bare interface hides
 *  its arming (the caller arms it then), and replay them. */
template <typename Policy>
ReplayResult
replay(Policy &policy, const std::vector<BlockAccess> &accesses,
       std::size_t capacity)
{
    if constexpr (requires { policy.prepareWindowed(WindowedFuture{}); })
        policy.prepareWindowed(WindowedFuture(accesses));
    else if constexpr (requires { policy.prepare(accesses); })
        policy.prepare(accesses);
    RecordingPolicy rec(policy);
    Cache cache(capacity, rec);
    ReplayResult out;
    out.detMiss0.reserve(accesses.size());
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        cache.access(accesses[i].block, accesses[i].time, i);
        if constexpr (requires { policy.deterministicMissCount(0); })
            out.detMiss0.push_back(policy.deterministicMissCount(0));
    }
    out.victims = std::move(rec.victims);
    out.stats = cache.stats();
    return out;
}

void
expectIdentical(const ReplayResult &fast, const ReplayResult &ref)
{
    ASSERT_EQ(fast.victims.size(), ref.victims.size());
    for (std::size_t i = 0; i < fast.victims.size(); ++i)
        ASSERT_EQ(fast.victims[i], ref.victims[i])
            << "eviction sequences diverge at step " << i;
    EXPECT_EQ(fast.stats.hits, ref.stats.hits);
    EXPECT_EQ(fast.stats.misses, ref.stats.misses);
    EXPECT_EQ(fast.stats.evictions, ref.stats.evictions);
    ASSERT_EQ(fast.detMiss0, ref.detMiss0);
}

std::vector<BlockAccess>
smallOltpStream()
{
    OltpParams p;
    p.duration = 600; // 10 minutes keeps the suite fast
    p.busyInterarrivalMs = 400;
    p.quietInterarrivalMs = 1500;
    return expandTrace(makeOltpTrace(p));
}

std::vector<BlockAccess>
syntheticStream(uint64_t seed)
{
    SyntheticParams sp;
    sp.numRequests = 6000;
    sp.numDisks = 5;
    sp.arrival = ArrivalModel::pareto(120.0, 1.5);
    sp.address.footprintBlocks = 400;
    sp.address.reuseProb = 0.65;
    sp.seed = seed;
    return expandTrace(generateSynthetic(sp));
}

using OpgParam = std::tuple<DpmKind, double /*theta*/>;

class OpgEquivalence : public ::testing::TestWithParam<OpgParam>
{
};

TEST_P(OpgEquivalence, OltpReplayIsByteIdentical)
{
    const auto [kind, theta] = GetParam();
    const auto accesses = smallOltpStream();
    const PowerModel pm;
    const std::size_t capacity = 256;

    OpgPolicy fast(pm, kind, theta);
    NaiveOracle ref(pm, kind, theta);
    const auto fastRun = replay(fast, accesses, capacity);
    const auto refRun = replay(ref, accesses, capacity);
    expectIdentical(fastRun, refRun);
    fast.validateInternalState(/*full=*/true);

    // Priced schedule energy must be exactly equal, not approximately.
    SchedulePricing pricing{&pm, 0.05, accesses.back().time + 1};
    OpgPolicy fast2(pm, kind, theta);
    fast2.prepareWindowed(WindowedFuture(accesses));
    NaiveOracle ref2(pm, kind, theta);
    ref2.prepare(accesses);
    const Energy fastE =
        policyScheduleEnergy(accesses, capacity, fast2, pricing);
    const Energy refE =
        policyScheduleEnergy(accesses, capacity, ref2, pricing);
    EXPECT_EQ(fastE, refE);
}

TEST_P(OpgEquivalence, SyntheticReplayIsByteIdentical)
{
    const auto [kind, theta] = GetParam();
    const PowerModel pm;
    for (uint64_t seed : {101u, 202u, 303u}) {
        const auto accesses = syntheticStream(seed);
        OpgPolicy fast(pm, kind, theta);
        NaiveOracle ref(pm, kind, theta);
        const auto fastRun = replay(fast, accesses, 96);
        const auto refRun = replay(ref, accesses, 96);
        expectIdentical(fastRun, refRun);
        fast.validateInternalState(/*full=*/true);
    }
}

TEST_P(OpgEquivalence, PenaltiesMatchReferenceMidReplay)
{
    const auto [kind, theta] = GetParam();
    const PowerModel pm;
    const auto accesses = syntheticStream(404);

    OpgPolicy fast(pm, kind, theta);
    NaiveOracle ref(pm, kind, theta);
    Cache fastCache(64, fast);
    Cache refCache(64, ref);
    fast.prepareWindowed(WindowedFuture(accesses));
    ref.prepare(accesses);
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        fastCache.access(accesses[i].block, accesses[i].time, i);
        refCache.access(accesses[i].block, accesses[i].time, i);
        if (i % 500 != 0)
            continue;
        // Every resident block must carry the same penalty in both.
        ASSERT_EQ(fastCache.stats().misses, refCache.stats().misses);
        ASSERT_EQ(fast.penaltyOf(accesses[i].block),
                  ref.penaltyOf(accesses[i].block))
            << "penalty diverges at access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Golden, OpgEquivalence,
    ::testing::Combine(::testing::Values(DpmKind::Oracle,
                                         DpmKind::Practical),
                       ::testing::Values(0.0, 29.6)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) == DpmKind::Oracle
            ? "oracle"
            : "practical";
        n += std::get<1>(info.param) > 0 ? "_theta" : "_pure";
        return n;
    });

/**
 * A budgeted OPG (its ordered state attached to a SpillPool) must
 * replay byte-identically to the unbudgeted one at every budget — a
 * 1-byte budget (chunks spill at the next pool registration), a mid
 * budget (steady churn), and SIZE_MAX (machinery engaged, never
 * evicts). Spilling moves bytes, never values, so any divergence is
 * a bug, not noise.
 */
TEST(SpilledOpgEquivalence, ReplayMatchesInMemoryAtEveryBudget)
{
    const PowerModel pm;
    const auto accesses = syntheticStream(505);
    OpgPolicy plain(pm, DpmKind::Oracle, 0.0);
    const auto want = replay(plain, accesses, 96);
    for (const std::size_t budget :
         {std::size_t{1}, std::size_t{64} << 10,
          static_cast<std::size_t>(-1)}) {
        OpgPolicy spilled(pm, DpmKind::Oracle, 0.0, budget);
        const auto got = replay(spilled, accesses, 96);
        expectIdentical(got, want);
        spilled.validateInternalState(/*full=*/true);
    }
}

TEST(SpilledOpgEquivalence, PenaltiesMatchUnderTightBudget)
{
    const PowerModel pm;
    const auto accesses = syntheticStream(606);
    OpgPolicy plain(pm, DpmKind::Practical, 29.6);
    OpgPolicy spilled(pm, DpmKind::Practical, 29.6,
                      /*mem_budget=*/4096);
    Cache plainCache(64, plain);
    Cache spilledCache(64, spilled);
    plain.prepareWindowed(WindowedFuture(accesses));
    spilled.prepareWindowed(WindowedFuture(accesses));
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        plainCache.access(accesses[i].block, accesses[i].time, i);
        spilledCache.access(accesses[i].block, accesses[i].time, i);
        if (i % 500 != 0)
            continue;
        ASSERT_EQ(plainCache.stats().misses,
                  spilledCache.stats().misses);
        ASSERT_EQ(spilled.penaltyOf(accesses[i].block),
                  plain.penaltyOf(accesses[i].block))
            << "penalty diverges at access " << i;
    }
}

TEST(BeladyEquivalence, OltpReplayIsByteIdentical)
{
    const auto accesses = smallOltpStream();
    BeladyPolicy fast;
    NaiveOracle ref;
    const auto fastRun = replay(fast, accesses, 256);
    // MIN has no deterministic-miss trajectory to compare: arm the
    // reference here and replay it through the bare policy interface,
    // so neither side samples one.
    ref.prepare(accesses);
    const auto refRun = replay<ReplacementPolicy>(ref, accesses, 256);
    expectIdentical(fastRun, refRun);
}

TEST(BeladyEquivalence, SyntheticReplayIsByteIdentical)
{
    for (uint64_t seed : {11u, 22u, 33u}) {
        const auto accesses = syntheticStream(seed);
        BeladyPolicy fast;
        NaiveOracle ref;
        const auto fastRun = replay(fast, accesses, 96);
        ref.prepare(accesses);
        const auto refRun = replay<ReplacementPolicy>(ref, accesses, 96);
        expectIdentical(fastRun, refRun);
    }
}

} // namespace
} // namespace pacache
