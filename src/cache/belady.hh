/**
 * @file
 * Belady's MIN — the off-line replacement algorithm that evicts the
 * block whose next reference is furthest in the future. It minimizes
 * the miss count (the paper's baseline off-line bound) but, as the
 * paper's Section 3 shows, is *not* energy-optimal.
 *
 * Implementation (the oracle fast path; NaiveOracle in
 * qa/naive_oracle.hh is the reference written from the definition):
 * resident blocks live in an addressable max-heap keyed by (next-use
 * index, block) — kNever sorts last, so the victim is the largest
 * (next use, block), as in the reference — with a flat hash map from
 * block to its stable heap handle.
 *
 * Like OPG the policy is templated over its future provider F:
 * FutureKnowledge (materialized; BeladyPolicy) or WindowedFuture
 * (exact out-of-core streaming; WindowedBeladyPolicy, fed through
 * prepareWindowed). MIN reads only next-use indices, never times.
 */

#ifndef PACACHE_CACHE_BELADY_HH
#define PACACHE_CACHE_BELADY_HH

#include <utility>

#include "cache/future_window.hh"
#include "cache/policy.hh"
#include "util/flat_map.hh"
#include "util/indexed_heap.hh"

namespace pacache
{

/** Belady's off-line MIN replacement policy over future provider F. */
template <typename F>
class BasicBeladyPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "Belady"; }

    void prepare(const std::vector<BlockAccess> &accesses) override;

    /** Streaming counterpart of prepare() (F = WindowedFuture). */
    void prepareWindowed(F &&fut);

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;
    bool supportsPrefetch() const override { return false; }
    bool isOffline() const override { return true; }
    bool streamReady() const override { return prepared; }

  private:
    using UseKey = std::pair<std::size_t, BlockId>;

    /** Max-heap order: top() is the largest (furthest) key. */
    struct FurthestFirst
    {
        bool
        operator()(const UseKey &a, const UseKey &b) const
        {
            return b < a;
        }
    };

    using UseHeap = IndexedHeap<UseKey, FurthestFirst>;
    using Handle = typename UseHeap::Handle;

    F future;
    bool prepared = false;

    UseHeap byNextUse;
    /** Packed 64-bit keys: 16-byte slots, one-word hash per probe. */
    FlatMap<std::uint64_t, Handle> handleOf;
};

// Compiled once in belady.cc; see the matching note in core/opg.hh.
extern template class BasicBeladyPolicy<FutureKnowledge>;
extern template class BasicBeladyPolicy<WindowedFuture>;

/** The classic materialized MIN. */
using BeladyPolicy = BasicBeladyPolicy<FutureKnowledge>;
/** The exact out-of-core MIN (streaming replay only). */
using WindowedBeladyPolicy = BasicBeladyPolicy<WindowedFuture>;

} // namespace pacache

#endif // PACACHE_CACHE_BELADY_HH
