/**
 * @file
 * ReferenceBeladyPolicy — the set-based Belady MIN implementation
 * that predated the indexed-heap fast path, retained verbatim so the
 * rewrite stays equivalence-testable forever (same role as
 * ReferenceOpgPolicy for OPG).
 *
 * Semantics are identical to BeladyPolicy; the difference is purely
 * structural: residents are ordered in a std::set of (next-use,
 * block) pairs with a std::unordered_map from block to its current
 * next-use index, so every hit pays a node erase + insert.
 */

#ifndef PACACHE_CACHE_BELADY_REF_HH
#define PACACHE_CACHE_BELADY_REF_HH

#include <set>
#include <unordered_map>
#include <utility>

#include "cache/policy.hh"

namespace pacache
{

/** The retained reference implementation of Belady's MIN. */
class ReferenceBeladyPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "Belady-ref"; }

    void prepare(const std::vector<BlockAccess> &accesses) override;

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;
    bool supportsPrefetch() const override { return false; }
    bool isOffline() const override { return true; }

  private:
    FutureKnowledge future;
    bool prepared = false;

    /** Resident blocks ordered by next-use index (kNever last). */
    std::set<std::pair<std::size_t, BlockId>> byNextUse;
    std::unordered_map<BlockId, std::size_t> nextOf;
};

} // namespace pacache

#endif // PACACHE_CACHE_BELADY_REF_HH
