/**
 * @file
 * Least-Recently-Used replacement: the paper's on-line baseline.
 */

#ifndef PACACHE_CACHE_LRU_HH
#define PACACHE_CACHE_LRU_HH

#include <vector>

#include "cache/policy.hh"
#include "util/flat_map.hh"
#include "util/slot_list.hh"

namespace pacache
{

/**
 * A block-keyed LRU stack, for users without cache slots: ARC's
 * resident and ghost lists, and custom policies. An index map finds
 * a block's entry, a SlotList keeps the order, and freed entries are
 * recycled through a free list, so steady-state touch/evict churn
 * does no per-block heap allocation.
 */
class LruStack
{
  public:
    /** Move (or add) a block to the MRU position. */
    void touch(const BlockId &block);

    /** Remove a specific block; @return true if it was present. */
    bool remove(const BlockId &block);

    /** Pop and return the LRU (bottom) block. Must be non-empty. */
    BlockId popLru();

    bool contains(const BlockId &block) const
    {
        return index.contains(block);
    }

    bool empty() const { return order.empty(); }
    std::size_t size() const { return order.size(); }

  private:
    using Index = SlotList::Index;

    void release(Index i);

    SlotList order; //!< front = MRU, back = LRU
    FlatMap<BlockId, Index> index;
    std::vector<BlockId> blocks; //!< per entry index
    std::vector<Index> freeIndices;
};

/** Plain LRU replacement policy, ordered over cache slots. */
class LruPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "LRU"; }

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

  private:
    SlotList order;              //!< front = MRU, back = LRU
    std::vector<BlockId> blocks; //!< per slot
};

} // namespace pacache

#endif // PACACHE_CACHE_LRU_HH
