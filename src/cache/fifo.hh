/**
 * @file
 * First-In-First-Out replacement (insertion order, ignores hits).
 */

#ifndef PACACHE_CACHE_FIFO_HH
#define PACACHE_CACHE_FIFO_HH

#include <vector>

#include "cache/policy.hh"
#include "util/slot_list.hh"

namespace pacache
{

/** FIFO replacement policy, ordered over cache slots. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    const char *name() const override { return "FIFO"; }

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

  private:
    SlotList order;              //!< front = oldest
    std::vector<BlockId> blocks; //!< per slot
};

} // namespace pacache

#endif // PACACHE_CACHE_FIFO_HH
