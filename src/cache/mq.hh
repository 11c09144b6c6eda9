/**
 * @file
 * MQ — the Multi-Queue replacement algorithm for second-level buffer
 * caches (Zhou, Philbin & Li, USENIX'01), cited by the paper as a
 * storage-cache policy that the PA technique can wrap.
 *
 * Blocks live in one of m LRU queues; a block with reference count f
 * sits in queue min(log2(f), m-1). Blocks unreferenced for lifeTime
 * consecutive accesses are demoted one queue at a time. Evicted
 * blocks leave their reference count in a ghost buffer (Qout) so a
 * quick re-fetch resumes its old frequency.
 */

#ifndef PACACHE_CACHE_MQ_HH
#define PACACHE_CACHE_MQ_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/policy.hh"

namespace pacache
{

/** MQ replacement policy. */
class MqPolicy : public ReplacementPolicy
{
  public:
    struct Params
    {
        std::size_t numQueues = 8;     //!< m
        uint64_t lifeTime = 32768;     //!< accesses before demotion
        std::size_t ghostCapacity = 65536; //!< |Qout|
    };

    MqPolicy() : MqPolicy(Params{}) {}
    explicit MqPolicy(const Params &params);

    const char *name() const override { return "MQ"; }

    void beforeMiss(const BlockId &block, Time now,
                    std::size_t idx) override;
    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

    /** Queue index a reference count maps to (test hook). */
    std::size_t queueFor(uint64_t ref_count) const;

  private:
    struct Entry
    {
        BlockId block;
        uint64_t refCount = 0;
        uint64_t expireAt = 0; //!< access-clock expiration
    };

    using Queue = std::list<Entry>;

    struct Locator
    {
        std::size_t queue;
        Queue::iterator it;
    };

    void insert(const BlockId &block, uint64_t ref_count);
    void demoteExpired();
    void ghostRemember(const BlockId &block, uint64_t ref_count);

    Params p;
    uint64_t clock = 0; //!< advances once per access

    std::vector<Queue> queues;
    std::unordered_map<BlockId, Locator> index;

    // Ghost buffer: FIFO of (block, refCount).
    using GhostList = std::list<std::pair<BlockId, uint64_t>>;
    GhostList ghostOrder;
    std::unordered_map<BlockId, GhostList::iterator> ghosts;

    uint64_t pendingRefCount = 0; //!< from beforeMiss ghost lookup
};

} // namespace pacache

#endif // PACACHE_CACHE_MQ_HH
