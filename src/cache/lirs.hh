/**
 * @file
 * LIRS — Low Inter-reference Recency Set replacement (Jiang & Zhang,
 * SIGMETRICS'02), cited by the paper as a storage-cache policy the
 * PA technique can wrap.
 *
 * Blocks with small inter-reference recency (IRR) are "LIR" and
 * pinned; the rest are "HIR". Resident HIR blocks live in a small
 * FIFO queue Q and are the eviction victims. The recency stack S
 * holds LIR blocks, resident HIR blocks, and non-resident HIR
 * history ("ghost") entries; a HIR block re-referenced while still
 * in S has a small IRR and is promoted to LIR, demoting the LIR
 * block at the bottom of S.
 */

#ifndef PACACHE_CACHE_LIRS_HH
#define PACACHE_CACHE_LIRS_HH

#include <cstdint>
#include <list>
#include <unordered_map>

#include "cache/policy.hh"

namespace pacache
{

/** LIRS replacement policy. */
class LirsPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param capacity_blocks  must match the cache capacity
     * @param hir_fraction     share of capacity reserved for
     *                         resident HIR blocks (paper suggests
     *                         ~1%; at least 1 block)
     * @param ghost_factor     bound on |S| as a multiple of capacity
     */
    explicit LirsPolicy(std::size_t capacity_blocks,
                        double hir_fraction = 0.05,
                        double ghost_factor = 3.0);

    const char *name() const override { return "LIRS"; }

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

    std::size_t lirCount() const { return numLir; }
    std::size_t hirResidentCount() const { return queue.size(); }

    /** Internal consistency check (test hook). */
    void validate() const;

  private:
    enum class Status : uint8_t
    {
        Lir,         //!< resident, pinned
        HirResident, //!< resident, in Q (eviction candidate)
        HirGhost,    //!< non-resident history entry in S
    };

    struct Entry
    {
        Status status;
        bool inStack = false;
        std::list<BlockId>::iterator stackIt; //!< valid if inStack
        bool inQueue = false;
        std::list<BlockId>::iterator queueIt; //!< valid if inQueue
    };

    void stackPushTop(const BlockId &block, Entry &e);
    void stackErase(Entry &e);
    void queuePushBack(const BlockId &block, Entry &e);
    void queueErase(Entry &e);

    /** Remove trailing non-LIR entries so the stack bottom is LIR. */
    void pruneStack();

    /** Demote the LIR block at the stack bottom to resident HIR. */
    void demoteBottomLir();

    /** Drop ghost entries beyond the history bound. */
    void trimGhosts();

    std::size_t cap;
    std::size_t maxLir;   //!< target LIR set size
    std::size_t maxStack; //!< bound on |S| entries

    std::list<BlockId> stack; //!< front = top (MRU)
    std::list<BlockId> queue; //!< front = oldest resident HIR

    std::unordered_map<BlockId, Entry> table;
    std::size_t numLir = 0;
    std::size_t numGhosts = 0;
};

} // namespace pacache

#endif // PACACHE_CACHE_LIRS_HH
