/**
 * @file
 * PA-LRU — the paper's on-line power-aware replacement algorithm —
 * and the generic dual-policy wrapper that applies the same idea to
 * any base policy (ARC, MQ, ...), as Section 4 suggests.
 *
 * PA-LRU keeps two LRU stacks: LRU0 holds blocks of "regular" disks,
 * LRU1 holds blocks of "priority" disks (classification per
 * PaClassifier). Eviction always takes the bottom of LRU0 unless it
 * is empty, so priority disks' blocks survive longer, their miss
 * streams thin out, and the disks can sleep.
 *
 * Both stacks are ordered over the cache's slots (cache/policy.hh),
 * and each slot records which stack holds it, so a hit whose disk
 * changed class moves to the other stack without a lookup.
 */

#ifndef PACACHE_CORE_PA_LRU_HH
#define PACACHE_CORE_PA_LRU_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/policy.hh"
#include "core/pa_classifier.hh"
#include "util/slot_list.hh"

namespace pacache
{

/** The two-stack power-aware LRU policy. */
class PaLruPolicy : public ReplacementPolicy
{
  public:
    /** @param classifier shared classifier, fed by the driver. */
    explicit PaLruPolicy(const PaClassifier &classifier)
        : cls(&classifier) {}

    const char *name() const override { return "PA-LRU"; }

    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

    std::size_t regularSize() const { return stacks[0].size(); }
    std::size_t prioritySize() const { return stacks[1].size(); }

  private:
    const PaClassifier *cls;
    SlotList stacks[2];           //!< [0] regular, [1] priority; front = MRU
    std::vector<BlockId> blocks;  //!< per slot
    std::vector<uint8_t> stackOf; //!< per slot: which stack holds it
};

/**
 * Generic power-aware wrapper: route blocks of regular disks to one
 * base policy instance and blocks of priority disks to another, and
 * evict from the regular instance while it holds anything. With two
 * LRU instances this is exactly PA-LRU; with two ARC instances it is
 * PA-ARC, etc.
 */
class PaDualPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param classifier shared classifier
     * @param regular    base policy instance for regular disks
     * @param priority   base policy instance for priority disks
     * @param label      reported name, e.g. "PA-ARC"
     */
    PaDualPolicy(const PaClassifier &classifier,
                 std::unique_ptr<ReplacementPolicy> regular,
                 std::unique_ptr<ReplacementPolicy> priority,
                 std::string label);

    const char *name() const override { return label.c_str(); }

    void beforeMiss(const BlockId &block, Time now,
                    std::size_t idx) override;
    void onAccess(const BlockId &block, CacheSlot slot, Time now,
                  std::size_t idx, bool hit) override;
    void onRemove(const BlockId &block, CacheSlot slot) override;
    BlockId evict(Time now, std::size_t idx) override;

    std::size_t regularSize() const { return counts[0]; }
    std::size_t prioritySize() const { return counts[1]; }

  private:
    const PaClassifier *cls;
    std::unique_ptr<ReplacementPolicy> sub[2]; //!< [0]=regular
    std::size_t counts[2] = {0, 0};
    //! Per slot: which sub holds it. A victim's entry goes stale
    //! until the slot's next miss overwrites it.
    std::vector<uint8_t> home;
    std::string label;
};

} // namespace pacache

#endif // PACACHE_CORE_PA_LRU_HH
