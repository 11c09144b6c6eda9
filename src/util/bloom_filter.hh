/**
 * @file
 * Bloom filter used by the PA classifier to detect cold misses
 * (first-ever references to a block), per Section 4 of the paper.
 *
 * A Bloom filter never yields a false negative: if test() returns false
 * the element was definitely never inserted — i.e. the access is a
 * genuine cold miss. False positives (misclassifying a cold miss as
 * warm) occur with a small, configurable probability.
 */

#ifndef PACACHE_UTIL_BLOOM_FILTER_HH
#define PACACHE_UTIL_BLOOM_FILTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pacache
{

/** Bloom filter over 64-bit keys with k derived hash functions. */
class BloomFilter
{
  public:
    /**
     * @param num_bits    size of the bit vector (rounded up to a power
     *                    of two of at least 64, so a probe is masked,
     *                    not divided)
     * @param num_hashes  number of hash probes per key (k >= 1)
     */
    explicit BloomFilter(std::size_t num_bits = 1u << 20,
                         std::size_t num_hashes = 4);

    /** Insert a key. */
    void insert(uint64_t key);

    /** @return true if the key may have been inserted before. */
    bool test(uint64_t key) const;

    /**
     * Combined test-and-insert: one hash pair, and one loop that
     * tests and sets each probed bit.
     * @return true iff the key was definitely NOT present before
     *         (i.e. this access is a cold miss).
     */
    bool testAndInsert(uint64_t key);

    /** Clear all bits. */
    void clear();

    /** Number of bits in the filter. */
    std::size_t sizeBits() const { return bits.size() * 64; }

    /** Number of hash probes per key. */
    std::size_t hashCount() const { return numHashes; }

    /** Number of keys inserted since construction/clear. */
    std::size_t insertions() const { return numInsertions; }

    /**
     * Expected false-positive probability for the current fill,
     * (1 - e^{-kn/m})^k.
     */
    double expectedFalsePositiveRate() const;

  private:
    std::vector<uint64_t> bits;
    uint64_t mask; //!< sizeBits() - 1
    std::size_t numHashes;
    std::size_t numInsertions = 0;
};

} // namespace pacache

#endif // PACACHE_UTIL_BLOOM_FILTER_HH
