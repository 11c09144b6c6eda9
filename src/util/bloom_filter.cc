#include "util/bloom_filter.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace pacache
{

namespace
{

/** Stafford variant 13 of the splitmix64 finalizer. */
uint64_t
mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Kirsch-Mitzenmacher double hashing: probe i is h1 + i * h2. */
std::pair<uint64_t, uint64_t>
hashPair(uint64_t key)
{
    return {mix(key), mix(key ^ 0x5851f42d4c957f2dULL) | 1};
}

} // namespace

BloomFilter::BloomFilter(std::size_t num_bits, std::size_t num_hashes)
    : bits(std::bit_ceil(std::max<std::size_t>(num_bits, 64)) / 64, 0),
      mask(sizeBits() - 1), numHashes(num_hashes)
{
    PACACHE_ASSERT(num_bits > 0, "bloom filter needs at least one bit");
    PACACHE_ASSERT(num_hashes > 0, "bloom filter needs at least one hash");
}

void
BloomFilter::insert(uint64_t key)
{
    const auto [h1, h2] = hashPair(key);
    for (std::size_t i = 0; i < numHashes; ++i) {
        const uint64_t p = (h1 + i * h2) & mask;
        bits[p / 64] |= 1ULL << (p % 64);
    }
    ++numInsertions;
}

bool
BloomFilter::test(uint64_t key) const
{
    const auto [h1, h2] = hashPair(key);
    for (std::size_t i = 0; i < numHashes; ++i) {
        const uint64_t p = (h1 + i * h2) & mask;
        if (!(bits[p / 64] & (1ULL << (p % 64))))
            return false;
    }
    return true;
}

bool
BloomFilter::testAndInsert(uint64_t key)
{
    const auto [h1, h2] = hashPair(key);
    bool present = true;
    for (std::size_t i = 0; i < numHashes; ++i) {
        const uint64_t p = (h1 + i * h2) & mask;
        const uint64_t bit = 1ULL << (p % 64);
        present &= (bits[p / 64] & bit) != 0;
        bits[p / 64] |= bit;
    }
    ++numInsertions;
    return !present;
}

void
BloomFilter::clear()
{
    for (auto &w : bits)
        w = 0;
    numInsertions = 0;
}

double
BloomFilter::expectedFalsePositiveRate() const
{
    const double k = static_cast<double>(numHashes);
    const double n = static_cast<double>(numInsertions);
    const double m = static_cast<double>(sizeBits());
    return std::pow(1.0 - std::exp(-k * n / m), k);
}

} // namespace pacache
