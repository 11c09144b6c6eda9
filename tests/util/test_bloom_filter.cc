#include <gtest/gtest.h>

#include <string>

#include "util/bloom_filter.hh"
#include "util/random.hh"

namespace pacache
{
namespace
{

TEST(BloomFilter, EmptyContainsNothing)
{
    BloomFilter bf(1024, 3);
    for (uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(bf.test(k));
}

TEST(BloomFilter, NoFalseNegatives)
{
    BloomFilter bf(1u << 16, 4);
    for (uint64_t k = 0; k < 5000; ++k)
        bf.insert(k * 2654435761ULL);
    for (uint64_t k = 0; k < 5000; ++k)
        EXPECT_TRUE(bf.test(k * 2654435761ULL));
}

TEST(BloomFilter, TestAndInsertDetectsColdMiss)
{
    BloomFilter bf(1u << 14, 4);
    EXPECT_TRUE(bf.testAndInsert(42));   // first time: cold
    EXPECT_FALSE(bf.testAndInsert(42));  // second time: warm
}

TEST(BloomFilter, FalsePositiveRateIsSmall)
{
    // m=2^20 bits, n=10^5, k=4 -> theoretical fp ~ 1.0%.
    BloomFilter bf(1u << 20, 4);
    Rng rng(5);
    for (int i = 0; i < 100000; ++i)
        bf.insert(rng.next64());

    int fp = 0;
    const int probes = 100000;
    Rng other(77777);
    for (int i = 0; i < probes; ++i)
        fp += bf.test(other.next64());
    EXPECT_LT(static_cast<double>(fp) / probes, 0.02);
    EXPECT_LT(bf.expectedFalsePositiveRate(), 0.02);
    // Empirical rate tracks the analytic estimate.
    EXPECT_NEAR(static_cast<double>(fp) / probes,
                bf.expectedFalsePositiveRate(), 0.005);
}

TEST(BloomFilter, ClearForgetsEverything)
{
    BloomFilter bf(4096, 3);
    for (uint64_t k = 0; k < 50; ++k)
        bf.insert(k);
    bf.clear();
    for (uint64_t k = 0; k < 50; ++k)
        EXPECT_FALSE(bf.test(k));
    EXPECT_EQ(bf.insertions(), 0u);
}

TEST(BloomFilter, SizeRoundsUpToWords)
{
    BloomFilter bf(65, 2);
    EXPECT_EQ(bf.sizeBits(), 128u);
}

TEST(BloomFilter, SizeRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(BloomFilter(1, 1).sizeBits(), 64u);
    EXPECT_EQ(BloomFilter(64, 1).sizeBits(), 64u);
    EXPECT_EQ(BloomFilter(129, 1).sizeBits(), 256u);
    EXPECT_EQ(BloomFilter(3000, 1).sizeBits(), 4096u);
    EXPECT_EQ(BloomFilter(1u << 22, 4).sizeBits(), std::size_t{1} << 22);
    EXPECT_EQ(BloomFilter((1u << 22) + 1, 4).sizeBits(),
              std::size_t{1} << 23);
}

TEST(BloomFilter, FusedTestAndInsertMatchesTestThenInsert)
{
    // testAndInsert hashes once and tests and sets each bit in one
    // loop; its answers must be those of test() then insert() on a
    // twin filter, for every size and probe count, so PA's cold-miss
    // classes cannot move.
    Rng rng(2024);
    for (unsigned log_bits = 6; log_bits <= 22; log_bits += 4) {
        for (std::size_t k = 1; k <= 8; ++k) {
            SCOPED_TRACE("2^" + std::to_string(log_bits) + " bits, k " +
                         std::to_string(k));
            BloomFilter fused(std::size_t{1} << log_bits, k);
            BloomFilter twin(std::size_t{1} << log_bits, k);
            // Keys from a space a few times the filter's capacity,
            // so the run sees repeats, false positives and fresh keys.
            const uint64_t space = uint64_t{1} << (log_bits - 2);
            const int keys = log_bits == 22 ? 1000000 : 20000;
            int cold = 0;
            for (int i = 0; i < keys; ++i) {
                const uint64_t key = rng.below(space) * 0x9e3779b97f4a7c15ULL;
                const bool expected = !twin.test(key);
                twin.insert(key);
                const bool got = fused.testAndInsert(key);
                ASSERT_EQ(got, expected) << "key " << i;
                cold += got;
            }
            EXPECT_GT(cold, 0);
            EXPECT_LT(cold, keys);
            EXPECT_EQ(fused.insertions(), twin.insertions());
            for (int i = 0; i < 1000; ++i) {
                const uint64_t key = rng.next64();
                ASSERT_EQ(fused.test(key), twin.test(key));
            }
        }
    }
}

TEST(BloomFilter, CountsInsertions)
{
    BloomFilter bf(1024, 2);
    bf.insert(1);
    bf.insert(2);
    bf.insert(1); // duplicates still count as insert operations
    EXPECT_EQ(bf.insertions(), 3u);
}

TEST(BloomFilter, ExpectedFpGrowsWithFill)
{
    BloomFilter bf(4096, 4);
    const double before = bf.expectedFalsePositiveRate();
    for (uint64_t k = 0; k < 1000; ++k)
        bf.insert(k);
    EXPECT_GT(bf.expectedFalsePositiveRate(), before);
}

} // namespace
} // namespace pacache
