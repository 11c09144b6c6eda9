#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/thread_pool.hh"

namespace pacache::runner
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    // Every index runs exactly once.
    std::vector<int> runs(1000, 0);
    parallelFor(runs.size(), 8, [&runs](std::size_t i) { ++runs[i]; });
    EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), 1000);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne)
{
    // Zero jobs still runs everything, on one spawned thread.
    std::vector<std::thread::id> ran(50);
    parallelFor(ran.size(), 0, [&ran](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    EXPECT_NE(ran[0], std::this_thread::get_id());
    EXPECT_EQ(std::count(ran.begin(), ran.end(), ran[0]), 50);
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder)
{
    // One thread claims the indices in increasing order.
    std::vector<std::size_t> order;
    parallelFor(100, 1, [&order](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, UnevenTasksAllComplete)
{
    // A few long tasks among many short ones: the other threads keep
    // claiming the backlog instead of idling behind the long runs.
    std::atomic<int> done{0};
    parallelFor(400, 4, [&done](std::size_t i) {
        if (i % 100 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 400);
}

TEST(ThreadPool, TaskExceptionPropagatesToWait)
{
    // Index 19 throws at once, index 7 only after a delay: the lowest
    // failing index's exception is the one rethrown, whatever failed
    // first, and every other index still runs.
    std::atomic<int> done{0};
    std::string message;
    try {
        parallelFor(32, 4, [&done](std::size_t i) {
            if (i == 7) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                throw std::runtime_error("task 7 failed");
            }
            if (i == 19)
                throw std::runtime_error("task 19 failed");
            done.fetch_add(1);
        });
    } catch (const std::runtime_error &e) {
        message = e.what();
    }
    EXPECT_EQ(message, "task 7 failed");
    EXPECT_EQ(done.load(), 30);
}

TEST(ThreadPool, RepeatedSmallBatchesNeverStrand)
{
    // Many one-index batches: each must start, run and join its
    // thread without losing the index or hanging.
    std::atomic<int> done{0};
    for (int round = 0; round < 2000; ++round)
        parallelFor(1, 8, [&done](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 2000);
}

std::size_t
liveThreads()
{
    const auto tasks =
        std::filesystem::directory_iterator("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(begin(tasks), end(tasks)));
}

TEST(ThreadPool, NeverRunsMoreThreadsThanIndices)
{
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "needs /proc/self/task to count threads";
    constexpr std::size_t kIndices = 3;
    const std::size_t before = liveThreads();
    std::atomic<std::size_t> arrived{0};
    std::atomic<std::size_t> peak{0};
    parallelFor(kIndices, 64, [&](std::size_t) {
        // Count the live threads over and over while every index is
        // in flight: a surplus thread would find no index left and
        // exit at once, so only a count taken meanwhile can see it.
        arrived.fetch_add(1);
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
        while (arrived.load() < kIndices ||
               std::chrono::steady_clock::now() < until) {
            const std::size_t now = liveThreads();
            std::size_t seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
        }
    });
    EXPECT_LE(peak.load(), before + kIndices);
}

} // namespace
} // namespace pacache::runner
