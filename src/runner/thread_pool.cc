#include "runner/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pacache::runner
{

unsigned
defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    std::atomic<std::size_t> next{0};

    // A throwing call must not escape its thread (std::terminate).
    // Keeping only the lowest failing index makes the rethrown
    // exception independent of scheduling.
    std::mutex errorMutex;
    std::size_t errorIndex = n;
    std::exception_ptr error;

    const auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard lock(errorMutex);
                if (i < errorIndex) {
                    errorIndex = i;
                    error = std::current_exception();
                }
            }
        }
    };
    {
        // Declared after everything the threads use; the jthreads
        // join on scope exit, also when a later spawn throws.
        std::vector<std::jthread> threads;
        const std::size_t count =
            std::min<std::size_t>(std::max(jobs, 1u), n);
        threads.reserve(count);
        for (std::size_t t = 0; t < count; ++t)
            threads.emplace_back(work);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace pacache::runner
