#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/profile.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::sim {
namespace {

/// Publishes the remaining-index count after one more index completed.
/// No-op when telemetry is compiled out or detached.
inline void publish_queue_depth([[maybe_unused]] telemetry::RunCounters* counters,
                                [[maybe_unused]] std::size_t n,
                                [[maybe_unused]] std::atomic<std::size_t>* completed) {
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (counters != nullptr) {
        const std::size_t done =
            completed->fetch_add(1, std::memory_order_relaxed) + 1;
        counters->queue_depth.store(static_cast<double>(n - (done < n ? done : n)),
                                    std::memory_order_relaxed);
    }
#endif
}

}  // namespace

std::size_t ParallelPolicy::resolve() const {
    if (threads > 0) {
        return threads;
    }
    // swarmlint-allow(det-env): selects worker-pool width only; results are bit-identical at every thread count (index-order merge, tests/sim/test_parallel.cpp)
    if (const char* env = std::getenv("SWARMAVAIL_THREADS")) {
        // Digits only: from_chars takes no sign or blank and reports
        // overflow, so "-1" cannot wrap to a huge thread count.
        const char* end = env + std::strlen(env);
        std::size_t parsed = 0;
        const auto [ptr, error] = std::from_chars(env, end, parsed);
        if (error == std::errc{} && ptr == end && parsed >= 1) {
            return parsed;
        }
    }
    // swarmlint-allow(det-env): selects worker-pool width only; results are bit-identical at every thread count (index-order merge, tests/sim/test_parallel.cpp)
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

void for_index(std::size_t n, const ParallelPolicy& policy,
               const std::function<void(std::size_t)>& fn,
               telemetry::RunCounters* counters) {
    require(static_cast<bool>(fn), "for_index: fn required");
    const std::size_t threads = std::min(policy.resolve(), n);
    std::atomic<std::size_t> completed{0};
    if (threads <= 1) {
        // Serial path: no shared state, exceptions propagate directly.
        SWARMAVAIL_PROF_SCOPE("parallel.worker_loop");
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            publish_queue_depth(counters, n, &completed);
        }
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    // Claims indices until the range is exhausted; run by every started
    // thread and by the calling thread.
    const auto run_indices = [&] {
        SWARMAVAIL_PROF_SCOPE("parallel.worker_loop");
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) {
                return;
            }
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
            publish_queue_depth(counters, n, &completed);
        }
    };
    {
        // jthread joins on destruction, also if starting a later thread throws.
        std::vector<std::jthread> workers;
        workers.reserve(threads - 1);
        for (std::size_t t = 1; t < threads; ++t) {
            workers.emplace_back(run_indices);
        }
        run_indices();
    }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (counters != nullptr) {
        // Threads may store their depths out of completion order; a drained
        // range reads 0.
        counters->queue_depth.store(0.0, std::memory_order_relaxed);
    }
#endif
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

}  // namespace swarmavail::sim
