#include "sim/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
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
        char* end = nullptr;
        const unsigned long parsed = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1) {
            return static_cast<std::size_t>(parsed);
        }
    }
    // swarmlint-allow(det-env): selects worker-pool width only; results are bit-identical at every thread count (index-order merge, tests/sim/test_parallel.cpp)
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

struct Parallel::Impl {
    std::vector<std::thread> workers;
    std::mutex mutex;
    std::condition_variable work_ready;
    std::condition_variable work_done;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    telemetry::RunCounters* counters = nullptr;
    std::size_t n = 0;
    std::uint64_t job_generation = 0;
    std::size_t busy_workers = 0;
    std::exception_ptr first_error;
    bool stopping = false;

    /// Claims indices until the range is exhausted; called by workers and
    /// by the thread driving for_index.
    void run_indices() {
        SWARMAVAIL_PROF_SCOPE("parallel.worker_loop");
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) {
                return;
            }
            try {
                (*fn)(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
            publish_queue_depth(counters, n, &completed);
        }
    }

    void worker_loop() {
        std::uint64_t seen_generation = 0;
        for (;;) {
            std::unique_lock<std::mutex> lock(mutex);
            work_ready.wait(lock, [&] {
                return stopping || job_generation != seen_generation;
            });
            if (stopping) {
                return;
            }
            seen_generation = job_generation;
            lock.unlock();
            run_indices();
            lock.lock();
            if (--busy_workers == 0) {
                work_done.notify_all();
            }
        }
    }
};

Parallel::Parallel(std::size_t threads) : impl_(std::make_unique<Impl>()) {
    require(threads >= 1, "Parallel: requires at least one thread");
    impl_->workers.reserve(threads - 1);
    for (std::size_t i = 0; i + 1 < threads; ++i) {
        impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
    }
}

Parallel::~Parallel() {
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->work_ready.notify_all();
    for (std::thread& worker : impl_->workers) {
        worker.join();
    }
}

std::size_t Parallel::threads() const noexcept { return impl_->workers.size() + 1; }

void Parallel::for_index(std::size_t n, const std::function<void(std::size_t)>& fn,
                         telemetry::RunCounters* counters) {
    require(static_cast<bool>(fn), "Parallel::for_index: fn required");
    if (n == 0) {
        return;
    }
    if (impl_->workers.empty() || n == 1) {
        // Serial path: no shared state, exceptions propagate directly.
        SWARMAVAIL_PROF_SCOPE("parallel.worker_loop");
        std::atomic<std::size_t> completed{0};
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            publish_queue_depth(counters, n, &completed);
        }
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->fn = &fn;
        impl_->n = n;
        impl_->counters = counters;
        impl_->completed.store(0, std::memory_order_relaxed);
        impl_->next.store(0, std::memory_order_relaxed);
        impl_->busy_workers = impl_->workers.size();
        impl_->first_error = nullptr;
        ++impl_->job_generation;
    }
    impl_->work_ready.notify_all();
    impl_->run_indices();  // the calling thread is the pool's extra worker
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->work_done.wait(lock, [&] { return impl_->busy_workers == 0; });
    impl_->fn = nullptr;
    impl_->counters = nullptr;
    if (impl_->first_error) {
        std::exception_ptr error = impl_->first_error;
        impl_->first_error = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void Parallel::for_index(std::size_t n, const ParallelPolicy& policy,
                         const std::function<void(std::size_t)>& fn,
                         telemetry::RunCounters* counters) {
    require(static_cast<bool>(fn), "Parallel::for_index: fn required");
    std::size_t threads = policy.resolve();
    if (threads > n) {
        threads = n == 0 ? 1 : n;
    }
    if (threads <= 1) {
        SWARMAVAIL_PROF_SCOPE("parallel.worker_loop");
        std::atomic<std::size_t> completed{0};
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            publish_queue_depth(counters, n, &completed);
        }
        return;
    }
    Parallel pool{threads};
    pool.for_index(n, fn, counters);
}

}  // namespace swarmavail::sim
