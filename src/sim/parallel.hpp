// Parallel replication engine: a small fixed-size thread pool that fans a
// half-open index range [0, n) out over worker threads.
//
// Replications of a stochastic experiment are embarrassingly parallel --
// each runs its own Rng(seed + i) and touches only its own result slot --
// so the pool needs no work stealing: workers claim indices one at a time
// from a shared atomic counter (dynamic chunking; one replication is heavy
// enough that the counter is never contended).
//
// Determinism contract: the engine parallelizes *scheduling* only. Callers
// buffer per-index results and merge them in index order, so any thread
// count (including 1, the plain serial loop) produces bit-identical output.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace swarmavail::telemetry {
struct RunCounters;
}  // namespace swarmavail::telemetry

namespace swarmavail::sim {

/// How many threads a replication harness may use.
///
/// `threads == 0` (the default) resolves to the SWARMAVAIL_THREADS
/// environment variable if set to a positive integer, otherwise to the
/// hardware concurrency. `threads == 1` is the plain serial path: no pool,
/// no atomics, work runs inline on the calling thread.
struct ParallelPolicy {
    std::size_t threads = 0;

    /// The effective thread count (always >= 1).
    [[nodiscard]] std::size_t resolve() const;

    [[nodiscard]] static ParallelPolicy serial() noexcept { return ParallelPolicy{1}; }
};

/// Fixed-size thread pool. Construction spawns `threads - 1` workers (the
/// calling thread participates in every for_index call); destruction joins
/// them. One pool runs one for_index at a time.
class Parallel {
 public:
    /// Requires threads >= 1. `Parallel{1}` spawns nothing.
    explicit Parallel(std::size_t threads);
    ~Parallel();

    Parallel(const Parallel&) = delete;
    Parallel& operator=(const Parallel&) = delete;

    [[nodiscard]] std::size_t threads() const noexcept;

    /// Runs fn(i) for every i in [0, n), distributing indices over the pool
    /// plus the calling thread. Blocks until all indices completed. If any
    /// invocation throws, the first exception (in completion order) is
    /// rethrown here after the remaining indices finish; `fn` must be safe
    /// to call concurrently from multiple threads unless threads() == 1.
    ///
    /// If `counters` is non-null the worker loop publishes the number of
    /// not-yet-completed indices to `counters->queue_depth` as work drains
    /// (relaxed stores only; compiled out under SWARMAVAIL_OBSERVE_DISABLED).
    void for_index(std::size_t n, const std::function<void(std::size_t)>& fn,
                   telemetry::RunCounters* counters = nullptr);

    /// One-shot convenience: resolves `policy`, clamps the pool to n, and
    /// runs fn over [0, n). With an effective thread count of 1 this is a
    /// plain loop with no threading machinery.
    static void for_index(std::size_t n, const ParallelPolicy& policy,
                          const std::function<void(std::size_t)>& fn,
                          telemetry::RunCounters* counters = nullptr);

 private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace swarmavail::sim
