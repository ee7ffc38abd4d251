// Parallel replication engine: one function that fans a half-open index
// range [0, n) out over threads started for the call.
//
// Replications of a stochastic experiment are embarrassingly parallel --
// each runs its own Rng(seed + i) and touches only its own result slot --
// so the fan-out needs no work stealing: threads claim indices one at a
// time from a shared atomic counter (dynamic chunking; one replication is
// heavy enough that the counter is never contended).
//
// There is no pool object: no caller runs more than one fan-out per batch,
// so threads are started and joined inside for_index.
//
// Determinism contract: the engine parallelizes *scheduling* only. Callers
// buffer per-index results and merge them in index order, so any thread
// count (including 1, the plain serial loop) produces bit-identical output.
#pragma once

#include <cstddef>
#include <functional>

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

/// Runs fn(i) for every i in [0, n). Resolves `policy` and clamps the
/// thread count to n; with one thread this is a plain loop on the calling
/// thread and an exception propagates at once. Otherwise it starts
/// `threads - 1` threads that claim indices beside the calling thread,
/// joins them, and rethrows the first exception (in completion order) only
/// after every index has run. `fn` must be safe to call concurrently unless
/// the policy resolves to one thread.
///
/// If `counters` is non-null the claim loop publishes the number of
/// not-yet-completed indices to `counters->queue_depth` as work drains
/// (relaxed stores only; compiled out under SWARMAVAIL_OBSERVE_DISABLED).
void for_index(std::size_t n, const ParallelPolicy& policy,
               const std::function<void(std::size_t)>& fn,
               telemetry::RunCounters* counters = nullptr);

}  // namespace swarmavail::sim
