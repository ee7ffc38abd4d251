#include "sim/experiment.hpp"

#include <atomic>
#include <limits>
#include <mutex>
#include <utility>

#include "sim/fingerprint.hpp"
#include "util/error.hpp"
#include "util/observe.hpp"

namespace swarmavail::sim {
namespace {

/// One replication's buffered output, merged into the cell in index order.
struct ReplicationResult {
    SampleSet samples;
    double run_mean = 0.0;
    std::uint64_t fingerprint = 0;  ///< digest of the sample bits (0: compiled out)
    bool has_samples = false;
    bool ran = false;
};

/// Shared pooling core: runs `invoke(i)` for every replication index under
/// `control`, buffers per-index results, and merges them in index order.
/// Everything derived from the samples is bit-identical to a serial run
/// regardless of the thread count or completion order.
///
/// Telemetry (if attached) sees one counter/tracker update per completed
/// replication. A stop rule (if set) is evaluated over the run means in
/// completion order, under a local mutex: once satisfied, not-yet-started
/// replications are skipped (their `ran` flag stays false), and the merge
/// below pools exactly the replications that ran.
template <typename Invoke>
ExperimentCell pool_replications(const std::string& label, std::size_t replications,
                                 const RunControl& control, const Invoke& invoke) {
    ExperimentCell cell;
    cell.label = label;
    cell.replications = replications;

    telemetry::RunCounters* counters = nullptr;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (control.telemetry != nullptr) {
        counters = &control.telemetry->counters();
        counters->replications_total.fetch_add(replications,
                                               std::memory_order_relaxed);
    }
#endif
    const bool stoppable =
        control.stop_rule.has_value() && control.stop_rule->ci95_target > 0.0;
    std::atomic<bool> stop{false};
    std::mutex observed_mutex;
    StreamingStats observed;  // completion-order run means; stop decision only

    std::vector<ReplicationResult> results(replications);
    Parallel::for_index(
        replications, control.policy,
        [&](std::size_t i) {
            if (stoppable && stop.load(std::memory_order_acquire)) {
                return;
            }
            std::vector<double> samples = invoke(i);
            ReplicationResult& out = results[i];
            out.ran = true;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
            {
                // Digest the sample bits worker-side: equal digests iff the
                // replication produced bit-identical samples in order.
                Fingerprint fp;
                fp.fold(static_cast<std::uint64_t>(samples.size()));
                for (double s : samples) {
                    fp.fold(s);
                }
                out.fingerprint = fp.digest();
            }
#endif
            if (!samples.empty()) {
                StreamingStats run;
                for (double s : samples) {
                    run.add(s);
                }
                out.run_mean = run.mean();
                out.samples = SampleSet{std::move(samples)};
                out.has_samples = true;
            }
            SWARMAVAIL_OBSERVE(control.telemetry,
                               counters().replications_completed.fetch_add(
                                   1, std::memory_order_relaxed));
            if (out.has_samples) {
                SWARMAVAIL_OBSERVE(control.telemetry,
                                   tracker().observe(label, out.run_mean));
            }
            if (stoppable && out.has_samples) {
                const std::lock_guard<std::mutex> lock(observed_mutex);
                observed.add(out.run_mean);
                if (control.stop_rule->satisfied(observed)) {
                    stop.store(true, std::memory_order_release);
                }
            }
        },
        counters);
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    Fingerprint combined;
#endif
    for (std::size_t i = 0; i < results.size(); ++i) {
        ReplicationResult& result = results[i];
        if (!result.ran) {
            continue;
        }
        ++cell.completed_replications;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        combined.fold(static_cast<std::uint64_t>(i));
        combined.fold(result.fingerprint);
#endif
        if (!result.has_samples) {
            continue;
        }
        cell.run_means.add(result.run_mean);
        cell.samples.merge(std::move(result.samples));
    }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (cell.completed_replications > 0) {
        cell.fingerprint = combined.digest();
    }
#endif
    cell.stopped_early = cell.completed_replications < replications;
    return cell;
}

}  // namespace

ExperimentCell run_replications(const std::string& label, const Replication& body,
                                std::size_t replications, std::uint64_t seed,
                                const ParallelPolicy& policy) {
    return run_replications(label, body, replications, seed, RunControl{policy});
}

ExperimentCell run_replications(const std::string& label, const Replication& body,
                                std::size_t replications, std::uint64_t seed,
                                const RunControl& control) {
    require(replications >= 1, "run_replications: requires replications >= 1");
    require(static_cast<bool>(body), "run_replications: body required");
    return pool_replications(label, replications, control,
                             [&](std::size_t i) { return body(seed + i); });
}

ExperimentCell run_replications(const std::string& label, const MetricsReplication& body,
                                std::size_t replications, std::uint64_t seed,
                                MetricsRegistry& merged_metrics,
                                const ParallelPolicy& policy) {
    return run_replications(label, body, replications, seed, merged_metrics,
                            RunControl{policy});
}

ExperimentCell run_replications(const std::string& label, const MetricsReplication& body,
                                std::size_t replications, std::uint64_t seed,
                                MetricsRegistry& merged_metrics,
                                const RunControl& control) {
    require(replications >= 1, "run_replications: requires replications >= 1");
    require(static_cast<bool>(body), "run_replications: body required");
    // One private registry per replication (single-owner hot path), folded
    // below strictly in index order — same determinism contract as the
    // sample statistics. Replications a stop rule skipped leave their
    // registry empty, so merging all of them stays exact.
    std::vector<MetricsRegistry> registries(replications);
    ExperimentCell cell =
        pool_replications(label, replications, control,
                          [&](std::size_t i) { return body(seed + i, registries[i]); });
    for (const MetricsRegistry& registry : registries) {
        merged_metrics.merge(registry);
    }
    return cell;
}

std::vector<SweepPoint> run_sweep(const std::vector<double>& values,
                                  const SweepBody& body, std::size_t replications,
                                  std::uint64_t seed, const ParallelPolicy& policy) {
    require(!values.empty(), "run_sweep: requires at least one value");
    require(static_cast<bool>(body), "run_sweep: body required");
    std::vector<SweepPoint> sweep;
    sweep.reserve(values.size());
    std::uint64_t next_seed = seed;
    for (double value : values) {
        SweepPoint point;
        point.value = value;
        point.cell = run_replications(
            std::to_string(value),
            [&body, value](std::uint64_t s) { return body(value, s); }, replications,
            next_seed, policy);
        next_seed += replications;
        sweep.push_back(std::move(point));
    }
    return sweep;
}

const SweepPoint& best_point(const std::vector<SweepPoint>& sweep) {
    require(!sweep.empty(), "best_point: requires a non-empty sweep");
    const SweepPoint* best = nullptr;
    double best_mean = std::numeric_limits<double>::infinity();
    for (const auto& point : sweep) {
        require(!point.cell.samples.empty(), "best_point: sweep cell has no samples");
        if (point.cell.mean() < best_mean) {
            best_mean = point.cell.mean();
            best = &point;
        }
    }
    ensure(best != nullptr, "best_point: no candidate found");
    return *best;
}

}  // namespace swarmavail::sim
