// Generic replication/sweep harness used by benches and downstream users:
// run a stochastic experiment over independent seeds, accumulate samples,
// and report means with confidence intervals -- the scaffolding every
// Section 4-style experiment needs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/parallel.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::sim {

/// Summary of one experiment cell (one parameter setting).
struct ExperimentCell {
    std::string label;
    SampleSet samples;          ///< pooled per-peer (or per-event) samples
    StreamingStats run_means;   ///< per-replication means (for run-level CIs)
    std::size_t replications = 0;          ///< replications requested
    std::size_t completed_replications = 0;  ///< replications actually run
    bool stopped_early = false;  ///< a StopRule ended the batch before all ran
    /// Determinism fingerprint of the batch (see sim/fingerprint.hpp):
    /// each replication's sample bits digested worker-side, the digests
    /// folded in index order. Bit-identical for every thread count; 0 when
    /// the build defines SWARMAVAIL_OBSERVE_DISABLED.
    std::uint64_t fingerprint = 0;

    /// Mean of the pooled samples (0 if empty).
    [[nodiscard]] double mean() const {
        return samples.empty() ? 0.0 : samples.mean();
    }
    /// Half-width of the ~95% CI over replication means: the honest
    /// uncertainty when samples within a run are correlated.
    [[nodiscard]] double ci95() const { return run_means.ci95_halfwidth(); }
};

/// Optional run-time controls for a replication batch: threading policy,
/// an attached telemetry session (observer only — never changes results),
/// and an optional early-stop rule over the per-replication run means.
///
/// With a stop rule set, workers stop claiming new replications once the
/// rule is satisfied by the run means observed so far (in completion
/// order). The cell then reports completed_replications < replications and
/// stopped_early = true, and its statistics pool exactly the replications
/// that ran. Under ParallelPolicy{1} the stopped prefix is deterministic
/// (seed, seed+1, ..., seed+k); with more threads the cut point depends on
/// scheduling, which is why the decision is recorded in the cell.
struct RunControl {
    ParallelPolicy policy{};
    telemetry::TelemetrySession* telemetry = nullptr;
    std::optional<telemetry::StopRule> stop_rule{};
};

/// One replication's output: a batch of samples (may be empty).
using Replication = std::function<std::vector<double>(std::uint64_t seed)>;

/// Runs `replications` independent seeds (seed, seed+1, ...) of `body` and
/// pools the results. Requires replications >= 1.
///
/// Replications run in parallel according to `policy` (default: all
/// hardware threads, overridable via SWARMAVAIL_THREADS; ParallelPolicy{1}
/// is the serial path). Per-replication results are buffered per index and
/// merged in index order, so the returned cell is bit-identical for every
/// thread count. Under any policy other than ParallelPolicy{1}, `body`
/// must be safe to invoke concurrently from multiple threads (each call
/// should derive all randomness and state from its seed argument).
[[nodiscard]] ExperimentCell run_replications(const std::string& label,
                                              const Replication& body,
                                              std::size_t replications,
                                              std::uint64_t seed,
                                              const ParallelPolicy& policy = {});

/// RunControl form: same contract as above, plus live telemetry (progress
/// counters, per-cell run-mean convergence tracking under the cell label)
/// and optional early stopping. Without a stop rule the returned cell is
/// bit-identical to the ParallelPolicy overload, telemetry attached or not.
[[nodiscard]] ExperimentCell run_replications(const std::string& label,
                                              const Replication& body,
                                              std::size_t replications,
                                              std::uint64_t seed,
                                              const RunControl& control);

/// A replication body that also records into a per-replication metrics
/// registry (each call gets its own, so recording needs no synchronization).
using MetricsReplication =
    std::function<std::vector<double>(std::uint64_t seed, MetricsRegistry& metrics)>;

/// Like run_replications, but additionally folds each replication's private
/// metrics registry into `merged_metrics` strictly in index order — the
/// merged counters, gauges, and histograms are bit-identical for every
/// thread count, like the sample statistics.
[[nodiscard]] ExperimentCell run_replications(const std::string& label,
                                              const MetricsReplication& body,
                                              std::size_t replications,
                                              std::uint64_t seed,
                                              MetricsRegistry& merged_metrics,
                                              const ParallelPolicy& policy = {});

/// RunControl form of the metrics overload; see the Replication variant.
/// Under a stop rule, only the registries of replications that ran are
/// merged (skipped registries are empty).
[[nodiscard]] ExperimentCell run_replications(const std::string& label,
                                              const MetricsReplication& body,
                                              std::size_t replications,
                                              std::uint64_t seed,
                                              MetricsRegistry& merged_metrics,
                                              const RunControl& control);

/// A one-dimensional sweep: runs `body(value, seed)` for every value.
struct SweepPoint {
    double value = 0.0;
    ExperimentCell cell;
};

using SweepBody = std::function<std::vector<double>(double value, std::uint64_t seed)>;

/// Seeds are assigned per cell before any cell runs, so results do not
/// depend on the policy; see run_replications for the threading contract.
[[nodiscard]] std::vector<SweepPoint> run_sweep(const std::vector<double>& values,
                                                const SweepBody& body,
                                                std::size_t replications,
                                                std::uint64_t seed,
                                                const ParallelPolicy& policy = {});

/// The sweep point with the smallest pooled mean; ties break toward the
/// earlier value. Requires a non-empty sweep with non-empty samples.
[[nodiscard]] const SweepPoint& best_point(const std::vector<SweepPoint>& sweep);

}  // namespace swarmavail::sim
