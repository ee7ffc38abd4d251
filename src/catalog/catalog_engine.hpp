// Multi-swarm discrete-event engine: simulates every swarm of a bundled
// catalog in one run.
//
// Given a policy's SwarmPlan, the engine fans the swarms out with
// sim::for_index. The worker for swarm i builds its config (seed
// seed + swarm_index), runs one AvailabilityProcess on a private
// EventQueue, and writes the swarm's report row and its files' rows into
// storage sized before the fan-out. One serial pass then folds the
// catalog-wide aggregates in swarm-index order — the determinism contract
// of sim/parallel.hpp, so every thread count (including 1) produces a
// bit-identical CatalogReport. Full runs and runs a stop rule
// cut short take the same path.
//
// Swarms in the plan are statistically independent given the policy (they
// share no peers, no publishers, no capacity), which is what makes the
// per-swarm split exact rather than an approximation of a joint run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "catalog/bundling_policy.hpp"
#include "catalog/report.hpp"
#include "sim/availability_sim.hpp"
#include "sim/parallel.hpp"
#include "util/telemetry.hpp"

namespace swarmavail {
class MetricsRegistry;
}  // namespace swarmavail

namespace swarmavail::sim {
class Tracer;
}  // namespace swarmavail::sim

namespace swarmavail::catalog {

/// Sentinel: no swarm is traced.
inline constexpr std::size_t kNoTracedSwarm = std::numeric_limits<std::size_t>::max();

/// Configuration of one catalog run.
struct CatalogEngineConfig {
    double horizon = 1.0e5;              ///< simulated seconds per swarm
    std::uint64_t seed = 1;              ///< swarm i runs with seed + i
    std::size_t coverage_threshold = 1;  ///< m, per swarm
    bool patient_peers = true;           ///< wait for a publisher vs leave
    double linger_time = 0.0;            ///< post-completion seeding (s)
    bool debug_audit = false;            ///< per-event invariant audits
    /// Thread policy for the per-swarm fan-out. Results are bit-identical
    /// at every thread count.
    sim::ParallelPolicy policy{};
    /// Optional registry receiving the "catalog.*" aggregates (see
    /// report.hpp record_metrics). Must outlive the call.
    MetricsRegistry* metrics = nullptr;
    /// Optional tracer attached to exactly one swarm of the run, so a
    /// single swarm can be replayed out of a catalog (trace_inspect on the
    /// JSONL output). kNoTracedSwarm: no tracing. The traced swarm's
    /// records are identical to tracing it in an isolated run.
    sim::Tracer* tracer = nullptr;
    std::size_t traced_swarm = kNoTracedSwarm;
    /// Optional live-telemetry session. Pure observer: swarm progress,
    /// dispatched-event and sim-time counters, and per-swarm arrival
    /// unavailability (tracked as "catalog.swarm_unavailability") are
    /// published as swarms complete; the report is bit-identical attached
    /// or detached.
    telemetry::TelemetrySession* telemetry = nullptr;
    /// Optional early stop over per-swarm arrival unavailability: once the
    /// rule is satisfied by the swarms completed so far, remaining swarms
    /// are skipped and the report covers only the swarms that ran
    /// (stopped_early = true, demand weights renormalized over the covered
    /// files). Under ParallelPolicy{1} the covered prefix is
    /// deterministic; with more threads the cut point depends on
    /// scheduling, which is why the decision is recorded in the report.
    std::optional<telemetry::StopRule> stop_rule{};
    /// Determinism fingerprints (see sim/fingerprint.hpp): every swarm
    /// folds its own event path process-side, and the report combines the
    /// per-swarm digests in swarm-index order into one catalog-wide
    /// fingerprint. Pure observer; ignored when the build defines
    /// SWARMAVAIL_OBSERVE_DISABLED.
    bool fingerprint = true;
};

/// The simulation config the engine uses for swarm `swarm_index` of `plan`.
/// Exposed so tests and tools can replay one swarm of a catalog run in
/// isolation (bit-exactly) with run_availability_sim.
[[nodiscard]] sim::AvailabilitySimConfig swarm_sim_config(
    const Catalog& catalog, const SwarmPlan& plan, std::size_t swarm_index,
    const CatalogEngineConfig& config);

/// Runs every swarm of `policy.assign(catalog)` and aggregates the report.
/// Validates the plan (every file in exactly one swarm) before running.
[[nodiscard]] CatalogReport run_catalog(const Catalog& catalog,
                                        const BundlingPolicy& policy,
                                        const CatalogEngineConfig& config);

/// Same, for a pre-computed plan. The plan is taken by value: each swarm's
/// file list moves into its report row, so pass an rvalue to avoid a copy.
[[nodiscard]] CatalogReport run_catalog_plan(const Catalog& catalog, SwarmPlan plan,
                                             const CatalogEngineConfig& config);

}  // namespace swarmavail::catalog
