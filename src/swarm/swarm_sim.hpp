// Block-level BitTorrent swarm simulator: the repo's substitute for the
// paper's PlanetLab testbed (Section 4).
//
// Content is divided into pieces; peers fetch pieces from each other and
// from an (intermittently available) publisher over capacity-constrained
// upload slots, using rarest-first piece selection. This reproduces the
// dynamics the paper's experiments measure: swarms starve when the
// publisher leaves and the remaining peers do not jointly cover all pieces
// (blocked leechers, flash departures when the publisher returns), while
// sufficiently bundled swarms become self-sustaining (Figures 4-6).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/parallel.hpp"
#include "swarm/capacity.hpp"
#include "util/stats.hpp"

namespace swarmavail {
class MetricsRegistry;
}  // namespace swarmavail

namespace swarmavail::sim {
class Tracer;
}  // namespace swarmavail::sim

namespace swarmavail::telemetry {
class TelemetrySession;
}  // namespace swarmavail::telemetry

namespace swarmavail::swarm {

/// Publisher (initial seed) behavior.
enum class PublisherBehavior {
    kAlwaysOn,                  ///< never leaves (baseline sanity runs)
    kLeaveAfterFirstCompletion, ///< departs forever once one peer completes (Fig. 4)
    kOnOff,                     ///< alternates exp(on)/exp(off) (Figs. 5-6)
};

/// Configuration of one swarm run.
struct SwarmSimConfig {
    std::size_t bundle_size = 1;        ///< K: number of files in the torrent
    double file_size = 4.0e6 * 8.0;     ///< bits per file (default 4 MB)
    std::size_t pieces_per_file = 8;    ///< piece granularity per file
    /// Per-file peer arrival rate lambda (1/s); the bundle swarm sees
    /// aggregate arrivals at K * lambda (a request for any constituent file
    /// downloads the whole bundle).
    double peer_arrival_rate = 1.0 / 60.0;
    /// Distribution of peer upload capacities (bits/s). Required.
    std::shared_ptr<const CapacityDistribution> peer_capacity;
    /// If non-empty, peers arrive at exactly these instants (sorted,
    /// seconds) instead of the Poisson process -- the Section 4.3.4
    /// trace-driven arrival experiments. Times beyond `horizon` are dropped.
    std::vector<double> arrival_trace;
    double publisher_capacity = 50.0 * kKBps;  ///< bits/s
    /// Super-seeding (mainline's "initial seeding" mode): the publisher
    /// only serves pieces no peer currently holds, pushing fresh pieces
    /// into the swarm and leaving replication of held pieces to the peers.
    bool super_seeding = false;
    /// Reciprocity cap (a tit-for-tat proxy for heterogeneous swarms): a
    /// transfer runs at min(src, dst) capacity / slots instead of the
    /// sender's rate alone -- fast peers do not altruistically saturate
    /// slow ones, mirroring BitTorrent's rate-based unchoking. No effect
    /// when capacities are homogeneous. Publisher uploads are exempt.
    bool reciprocity_cap = false;
    /// Peer visibility limit. 0 = global visibility (every peer can fetch
    /// from every other). > 0 = each arriving peer learns at most this many
    /// neighbors from the tracker and extends its view via PEX (adopting a
    /// neighbor's neighbors when it cannot find a usable source) -- the
    /// discovery mechanics the paper's monitoring agents rely on
    /// (Section 2.2). Transfers only flow along neighbor edges; the
    /// publisher is always reachable.
    std::size_t max_neighbors = 0;
    PublisherBehavior publisher = PublisherBehavior::kOnOff;
    double publisher_on_mean = 300.0;   ///< u: mean on duration (s)
    double publisher_off_mean = 900.0;  ///< 1/r: mean off duration (s)
    /// Concurrent piece uploads per node; each slot serves at
    /// capacity / max_upload_slots.
    std::size_t max_upload_slots = 4;
    std::size_t max_download_slots = 4; ///< concurrent piece downloads per peer
    /// Relative transfer-duration jitter: each piece transfer takes
    /// duration * U(1 - jitter, 1 + jitter). Models wide-area rate
    /// variability (cross-traffic, TCP dynamics) and prevents the unphysical
    /// lock-step cohort departures a perfectly deterministic fabric produces.
    double transfer_jitter = 0.15;
    bool peers_linger = false;          ///< stay as seed after completing
    double linger_mean = 0.0;           ///< mean lingering time if enabled (s)
    double horizon = 1200.0;            ///< arrivals stop at this time (s)
    /// If true, the publisher process keeps cycling after `horizon` and the
    /// simulation runs on until every peer completes (or the hard deadline
    /// horizon * drain_deadline_factor). This removes the censoring bias
    /// that would otherwise exclude blocked peers' long download times from
    /// the Figure 6 statistics.
    bool drain_after_horizon = false;
    double drain_deadline_factor = 10.0;
    std::uint64_t seed = 1;
    /// Invariant-audit mode: after every event, re-verify the swarm's
    /// bookkeeping -- piece bitmaps vs cached counts, per-piece holder
    /// counters vs recomputed holders, upload/download slot budgets,
    /// per-link capacity allocation, coverage and availability flags, and
    /// monotone event time in the queue. Throws swarmavail::CheckFailure on
    /// corruption. O(peers x pieces) per event; meant for tests and
    /// debugging runs, off by default.
    bool debug_audit = false;
    /// Optional single-owner metrics registry (see util/metrics.hpp): the
    /// run records its counters/gauges/histograms under "swarm.*" names.
    /// run_swarm_replications gives each replication a private registry and
    /// merges them into this one in seed order, so merged metrics stay
    /// bit-identical at any thread count. Null: no metrics overhead.
    MetricsRegistry* metrics = nullptr;
    /// Optional structured-event tracer (see sim/trace.hpp); single-run
    /// only — run_swarm_replications detaches it from its replications
    /// (a shared tracer across parallel runs would interleave events).
    sim::Tracer* tracer = nullptr;
    /// Optional live-telemetry session (see util/telemetry.hpp). Pure
    /// observer: the run publishes its dispatched-event count and simulated
    /// seconds when it finishes (relaxed atomics, safe to share across
    /// parallel replications — run_swarm_replications keeps it attached and
    /// adds replication progress). Never changes any result.
    telemetry::TelemetrySession* telemetry = nullptr;
    /// Determinism fingerprint (see sim/fingerprint.hpp): fold every event
    /// the private queue dispatches — (when, seq, kind) — plus the final
    /// RNG draw count into the result's fingerprint. Pure observer (cannot
    /// change any result bit); ignored when the build defines
    /// SWARMAVAIL_OBSERVE_DISABLED.
    bool fingerprint = true;
};

/// Arrival/departure record of one peer (one line segment of Figure 5).
struct PeerRecord {
    double arrival = 0.0;
    /// Completion time, or a negative value if still incomplete at the horizon.
    double completion = -1.0;
    double capacity = 0.0;  ///< the peer's upload capacity (bits/s)
};

/// A maximal interval during which the full content was covered by the
/// union of online bitmaps (the busy periods of Figure 2).
struct AvailabilityInterval {
    double begin = 0.0;
    double end = 0.0;
};

/// Outcome of one swarm run.
struct SwarmSimResult {
    std::vector<PeerRecord> peers;            ///< every peer that arrived
    std::vector<double> completion_times;     ///< sorted completion instants (Fig. 4)
    StreamingStats download_times;            ///< completion - arrival (s)
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t stuck_at_horizon = 0;       ///< leechers still incomplete at the end
    std::vector<AvailabilityInterval> available_intervals;  ///< busy periods
    double available_fraction = 0.0;          ///< time-average content availability
    /// Time of the last completion (0 if none): how long the swarm kept
    /// serving peers, the Figure 4 "self-sustaining" signal.
    double last_completion = 0.0;
    /// Determinism fingerprint of the run's dispatch path (0 when
    /// fingerprinting is off or compiled out): the digest of every event the
    /// queue dispatched plus the RNG draw count, and the events folded into
    /// it. Two runs with equal configs must match here; a mismatch means the
    /// executions diverged even if the statistics happen to agree.
    std::uint64_t fingerprint = 0;
    std::uint64_t fingerprint_events = 0;
};

/// Runs one block-level swarm simulation.
[[nodiscard]] SwarmSimResult run_swarm_sim(const SwarmSimConfig& config);

/// Runs `runs` independent replications (seeds seed, seed+1, ...) and
/// merges the per-peer download-time statistics; convenience for the
/// Figure 5/6 experiments which average 10 runs.
///
/// Replications run in parallel according to `policy` (default: all
/// hardware threads, overridable via SWARMAVAIL_THREADS). Each replication
/// owns its simulator, RNG, and result slot, and results are returned in
/// seed order, so the output is bit-identical for every thread count.
[[nodiscard]] std::vector<SwarmSimResult> run_swarm_replications(
    const SwarmSimConfig& config, std::size_t runs,
    const sim::ParallelPolicy& policy = {});

}  // namespace swarmavail::swarm
