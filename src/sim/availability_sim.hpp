// Flow-level swarm availability simulator.
//
// Implements the paper's queueing dynamics exactly, with none of the model's
// closed-form approximations: peers arrive Poisson(lambda) and download for
// Exp(s/mu) while content is available; publishers either arrive Poisson(r)
// staying Exp(u) (Sections 3.2-3.3) or alternate on/off as a single source
// (Section 4.3); content is available from a publisher's arrival until no
// publisher is online and the peer coverage drops below the threshold m
// (Section 3.1 / Figure 2). Peers caught by an idle period either wait
// (patient, Section 3.3.2) or leave (impatient, Section 3.3.1), and
// completed peers may linger as seeds (Section 3.3.4).
//
// The simulator is the validation target for every closed-form expression in
// src/model: tests compare its measured busy periods, unavailability and
// download times against eqs. 9-16.
#pragma once

#include <cstdint>

#include "model/params.hpp"
#include "util/stats.hpp"

namespace swarmavail {
class MetricsRegistry;
}  // namespace swarmavail

namespace swarmavail::sim {

class Tracer;

/// How publishers behave.
enum class PublisherMode {
    /// Publishers arrive Poisson(r) and stay Exp(u); several may overlap.
    kPoissonArrivals,
    /// One publisher alternates on for Exp(u) / off for Exp(1/r)
    /// (the Section 4.3 PlanetLab setup).
    kSingleOnOff,
};

/// Configuration of one availability-simulation run.
struct AvailabilitySimConfig {
    model::SwarmParams params;          ///< lambda, s, mu, r, u
    std::size_t coverage_threshold = 1; ///< m: peers needed to keep content alive
    bool patient_peers = true;          ///< wait for a publisher vs leave
    double linger_time = 0.0;           ///< mean post-completion seeding time (0: none)
    PublisherMode publisher_mode = PublisherMode::kPoissonArrivals;
    double horizon = 1.0e6;             ///< simulated seconds
    std::uint64_t seed = 1;
    /// Invariant-audit mode: after every event, re-verify the busy-period
    /// bookkeeping (peer conservation, non-negative populations, monotone
    /// event time). Throws swarmavail::CheckFailure on corruption. Costs a
    /// few O(1) checks per event; off by default.
    bool debug_audit = false;
    /// Optional single-owner metrics registry (see util/metrics.hpp): the
    /// run records its counters/gauges/histograms under "avail.*" names.
    /// The registry must outlive the run. Null: no metrics overhead.
    MetricsRegistry* metrics = nullptr;
    /// Optional structured-event tracer (see sim/trace.hpp). The tracer's
    /// runtime enable flag still applies. Null: one branch per call site.
    Tracer* tracer = nullptr;
    /// Determinism fingerprint (see sim/fingerprint.hpp): fold every event
    /// handled by this process — (now, ordinal, kind) — plus the final RNG
    /// draw count into the result's fingerprint. Queue-agnostic by design,
    /// so a swarm digests identically on a private or a shared queue. Pure
    /// observer (cannot change any result bit); ignored when the build
    /// defines SWARMAVAIL_OBSERVE_DISABLED.
    bool fingerprint = true;
};

/// Aggregate outcome of a run.
struct AvailabilitySimResult {
    StreamingStats busy_periods;          ///< lengths of completed busy periods (s)
    StreamingStats idle_periods;          ///< lengths of completed idle periods (s)
    StreamingStats download_times;        ///< arrival -> completion per served peer (s)
    StreamingStats waiting_times;         ///< idle wait component per served peer (s)
    StreamingStats peers_per_busy_period; ///< completions per busy period
    std::uint64_t arrivals = 0;           ///< total peer arrivals
    std::uint64_t served = 0;             ///< peers that completed the download
    std::uint64_t lost = 0;               ///< impatient peers that left unserved
    std::uint64_t stranded = 0;           ///< peers interrupted by a busy-period end
    double unavailable_time_fraction = 0.0;  ///< time-average unavailability
    double arrival_unavailability = 0.0;     ///< fraction of arrivals finding no content
    /// Publisher-load observables (0 <-> >=1 crossings of the online
    /// publisher count): how often and how long publishers carried the swarm.
    std::uint64_t publisher_up_transitions = 0;  ///< offline -> online crossings
    double publisher_online_fraction = 0.0;      ///< time fraction with a publisher online
    /// Determinism fingerprint of the run's event path (0 when
    /// fingerprinting is off or compiled out): the digest of every handled
    /// event plus the RNG draw count, and the events folded into it. Two
    /// runs with equal configs must match here; a mismatch means the
    /// executions diverged even if the statistics happen to agree.
    std::uint64_t fingerprint = 0;
    std::uint64_t fingerprint_events = 0;
};

/// Runs the simulation for `config.horizon` simulated seconds.
[[nodiscard]] AvailabilitySimResult run_availability_sim(const AvailabilitySimConfig& config);

}  // namespace swarmavail::sim
