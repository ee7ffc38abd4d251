// One swarm's busy-period process, attachable to a caller-owned EventQueue.
//
// AvailabilityProcess is the engine behind run_availability_sim, factored
// out so many statistically independent swarms can be multiplexed onto one
// shared queue. Each process owns
// its Rng (seeded from its config), draws randomness only inside its own
// event handlers, and schedules only its own events — so a process's sample
// path depends solely on its config, never on what else shares the queue.
// Interleaving N processes on one queue therefore reproduces, bit for bit,
// the results of running each in isolation (see DESIGN.md §11).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/availability_sim.hpp"

namespace swarmavail::sim {

class EventQueue;

/// A single swarm's availability dynamics running on an external queue.
///
/// Lifecycle: construct against a queue, start() to schedule the arrival
/// and publisher processes, drive the queue (typically
/// `queue.run_until(config.horizon)`), then finish() exactly once to close
/// the open busy/idle/publisher intervals at the horizon and collect the
/// result. The process must outlive every event it has scheduled, i.e.
/// keep it alive until the queue has run past the horizon.
class AvailabilityProcess {
 public:
    /// Validates `config` (same contract as run_availability_sim). The
    /// queue must outlive the process. `config.debug_audit` gates this
    /// process's state audits only; auditing the queue itself is the
    /// owner's call (`queue.set_audit`).
    AvailabilityProcess(EventQueue& queue, const AvailabilitySimConfig& config);
    ~AvailabilityProcess();

    AvailabilityProcess(AvailabilityProcess&&) noexcept;
    AvailabilityProcess& operator=(AvailabilityProcess&&) noexcept;
    AvailabilityProcess(const AvailabilityProcess&) = delete;
    AvailabilityProcess& operator=(const AvailabilityProcess&) = delete;

    /// Schedules the peer-arrival and publisher processes up to the
    /// config's horizon. Call once, before driving the queue.
    void start();

    /// Closes the final availability/publisher intervals at the config's
    /// horizon, flushes the attached tracer (if any), and returns the
    /// aggregate result. Call once, after the queue ran past the horizon.
    [[nodiscard]] AvailabilitySimResult finish();

    [[nodiscard]] const AvailabilitySimConfig& config() const noexcept;

    /// Digest of the events folded so far (0 when fingerprinting is off or
    /// compiled out). Safe to poll between run_until slices: this is how
    /// divergence_hunt takes checkpoint fingerprints without perturbing
    /// the run.
    [[nodiscard]] std::uint64_t fingerprint_digest() const noexcept;

 private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace swarmavail::sim
