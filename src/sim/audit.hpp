// Runtime invariant-audit checks for the discrete-event simulators.
//
// Each function verifies one invariant of a simulator's bookkeeping and
// throws swarmavail::CheckFailure (with file/line/message) when the state is
// corrupt. The simulators call these at every event when their config's
// `debug_audit` flag is on; tests call them directly with deliberately
// corrupted values to prove the audit layer detects each violation class.
//
// The checks are built on SWARMAVAIL_INVARIANT, so they are active in every
// build type -- the cost is paid only when debug_audit is enabled.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"

namespace swarmavail::sim::audit {

/// Simulation time must never decrease: the event popped from the queue may
/// not precede the current clock. Throws CheckFailure if `next < previous`.
void check_monotone_time(SimTime previous, SimTime next);

/// A population counter (peers online, publishers online, lingering seeds)
/// must stay non-negative. Deltas are applied in signed arithmetic before
/// the check so an underflow of an unsigned counter is caught as the
/// negative value it logically is. Throws CheckFailure if `count < 0`.
void check_nonnegative_count(const char* what, std::int64_t count);

/// Peer conservation across arrivals and departures: every peer that ever
/// arrived is either served, lost, or still in the system.
/// Throws CheckFailure unless `arrivals == served + lost + in_system`.
void check_peer_conservation(std::uint64_t arrivals, std::uint64_t served,
                             std::uint64_t lost, std::uint64_t in_system);

}  // namespace swarmavail::sim::audit
