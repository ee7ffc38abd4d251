#include "sim/audit.hpp"

#include <string>

#include "util/check.hpp"

namespace swarmavail::sim::audit {

void check_monotone_time(SimTime previous, SimTime next) {
    SWARMAVAIL_INVARIANT(next >= previous,
                         "event time went backwards: next event at t=" +
                             std::to_string(next) + " precedes clock t=" +
                             std::to_string(previous));
}

void check_nonnegative_count(const char* what, std::int64_t count) {
    SWARMAVAIL_INVARIANT(count >= 0, std::string(what) + " count went negative (" +
                                         std::to_string(count) + ")");
}

void check_peer_conservation(std::uint64_t arrivals, std::uint64_t served,
                             std::uint64_t lost, std::uint64_t in_system) {
    SWARMAVAIL_INVARIANT(
        arrivals == served + lost + in_system,
        "peer conservation violated: " + std::to_string(arrivals) + " arrivals != " +
            std::to_string(served) + " served + " + std::to_string(lost) + " lost + " +
            std::to_string(in_system) + " in system");
}

}  // namespace swarmavail::sim::audit
