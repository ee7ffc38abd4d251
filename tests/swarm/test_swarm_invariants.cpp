// Parameterized invariant sweep over the swarm simulator's configuration
// space: every combination must run cleanly and satisfy conservation and
// well-formedness invariants, whatever the feature flags.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "swarm/swarm_sim.hpp"

namespace swarmavail::swarm {
namespace {

struct InvariantCase {
    std::size_t bundle_size;
    PublisherBehavior publisher;
    bool super_seeding;
    bool reciprocity_cap;
    std::size_t max_neighbors;
    double jitter;
    bool linger;
    bool hetero_capacity;
};

class SwarmInvariants : public ::testing::TestWithParam<InvariantCase> {};

/// A case's name from its fields (bundle size, publisher mode, then each
/// flag that is on), e.g. `k2_onoff_super_nb4_jitter0_linger`. It prints the
/// parameter, and ctest names an index-suffixed value-parameterized test by
/// its printed parameter, so the ctest name is
/// `ConfigSpace/SwarmInvariants.ConservationAndWellFormedness/<name>`. The
/// default would print the struct's bytes, padding included, which differ
/// between builds.
std::string describe(const InvariantCase& c) {
    std::string name = "k" + std::to_string(c.bundle_size);
    switch (c.publisher) {
        case PublisherBehavior::kAlwaysOn:
            name += "_always_on";
            break;
        case PublisherBehavior::kLeaveAfterFirstCompletion:
            name += "_leave";
            break;
        case PublisherBehavior::kOnOff:
            name += "_onoff";
            break;
    }
    if (c.super_seeding) {
        name += "_super";
    }
    if (c.reciprocity_cap) {
        name += "_recip";
    }
    if (c.max_neighbors > 0) {
        name += "_nb" + std::to_string(c.max_neighbors);
    }
    if (c.jitter != 0.15) {
        name += "_jitter" + std::to_string(std::lround(c.jitter * 100.0));
    }
    if (c.linger) {
        name += "_linger";
    }
    if (c.hetero_capacity) {
        name += "_hetero";
    }
    return name;
}

void PrintTo(const InvariantCase& c, std::ostream* os) { *os << describe(c); }

TEST_P(SwarmInvariants, ConservationAndWellFormedness) {
    const auto p = GetParam();
    SwarmSimConfig config;
    config.bundle_size = p.bundle_size;
    config.peer_arrival_rate = 1.0 / 60.0;
    if (p.hetero_capacity) {
        config.peer_capacity = std::make_shared<BitTyrantCapacity>();
    } else {
        config.peer_capacity = std::make_shared<HomogeneousCapacity>(50.0 * kKBps);
    }
    config.publisher_capacity = 100.0 * kKBps;
    config.publisher = p.publisher;
    config.super_seeding = p.super_seeding;
    config.reciprocity_cap = p.reciprocity_cap;
    config.max_neighbors = p.max_neighbors;
    config.transfer_jitter = p.jitter;
    config.peers_linger = p.linger;
    config.linger_mean = p.linger ? 120.0 : 0.0;
    config.horizon = 2400.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 4.0;
    config.seed = 99;

    const auto result = run_swarm_sim(config);

    // Conservation: every arrival is accounted for.
    EXPECT_EQ(result.peers.size(), result.arrivals);
    std::size_t completed = 0;
    for (const auto& peer : result.peers) {
        if (peer.completion >= 0.0) {
            ++completed;
            EXPECT_GE(peer.completion, peer.arrival);
        }
        EXPECT_GT(peer.capacity, 0.0);
    }
    EXPECT_EQ(completed, result.completions);
    EXPECT_GE(result.arrivals, result.completions);

    // Completion records well-formed and sorted.
    EXPECT_EQ(result.completion_times.size(), result.completions);
    EXPECT_TRUE(std::is_sorted(result.completion_times.begin(),
                               result.completion_times.end()));
    EXPECT_EQ(result.download_times.count(), result.completions);

    // Availability intervals disjoint, ordered, within the run.
    double previous_end = 0.0;
    for (const auto& interval : result.available_intervals) {
        EXPECT_LT(interval.begin, interval.end);
        EXPECT_GE(interval.begin, previous_end);
        previous_end = interval.end;
    }
    EXPECT_GE(result.available_fraction, 0.0);
    EXPECT_LE(result.available_fraction, 1.0);

    // Something must actually happen in every configuration.
    EXPECT_GT(result.arrivals, 10u);
    EXPECT_GT(result.completions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, SwarmInvariants,
    ::testing::Values(
        InvariantCase{1, PublisherBehavior::kAlwaysOn, false, false, 0, 0.15, false,
                      false},
        InvariantCase{3, PublisherBehavior::kOnOff, false, false, 0, 0.15, false,
                      false},
        InvariantCase{2, PublisherBehavior::kOnOff, true, false, 0, 0.15, false,
                      false},
        InvariantCase{2, PublisherBehavior::kOnOff, false, true, 0, 0.15, false, true},
        InvariantCase{2, PublisherBehavior::kOnOff, false, false, 5, 0.15, false,
                      false},
        InvariantCase{4, PublisherBehavior::kLeaveAfterFirstCompletion, false, false,
                      0, 0.15, true, false},
        InvariantCase{2, PublisherBehavior::kOnOff, true, true, 4, 0.0, true, true},
        InvariantCase{1, PublisherBehavior::kAlwaysOn, false, false, 2, 0.3, false,
                      true},
        InvariantCase{6, PublisherBehavior::kLeaveAfterFirstCompletion, true, false,
                      8, 0.15, false, false}));

}  // namespace
}  // namespace swarmavail::swarm
