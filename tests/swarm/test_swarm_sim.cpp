#include "swarm/swarm_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/telemetry.hpp"

namespace swarmavail::swarm {
namespace {

SwarmSimConfig base_config() {
    SwarmSimConfig config;
    config.bundle_size = 1;
    config.file_size = 4.0e6 * 8.0;
    config.pieces_per_file = 8;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(50.0 * kKBps);
    config.publisher_capacity = 100.0 * kKBps;
    config.publisher = PublisherBehavior::kAlwaysOn;
    config.horizon = 3000.0;
    config.seed = 1;
    return config;
}

TEST(SwarmSim, AlwaysOnPublisherServesEveryone) {
    auto config = base_config();
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.arrivals, 20u);
    EXPECT_EQ(result.completions, result.arrivals);
    EXPECT_EQ(result.stuck_at_horizon, 0u);
    EXPECT_NEAR(result.available_fraction, 1.0, 1e-9);
}

TEST(SwarmSim, DownloadTimeNearServiceTimeWhenAvailable) {
    auto config = base_config();
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    // s/mu = 4 MB / 50 KBps = 80 s; allow protocol overhead.
    EXPECT_GT(result.download_times.mean(), 60.0);
    EXPECT_LT(result.download_times.mean(), 200.0);
}

TEST(SwarmSim, PeerRecordsConsistent) {
    auto config = base_config();
    config.publisher = PublisherBehavior::kOnOff;
    const auto result = run_swarm_sim(config);
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
    EXPECT_EQ(result.completion_times.size(), result.completions);
    EXPECT_TRUE(std::is_sorted(result.completion_times.begin(),
                               result.completion_times.end()));
}

TEST(SwarmSim, SeedlessSwarmDiesAtK1) {
    // Figure 4: K=1 swarms lose the content almost immediately after the
    // publisher departs.
    auto config = base_config();
    config.peer_arrival_rate = 1.0 / 150.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(33.0 * kKBps);
    config.publisher_capacity = 50.0 * kKBps;
    config.publisher = PublisherBehavior::kLeaveAfterFirstCompletion;
    config.horizon = 1500.0;
    std::size_t total_completions = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        config.seed = seed;
        total_completions += run_swarm_sim(config).completions;
    }
    EXPECT_LE(total_completions, 15u);  // ~1-2 per run
}

TEST(SwarmSim, SeedlessSwarmSelfSustainsAtK8) {
    // Figure 4: K >= 6 keeps serving peers linearly without any publisher.
    auto config = base_config();
    config.bundle_size = 8;
    config.peer_arrival_rate = 1.0 / 150.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(33.0 * kKBps);
    config.publisher_capacity = 50.0 * kKBps;
    config.publisher = PublisherBehavior::kLeaveAfterFirstCompletion;
    config.horizon = 1500.0;
    config.seed = 3;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.completions, 10u);
    EXPECT_GT(result.last_completion, 1200.0);
}

TEST(SwarmSim, OnOffPublisherBlocksSmallBundles) {
    // Figure 5: K=2 with an intermittent publisher produces blocked peers
    // whose downloads far exceed the 160 s service time.
    auto config = base_config();
    config.bundle_size = 2;
    config.publisher = PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 6000.0;
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.download_times.max(), 500.0);
}

TEST(SwarmSim, LingeringSeedsKeepContentAlive) {
    auto config = base_config();
    config.publisher = PublisherBehavior::kLeaveAfterFirstCompletion;
    config.peer_arrival_rate = 1.0 / 100.0;
    config.horizon = 4000.0;
    auto lingering = config;
    lingering.peers_linger = true;
    lingering.linger_mean = 600.0;
    const auto without = run_swarm_sim(config);
    const auto with = run_swarm_sim(lingering);
    EXPECT_GT(with.completions, without.completions);
    EXPECT_GT(with.available_fraction, without.available_fraction);
}

TEST(SwarmSim, DeterministicForFixedSeed) {
    const auto config = base_config();
    const auto a = run_swarm_sim(config);
    const auto b = run_swarm_sim(config);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.completion_times, b.completion_times);
}

TEST(SwarmSim, ReplicationsUseDistinctSeeds) {
    const auto runs = run_swarm_replications(base_config(), 3);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_FALSE(runs[0].completion_times == runs[1].completion_times &&
                 runs[1].completion_times == runs[2].completion_times);
}

TEST(SwarmSim, TelemetryAttachmentIsObserverNeutral) {
    // Replication results with a live telemetry session must be
    // bit-identical to the detached run at every thread count.
    auto config = base_config();
    config.publisher = PublisherBehavior::kOnOff;
    const auto detached =
        run_swarm_replications(config, 4, sim::ParallelPolicy{1});

    for (std::size_t threads : {1u, 2u, 4u}) {
        telemetry::TelemetrySession session{telemetry::TelemetryConfig{60.0, {}}};
        config.telemetry = &session;
        const auto observed =
            run_swarm_replications(config, 4, sim::ParallelPolicy{threads});
        config.telemetry = nullptr;

        ASSERT_EQ(observed.size(), detached.size());
        for (std::size_t i = 0; i < observed.size(); ++i) {
            EXPECT_EQ(observed[i].arrivals, detached[i].arrivals);
            EXPECT_EQ(observed[i].completions, detached[i].completions);
            EXPECT_EQ(observed[i].completion_times, detached[i].completion_times);
            EXPECT_EQ(observed[i].download_times.mean(),
                      detached[i].download_times.mean());
        }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        // The counters observed all four replications (trace-off preset:
        // the engine call sites compile out and the counters stay zero).
        EXPECT_EQ(session.counters().replications_total.load(), 4u);
        EXPECT_EQ(session.counters().replications_completed.load(), 4u);
        EXPECT_GT(session.counters().events_dispatched.load(), 0u);
        EXPECT_DOUBLE_EQ(session.counters().sim_time_advanced.load(),
                         4.0 * config.horizon);
#endif
    }
}

TEST(SwarmSim, AvailabilityIntervalsWellFormed) {
    auto config = base_config();
    config.publisher = PublisherBehavior::kOnOff;
    config.horizon = 8000.0;
    const auto result = run_swarm_sim(config);
    double previous_end = 0.0;
    for (const auto& interval : result.available_intervals) {
        EXPECT_LT(interval.begin, interval.end);
        EXPECT_GE(interval.begin, previous_end);
        previous_end = interval.end;
    }
    EXPECT_GE(result.available_fraction, 0.0);
    EXPECT_LE(result.available_fraction, 1.0);
}

TEST(SwarmSim, DrainServesBlockedPeers) {
    auto config = base_config();
    config.bundle_size = 2;
    config.publisher = PublisherBehavior::kOnOff;
    config.horizon = 2400.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 20.0;
    const auto result = run_swarm_sim(config);
    // With generous drain time, essentially everyone eventually completes.
    EXPECT_LE(result.stuck_at_horizon, result.arrivals / 10);
}

TEST(SwarmSim, ZeroJitterIsAccepted) {
    auto config = base_config();
    config.transfer_jitter = 0.0;
    EXPECT_NO_THROW((void)run_swarm_sim(config));
}

TEST(SwarmSim, RejectsInvalidConfig) {
    auto config = base_config();
    config.bundle_size = 0;
    EXPECT_THROW((void)run_swarm_sim(config), std::invalid_argument);
    config = base_config();
    config.peer_capacity = nullptr;
    EXPECT_THROW((void)run_swarm_sim(config), std::invalid_argument);
    config = base_config();
    config.transfer_jitter = 1.0;
    EXPECT_THROW((void)run_swarm_sim(config), std::invalid_argument);
    config = base_config();
    config.pieces_per_file = 0;
    EXPECT_THROW((void)run_swarm_sim(config), std::invalid_argument);
    EXPECT_THROW((void)run_swarm_replications(base_config(), 0), std::invalid_argument);
}

// An infinite horizon passes `horizon > 0` but would never end the run.
TEST(SwarmSim, RejectsInfiniteHorizon) {
    auto config = base_config();
    config.horizon = std::numeric_limits<double>::infinity();
    try {
        (void)run_swarm_sim(config);
        ADD_FAILURE() << "an infinite horizon was accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("SwarmSim: horizon must be finite"),
                  std::string::npos)
            << error.what();
    }
}

TEST(SwarmSim, RejectsDrainDeadlineBelowHorizon) {
    // A factor below 1 would put the hard deadline before the horizon, and
    // the drain's end-time clamp needs deadline >= horizon.
    auto config = base_config();
    config.bundle_size = 2;
    config.drain_after_horizon = true;
    for (const double factor : {0.5, 0.0, -1.0, std::nan("")}) {
        config.drain_deadline_factor = factor;
        EXPECT_THROW((void)run_swarm_sim(config), std::invalid_argument) << factor;
    }
    config.drain_deadline_factor = 1.0;
    EXPECT_NO_THROW((void)run_swarm_sim(config));
    // Without draining the factor is unused.
    config.drain_after_horizon = false;
    config.drain_deadline_factor = 0.5;
    EXPECT_NO_THROW((void)run_swarm_sim(config));
}

TEST(SwarmSim, TraceDrivenArrivalsFollowTrace) {
    auto config = base_config();
    config.arrival_trace = {10.0, 20.0, 30.0, 500.0};
    config.horizon = 1000.0;
    const auto result = run_swarm_sim(config);
    EXPECT_EQ(result.arrivals, 4u);
    ASSERT_EQ(result.peers.size(), 4u);
    EXPECT_DOUBLE_EQ(result.peers[0].arrival, 10.0);
    EXPECT_DOUBLE_EQ(result.peers[3].arrival, 500.0);
}

TEST(SwarmSim, TraceArrivalsBeyondHorizonDropped) {
    auto config = base_config();
    config.arrival_trace = {10.0, 5000.0};
    config.horizon = 1000.0;
    const auto result = run_swarm_sim(config);
    EXPECT_EQ(result.arrivals, 1u);
}

TEST(SwarmSim, EmptyTraceMeansNoArrivalsWouldUsePoisson) {
    // An empty trace falls back to the Poisson process.
    auto config = base_config();
    config.arrival_trace.clear();
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.arrivals, 0u);
}

TEST(SwarmSim, SuperSeedingSpreadsCopiesFaster) {
    // With super-seeding the publisher's single copy reaches more peers
    // before it departs: the seedless swarm survives longer at the
    // boundary bundle size.
    auto config = base_config();
    config.bundle_size = 4;
    config.peer_arrival_rate = 1.0 / 150.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(33.0 * kKBps);
    config.publisher_capacity = 50.0 * kKBps;
    config.publisher = PublisherBehavior::kLeaveAfterFirstCompletion;
    config.horizon = 1500.0;
    std::uint64_t plain = 0;
    std::uint64_t super = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        config.seed = seed;
        config.super_seeding = false;
        plain += run_swarm_sim(config).completions;
        config.super_seeding = true;
        super += run_swarm_sim(config).completions;
    }
    EXPECT_GE(super, plain);
}

TEST(SwarmSim, SuperSeedingStillServesLonePeer) {
    // A single peer with no other holders must still be served by a
    // super-seeding publisher (every piece has zero holders initially).
    auto config = base_config();
    config.super_seeding = true;
    config.arrival_trace = {1.0};
    config.horizon = 2000.0;
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    EXPECT_EQ(result.completions, 1u);
}

TEST(SwarmSim, LimitedVisibilityStillServesPeers) {
    auto config = base_config();
    config.max_neighbors = 4;
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.completions, 10u);
    // The always-on publisher is reachable regardless of the view, so
    // everyone eventually completes.
    EXPECT_EQ(result.stuck_at_horizon, 0u);
}

TEST(SwarmSim, LimitedVisibilityDeterministic) {
    auto config = base_config();
    config.max_neighbors = 3;
    const auto a = run_swarm_sim(config);
    const auto b = run_swarm_sim(config);
    EXPECT_EQ(a.completion_times, b.completion_times);
}

TEST(SwarmSim, TinyViewsHurtSeedlessSurvival) {
    // With the publisher gone, a 2-neighbor view fragments the swarm and
    // fewer peers complete than under global visibility.
    auto config = base_config();
    config.bundle_size = 6;
    config.peer_arrival_rate = 1.0 / 150.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(33.0 * kKBps);
    config.publisher_capacity = 50.0 * kKBps;
    config.publisher = PublisherBehavior::kLeaveAfterFirstCompletion;
    config.horizon = 1500.0;
    std::uint64_t global_served = 0;
    std::uint64_t narrow_served = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        config.seed = seed;
        config.max_neighbors = 0;
        global_served += run_swarm_sim(config).completions;
        config.max_neighbors = 2;
        narrow_served += run_swarm_sim(config).completions;
    }
    EXPECT_GE(global_served, narrow_served);
}

TEST(SwarmSim, PexGrowsViewsBeyondTrackerHandout) {
    // With a moderate view and PEX expansion, limited visibility performs
    // close to global visibility on an always-available swarm.
    auto config = base_config();
    config.drain_after_horizon = true;
    config.max_neighbors = 0;
    const auto global = run_swarm_sim(config);
    config.max_neighbors = 8;
    const auto limited = run_swarm_sim(config);
    ASSERT_GT(limited.completions, 0u);
    EXPECT_NEAR(limited.download_times.mean(), global.download_times.mean(),
                0.5 * global.download_times.mean());
}

TEST(SwarmSim, HeterogeneousCapacitiesRun) {
    auto config = base_config();
    config.peer_capacity = std::make_shared<BitTyrantCapacity>();
    config.publisher = PublisherBehavior::kOnOff;
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.completions, 0u);
    // Capacities recorded per peer should vary.
    double min_cap = 1e18;
    double max_cap = 0.0;
    for (const auto& peer : result.peers) {
        min_cap = std::min(min_cap, peer.capacity);
        max_cap = std::max(max_cap, peer.capacity);
    }
    EXPECT_GT(max_cap, 2.0 * min_cap);
}

}  // namespace
}  // namespace swarmavail::swarm
