// Determinism-fingerprint tests: the hash chain itself, observer
// neutrality (fingerprint on == off results, bit for bit), and the
// cross-execution invariance the repo's determinism contract promises —
// identical digests at every thread count — plus the converse: a seed perturbation that changes the results must change
// the digest.
#include "sim/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "sim/availability_sim.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/stats.hpp"

namespace swarmavail::sim {
namespace {

TEST(FingerprintChain, OrderSensitive) {
    Fingerprint forward;
    forward.fold_event(1.0, 1U);
    forward.fold_event(2.0, 2U);
    Fingerprint swapped;
    swapped.fold_event(2.0, 2U);
    swapped.fold_event(1.0, 1U);
    EXPECT_NE(forward.digest(), swapped.digest());
    EXPECT_EQ(forward.events(), 2U);
    EXPECT_EQ(swapped.events(), 2U);
}

TEST(FingerprintChain, SeedSeparatesChains) {
    Fingerprint a{1};
    Fingerprint b{2};
    EXPECT_NE(a.digest(), b.digest());
    a.fold_event(5.0, 3U);
    b.fold_event(5.0, 3U);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FingerprintChain, EventCountSeparatesPrefixes) {
    // A run that stopped early must not alias a longer run: the digest
    // folds the event count, so even a (contrived) state collision cannot
    // make unequal-length chains agree by default.
    Fingerprint a;
    a.fold_event(1.0, 1U);
    Fingerprint b;
    b.fold_event(1.0, 1U);
    b.fold_event(1.0, 1U);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FingerprintChain, DoubleFoldsByBitPattern) {
    Fingerprint pos;
    pos.fold(0.0);
    Fingerprint neg;
    neg.fold(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());
}

TEST(FingerprintChain, ChildMergeIsOrderSensitive) {
    Fingerprint child_a{1};
    child_a.fold_event(1.0, 1U);
    Fingerprint child_b{2};
    child_b.fold_event(2.0, 2U);
    Fingerprint ab;
    ab.fold_child(child_a);
    ab.fold_child(child_b);
    Fingerprint ba;
    ba.fold_child(child_b);
    ba.fold_child(child_a);
    EXPECT_NE(ab.digest(), ba.digest());
}

TEST(FingerprintChain, HexIsSixteenZeroPaddedDigits) {
    EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
    EXPECT_EQ(fingerprint_hex(0x1a2b3c4d5e6fULL), "00001a2b3c4d5e6f");
    EXPECT_EQ(fingerprint_hex(~0ULL), "ffffffffffffffff");
}

// ---- engine integration ---------------------------------------------------

AvailabilitySimConfig availability_config(std::uint64_t seed) {
    AvailabilitySimConfig config;
    config.params.peer_arrival_rate = 1.0 / 90.0;
    config.params.content_size = 80.0;
    config.params.download_rate = 1.0;
    config.params.publisher_arrival_rate = 1.0 / 900.0;
    config.params.publisher_residence = 300.0;
    config.horizon = 5.0e4;
    config.seed = seed;
    return config;
}

void expect_stats_equal(const StreamingStats& a, const StreamingStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void expect_same_statistics(const AvailabilitySimResult& a,
                            const AvailabilitySimResult& b) {
    expect_stats_equal(a.busy_periods, b.busy_periods);
    expect_stats_equal(a.idle_periods, b.idle_periods);
    expect_stats_equal(a.download_times, b.download_times);
    expect_stats_equal(a.waiting_times, b.waiting_times);
    expect_stats_equal(a.peers_per_busy_period, b.peers_per_busy_period);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.stranded, b.stranded);
    EXPECT_EQ(a.unavailable_time_fraction, b.unavailable_time_fraction);
    EXPECT_EQ(a.arrival_unavailability, b.arrival_unavailability);
    EXPECT_EQ(a.publisher_up_transitions, b.publisher_up_transitions);
    EXPECT_EQ(a.publisher_online_fraction, b.publisher_online_fraction);
}

TEST(FingerprintAvailability, ReproducibleAcrossRuns) {
    const auto first = run_availability_sim(availability_config(11));
    const auto second = run_availability_sim(availability_config(11));
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    EXPECT_EQ(first.fingerprint, 0U);
    EXPECT_EQ(second.fingerprint, 0U);
#else
    EXPECT_NE(first.fingerprint, 0U);
    EXPECT_GT(first.fingerprint_events, 0U);
#endif
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.fingerprint_events, second.fingerprint_events);
}

TEST(FingerprintAvailability, ObserverNeutralityOnEqualsOff) {
    auto config = availability_config(12);
    const auto with = run_availability_sim(config);
    config.fingerprint = false;
    const auto without = run_availability_sim(config);
    EXPECT_EQ(without.fingerprint, 0U);
    EXPECT_EQ(without.fingerprint_events, 0U);
    expect_same_statistics(with, without);
}

TEST(FingerprintAvailability, SeedPerturbationMovesDigestWithResults) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    const auto base = run_availability_sim(availability_config(13));
    const auto perturbed = run_availability_sim(availability_config(14));
    // The perturbed run is a different sample path...
    EXPECT_NE(base.arrivals, perturbed.arrivals);
    // ...and the digest says so without comparing any statistic.
    EXPECT_NE(base.fingerprint, perturbed.fingerprint);
#endif
}

swarm::SwarmSimConfig swarm_config(std::uint64_t seed) {
    swarm::SwarmSimConfig config;
    config.bundle_size = 2;
    config.file_size = 4.0e6 * 8.0;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity =
        std::make_shared<swarm::HomogeneousCapacity>(50.0 * swarm::kKBps);
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.horizon = 4000.0;
    config.seed = seed;
    return config;
}

TEST(FingerprintSwarm, ReproducibleAndNeutral) {
    auto config = swarm_config(21);
    const auto first = swarm::run_swarm_sim(config);
    const auto second = swarm::run_swarm_sim(config);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.fingerprint_events, second.fingerprint_events);
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    EXPECT_NE(first.fingerprint, 0U);
#endif
    config.fingerprint = false;
    const auto off = swarm::run_swarm_sim(config);
    EXPECT_EQ(off.fingerprint, 0U);
    EXPECT_EQ(off.completion_times, first.completion_times);
    EXPECT_EQ(off.available_fraction, first.available_fraction);
    EXPECT_EQ(off.stuck_at_horizon, first.stuck_at_horizon);
}

TEST(FingerprintSwarm, SeedPerturbationMovesDigest) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting compiled out";
#else
    const auto base = swarm::run_swarm_sim(swarm_config(21));
    const auto perturbed = swarm::run_swarm_sim(swarm_config(22));
    EXPECT_NE(base.fingerprint, perturbed.fingerprint);
#endif
}

// ---- catalog-wide invariances ---------------------------------------------

catalog::CatalogConfig catalog_config(std::size_t files) {
    catalog::CatalogConfig config;
    config.num_files = files;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = static_cast<double>(files) / 60.0;
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return config;
}

catalog::CatalogEngineConfig engine_config() {
    catalog::CatalogEngineConfig config;
    config.horizon = 2.0e4;
    config.seed = 20090101;
    return config;
}

TEST(FingerprintCatalog, IdenticalAcrossThreadCounts) {
    const auto cat = catalog::build_catalog(catalog_config(12));
    const catalog::FixedK policy{3};
    std::vector<catalog::CatalogReport> reports;
    for (const std::size_t threads : {1U, 2U, 4U, 8U}) {
        auto config = engine_config();
        config.policy = ParallelPolicy{threads};
        reports.push_back(catalog::run_catalog(cat, policy, config));
    }
    for (std::size_t i = 1; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].fingerprint, reports[0].fingerprint)
            << "catalog fingerprint diverged at thread count " << (1U << i);
        ASSERT_EQ(reports[i].swarms.size(), reports[0].swarms.size());
        for (std::size_t s = 0; s < reports[i].swarms.size(); ++s) {
            EXPECT_EQ(reports[i].swarms[s].result.fingerprint,
                      reports[0].swarms[s].result.fingerprint);
        }
    }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    EXPECT_NE(reports[0].fingerprint, 0U);
#endif
}

TEST(FingerprintCatalog, RuntimeOffZeroesDigestsOnly) {
    const auto cat = catalog::build_catalog(catalog_config(6));
    const catalog::FixedK policy{2};
    auto config = engine_config();
    const auto with = catalog::run_catalog(cat, policy, config);
    config.fingerprint = false;
    const auto without = catalog::run_catalog(cat, policy, config);
    EXPECT_EQ(without.fingerprint, 0U);
    ASSERT_EQ(without.swarms.size(), with.swarms.size());
    for (std::size_t s = 0; s < with.swarms.size(); ++s) {
        EXPECT_EQ(without.swarms[s].result.fingerprint, 0U);
        expect_same_statistics(with.swarms[s].result, without.swarms[s].result);
    }
    EXPECT_EQ(with.demand_weighted_unavailability,
              without.demand_weighted_unavailability);
}

}  // namespace
}  // namespace swarmavail::sim
