// Invariant-audit layer of the block-level swarm simulator: negative tests
// hand the audit checks deliberately corrupted piece/slot/capacity state and
// assert detection; positive tests run the full simulator with debug_audit
// across the paper's experiment shapes and verify healthy runs stay clean
// and unperturbed.
#include "swarm/audit.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "swarm/piece_set.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarm_fingerprint_table.hpp"
#include "util/check.hpp"

namespace swarmavail::swarm {
namespace {

SwarmSimConfig base_config() {
    SwarmSimConfig config;
    config.bundle_size = 2;
    config.file_size = 1.0e6 * 8.0;
    config.pieces_per_file = 4;
    config.peer_arrival_rate = 1.0 / 40.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(50.0 * kKBps);
    config.publisher_capacity = 100.0 * kKBps;
    config.publisher = PublisherBehavior::kOnOff;
    config.horizon = 1500.0;
    config.seed = 7;
    config.debug_audit = true;
    return config;
}

// ---- negative tests: corrupted state must be caught --------------------

TEST(SwarmAudit, DetectsPieceCountMismatch) {
    // A bitmap holding 3 pieces while the cached counter says 5 is the
    // piece-accounting drift the audit exists to catch.
    EXPECT_THROW(audit::check_piece_accounting(3, 5), CheckFailure);
    EXPECT_THROW(audit::check_piece_accounting(5, 3), CheckFailure);
    EXPECT_NO_THROW(audit::check_piece_accounting(4, 4));
}

TEST(SwarmAudit, DetectsCapacityOvercommit) {
    // 120 Kbit/s handed out from a 100 Kbit/s link.
    EXPECT_THROW(audit::check_capacity_budget(120.0e3, 100.0e3), CheckFailure);
    EXPECT_NO_THROW(audit::check_capacity_budget(100.0e3, 100.0e3));
    EXPECT_NO_THROW(audit::check_capacity_budget(99.9e3, 100.0e3));
    // Float accumulation slack is tolerated; a whole extra slot is not.
    EXPECT_NO_THROW(audit::check_capacity_budget(100.0e3 * (1.0 + 1.0e-12), 100.0e3));
}

TEST(SwarmAudit, DetectsSlotOvercommit) {
    EXPECT_THROW(audit::check_slot_budget("peer upload slots", 5, 4), CheckFailure);
    EXPECT_NO_THROW(audit::check_slot_budget("peer upload slots", 4, 4));
    EXPECT_NO_THROW(audit::check_slot_budget("peer upload slots", 0, 4));
}

TEST(SwarmAudit, DetectsHolderCounterDrift) {
    // The per-piece holder counter says 4 holders but only 3 online bitmaps
    // contain the piece (a stale entry after a departure).
    EXPECT_THROW(audit::check_holder_consistency(2, 4, 3), CheckFailure);
    EXPECT_NO_THROW(audit::check_holder_consistency(2, 3, 3));
}

TEST(SwarmAudit, PieceSetOverloadAuditsHealthyBitmaps) {
    PieceSet set{8};
    EXPECT_NO_THROW(audit::check_piece_accounting(set));
    set.add(0);
    set.add(5);
    EXPECT_NO_THROW(audit::check_piece_accounting(set));
    EXPECT_EQ(set.recount(), set.count());
    const PieceSet seed = PieceSet::complete(8);
    EXPECT_EQ(seed.recount(), 8u);
    EXPECT_NO_THROW(audit::check_piece_accounting(seed));
}

TEST(SwarmAudit, FailureCarriesFileLineAndMessage) {
    try {
        audit::check_capacity_budget(2.0e5, 1.0e5);
        FAIL() << "capacity overcommit was not detected";
    } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.file()).find("audit.cpp"), std::string::npos);
        EXPECT_GT(e.line(), 0);
        EXPECT_NE(e.message().find("capacity overcommitted"), std::string::npos);
    }
}

// ---- positive tests: healthy runs pass under audit ---------------------

TEST(SwarmAudit, OnOffPublisherRunStaysCleanUnderAudit) {
    const auto result = run_swarm_sim(base_config());
    EXPECT_GT(result.arrivals, 10u);
}

TEST(SwarmAudit, LingeringSeedsRunStaysCleanUnderAudit) {
    auto config = base_config();
    config.peers_linger = true;
    config.linger_mean = 200.0;
    config.drain_after_horizon = true;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.completions, 0u);
}

TEST(SwarmAudit, SuperSeedingAndReciprocityRunStaysCleanUnderAudit) {
    auto config = base_config();
    config.super_seeding = true;
    config.reciprocity_cap = true;
    config.peer_capacity = std::make_shared<BitTyrantCapacity>();
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.arrivals, 10u);
}

TEST(SwarmAudit, LimitedVisibilityRunStaysCleanUnderAudit) {
    auto config = base_config();
    config.max_neighbors = 3;
    config.publisher = PublisherBehavior::kLeaveAfterFirstCompletion;
    const auto result = run_swarm_sim(config);
    EXPECT_GT(result.arrivals, 10u);
}

TEST(SwarmAudit, AuditModeDoesNotPerturbResults) {
    auto config = base_config();
    config.debug_audit = false;
    const auto plain = run_swarm_sim(config);
    config.debug_audit = true;
    const auto audited = run_swarm_sim(config);
    EXPECT_EQ(plain.arrivals, audited.arrivals);
    EXPECT_EQ(plain.completions, audited.completions);
    EXPECT_DOUBLE_EQ(plain.available_fraction, audited.available_fraction);
    EXPECT_EQ(plain.completion_times, audited.completion_times);
}

TEST(SwarmAudit, EveryFingerprintShapeRunsCleanAndUnperturbedUnderAudit) {
    // The fingerprint table's shapes reach the bookkeeping the audit
    // recomputes in every form: offer counts over two words (K = 10, 80
    // pieces) and a ragged tail (90 pieces), holder lists thinned by
    // departures and lingering seeds, limited visibility, super-seeding.
    for (const fingerprint_table::Row& row : fingerprint_table::rows()) {
        SCOPED_TRACE(row.name);
        SwarmSimConfig config = fingerprint_table::config_for(row.shape);
        const SwarmSimResult plain = run_swarm_sim(config);
        config.debug_audit = true;
        SwarmSimResult audited;
        EXPECT_NO_THROW(audited = run_swarm_sim(config));
        EXPECT_EQ(audited.fingerprint, plain.fingerprint);
        EXPECT_EQ(audited.fingerprint_events, plain.fingerprint_events);
        EXPECT_EQ(audited.completion_times, plain.completion_times);
    }
}

}  // namespace
}  // namespace swarmavail::swarm
