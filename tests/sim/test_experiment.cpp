#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::sim {
namespace {

TEST(RunReplications, PoolsSamplesAcrossSeeds) {
    const auto cell = run_replications(
        "constant", [](std::uint64_t seed) {
            return std::vector<double>{static_cast<double>(seed)};
        },
        4, 10);
    EXPECT_EQ(cell.replications, 4u);
    EXPECT_EQ(cell.samples.size(), 4u);
    EXPECT_DOUBLE_EQ(cell.mean(), (10.0 + 11.0 + 12.0 + 13.0) / 4.0);
    EXPECT_EQ(cell.label, "constant");
}

TEST(RunReplications, EmptyReplicationsSkipped) {
    const auto cell = run_replications(
        "sparse", [](std::uint64_t seed) {
            return seed % 2 == 0 ? std::vector<double>{1.0} : std::vector<double>{};
        },
        4, 0);
    EXPECT_EQ(cell.samples.size(), 2u);
    EXPECT_EQ(cell.run_means.count(), 2u);
}

TEST(RunReplications, RunLevelCiUsesPerRunMeans) {
    const auto cell = run_replications(
        "two-runs", [](std::uint64_t seed) {
            // Run means 1.0 and 3.0 regardless of within-run spread.
            return seed == 0 ? std::vector<double>{0.5, 1.5}
                             : std::vector<double>{2.5, 3.5};
        },
        2, 0);
    EXPECT_DOUBLE_EQ(cell.run_means.mean(), 2.0);
    EXPECT_GT(cell.ci95(), 0.0);
}

TEST(RunReplications, RejectsInvalidArguments) {
    EXPECT_THROW(
        (void)run_replications("x", [](std::uint64_t) { return std::vector<double>{}; },
                               0, 0),
        std::invalid_argument);
    EXPECT_THROW((void)run_replications("x", nullptr, 1, 0), std::invalid_argument);
}

TEST(RunSweep, OneCellPerValueWithDistinctSeeds) {
    std::vector<std::uint64_t> seeds_seen;
    // The body mutates shared state, so force the serial policy (the
    // default may fan replications out over threads).
    const auto sweep = run_sweep(
        {1.0, 2.0},
        [&seeds_seen](double value, std::uint64_t seed) {
            seeds_seen.push_back(seed);
            return std::vector<double>{value};
        },
        3, 100, ParallelPolicy{1});
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_DOUBLE_EQ(sweep[0].value, 1.0);
    EXPECT_DOUBLE_EQ(sweep[1].cell.mean(), 2.0);
    // Seeds must not repeat across cells.
    std::sort(seeds_seen.begin(), seeds_seen.end());
    EXPECT_TRUE(std::adjacent_find(seeds_seen.begin(), seeds_seen.end()) ==
                seeds_seen.end());
}

TEST(BestPoint, FindsMinimumMean) {
    const auto sweep = run_sweep(
        {3.0, 1.0, 2.0},
        [](double value, std::uint64_t) { return std::vector<double>{value}; }, 2, 0);
    EXPECT_DOUBLE_EQ(best_point(sweep).value, 1.0);
}

TEST(BestPoint, RejectsDegenerateSweeps) {
    EXPECT_THROW((void)best_point({}), std::invalid_argument);
    std::vector<SweepPoint> empty_cell(1);
    EXPECT_THROW((void)best_point(empty_cell), std::invalid_argument);
}

TEST(RunSweep, StochasticBodyConverges) {
    // A noisy body whose true means differ: the sweep must rank correctly
    // with enough replications.
    const auto sweep = run_sweep(
        {10.0, 20.0},
        [](double value, std::uint64_t seed) {
            Rng rng{seed};
            std::vector<double> samples;
            for (int i = 0; i < 200; ++i) {
                samples.push_back(value + rng.uniform(-5.0, 5.0));
            }
            return samples;
        },
        5, 42);
    EXPECT_DOUBLE_EQ(best_point(sweep).value, 10.0);
    EXPECT_NEAR(sweep[0].cell.mean(), 10.0, 0.5);
    EXPECT_LT(sweep[0].cell.ci95(), 1.0);
}

// --- RunControl: telemetry attachment and early stopping -----------------

Replication noisy_body() {
    return [](std::uint64_t seed) {
        Rng rng{seed};
        std::vector<double> samples;
        for (int i = 0; i < 16; ++i) {
            samples.push_back(rng.uniform(0.0, 1.0));
        }
        return samples;
    };
}

void expect_cells_identical(const ExperimentCell& a, const ExperimentCell& b) {
    EXPECT_EQ(a.samples.samples(), b.samples.samples());  // bitwise, in order
    EXPECT_EQ(a.run_means.count(), b.run_means.count());
    EXPECT_EQ(a.run_means.mean(), b.run_means.mean());
    EXPECT_EQ(a.run_means.variance(), b.run_means.variance());
    EXPECT_EQ(a.completed_replications, b.completed_replications);
    EXPECT_EQ(a.stopped_early, b.stopped_early);
}

TEST(RunControl, NoStopRuleIsBitIdenticalToPolicyOverload) {
    // Attaching a telemetry session must not perturb any result, at any
    // thread count — the observer-neutrality half of the RunControl
    // contract. The reference is the plain serial overload.
    const auto reference =
        run_replications("cell", noisy_body(), 12, 500, ParallelPolicy{1});
    for (std::size_t threads : {1u, 2u, 4u}) {
        telemetry::MemoryTelemetryExporter ring;
        telemetry::TelemetryConfig telemetry_config;
        telemetry_config.interval_s = 0.005;
        telemetry_config.exporters.push_back(&ring);
        telemetry::TelemetrySession session{telemetry_config};
        session.start();

        RunControl control;
        control.policy = ParallelPolicy{threads};
        control.telemetry = &session;
        const auto cell = run_replications("cell", noisy_body(), 12, 500, control);
        session.stop();

        expect_cells_identical(cell, reference);
        EXPECT_FALSE(cell.stopped_early);
        EXPECT_EQ(cell.completed_replications, 12u);

        const auto final_snapshot = ring.snapshots().back();
        EXPECT_TRUE(final_snapshot.final_snapshot);
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        // ...and the run is genuinely observable: the counters advanced and
        // the tracker saw one run mean per replication under the cell label.
        // (Under the trace-off preset the engine call sites compile out, so
        // the counters legitimately stay at zero.)
        EXPECT_EQ(session.counters().replications_total.load(), 12u);
        EXPECT_EQ(session.counters().replications_completed.load(), 12u);
        ASSERT_EQ(final_snapshot.tracked.size(), 1u);
        EXPECT_EQ(final_snapshot.tracked[0].name, "cell");
        EXPECT_EQ(final_snapshot.tracked[0].count, 12u);
#endif
    }
}

TEST(RunControl, StopRuleEndsSerialBatchAtDeterministicPrefix) {
    // A constant body has zero CI half-width, so the rule fires the moment
    // min_observations is reached; under the serial policy the survivors
    // are exactly the seed-order prefix.
    std::mutex seen_mutex;
    std::vector<std::uint64_t> seeds_seen;
    RunControl control;
    control.policy = ParallelPolicy{1};
    control.stop_rule = telemetry::StopRule{0.5, 6};
    const auto cell = run_replications(
        "constant",
        [&](std::uint64_t seed) {
            const std::lock_guard<std::mutex> lock(seen_mutex);
            seeds_seen.push_back(seed);
            return std::vector<double>{2.5};
        },
        40, 1000, control);

    EXPECT_TRUE(cell.stopped_early);
    EXPECT_EQ(cell.replications, 40u);
    EXPECT_EQ(cell.completed_replications, 6u);
    EXPECT_EQ(cell.samples.size(), 6u);
    EXPECT_EQ(cell.run_means.count(), 6u);
    EXPECT_EQ(seeds_seen,
              (std::vector<std::uint64_t>{1000, 1001, 1002, 1003, 1004, 1005}));
}

TEST(RunControl, StopRuleThatNeverFiresRunsEverything) {
    RunControl control;
    control.policy = ParallelPolicy{1};
    control.stop_rule = telemetry::StopRule{1.0e-12, 4};  // unreachably tight
    const auto cell = run_replications("noisy", noisy_body(), 10, 77, control);
    EXPECT_FALSE(cell.stopped_early);
    EXPECT_EQ(cell.completed_replications, 10u);
    expect_cells_identical(
        cell, run_replications("noisy", noisy_body(), 10, 77, ParallelPolicy{1}));
}

TEST(RunControl, MetricsOverloadMergesOnlyCompletedReplications) {
    MetricsRegistry merged;
    RunControl control;
    control.policy = ParallelPolicy{1};
    control.stop_rule = telemetry::StopRule{0.5, 5};
    const auto cell = run_replications(
        "metered",
        [](std::uint64_t, MetricsRegistry& metrics) {
            metrics.counter("runs").add(1);
            return std::vector<double>{1.0};
        },
        30, 0, merged, control);
    EXPECT_TRUE(cell.stopped_early);
    EXPECT_EQ(cell.completed_replications, 5u);
    ASSERT_NE(merged.find_counter("runs"), nullptr);
    EXPECT_EQ(merged.find_counter("runs")->value(), 5u);
}

}  // namespace
}  // namespace swarmavail::sim
