#include "catalog/catalog_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/report.hpp"
#include "model/availability.hpp"
#include "model/params.hpp"
#include "sim/availability_sim.hpp"
#include "sim/trace.hpp"
#include "util/metrics.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::catalog {
namespace {

CatalogConfig base_catalog_config(std::size_t files) {
    CatalogConfig config;
    config.num_files = files;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = static_cast<double>(files) / 60.0;  // 1/60 per file mean
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return config;
}

CatalogEngineConfig base_engine_config(double horizon) {
    CatalogEngineConfig config;
    config.horizon = horizon;
    config.seed = 20090101;
    return config;
}

std::string report_json(const CatalogReport& report) {
    std::ostringstream os;
    write_json(report, os);
    return os.str();
}

void expect_stats_equal(const StreamingStats& a, const StreamingStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void expect_results_equal(const sim::AvailabilitySimResult& a,
                          const sim::AvailabilitySimResult& b) {
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

TEST(CatalogEngine, OneFileCatalogReproducesAvailabilitySimBitExactly) {
    const auto catalog = build_catalog(base_catalog_config(1));
    const auto engine_config = base_engine_config(2.0e5);
    const auto report = run_catalog(catalog, NoBundling{}, engine_config);
    ASSERT_EQ(report.swarms.size(), 1u);
    ASSERT_EQ(report.files.size(), 1u);

    // The reference run is configured by hand, not via swarm_sim_config, so
    // this also pins the engine's parameter mapping for the trivial plan.
    sim::AvailabilitySimConfig reference;
    reference.params.peer_arrival_rate = catalog.config.aggregate_demand;
    reference.params.content_size = catalog.config.file_size;
    reference.params.download_rate = catalog.config.download_rate;
    reference.params.publisher_arrival_rate = catalog.config.publisher_arrival_rate;
    reference.params.publisher_residence = catalog.config.publisher_residence;
    reference.horizon = engine_config.horizon;
    reference.seed = engine_config.seed;
    const auto isolated = sim::run_availability_sim(reference);

    expect_results_equal(report.swarms[0].result, isolated);
    EXPECT_EQ(report.arrivals, isolated.arrivals);
    EXPECT_EQ(report.served, isolated.served);
    EXPECT_EQ(report.files[0].arrival_unavailability, isolated.arrival_unavailability);
    EXPECT_EQ(report.demand_weighted_unavailability, isolated.arrival_unavailability);
}

TEST(CatalogEngine, ShardedBitIdenticalAcrossThreadCounts) {
    const auto catalog = build_catalog(base_catalog_config(60));
    const FixedK policy{7};  // 8 swarms of 7 plus a remainder of 4
    auto config = base_engine_config(2.0e4);

    config.policy.threads = 1;
    const std::string serial = report_json(run_catalog(catalog, policy, config));
    for (std::size_t threads : {2u, 4u, 8u}) {
        config.policy.threads = threads;
        EXPECT_EQ(report_json(run_catalog(catalog, policy, config)), serial)
            << "thread count " << threads;
    }
}

// A 10k-file Zipf catalog bundled FixedK(8) — 1250 swarms — completes
// with bit-identical reports at one and at four threads.
TEST(CatalogEngine, TenThousandFileCatalogBitIdenticalEverywhere) {
    auto catalog_config = base_catalog_config(10000);
    catalog_config.aggregate_demand = 1.0;
    const auto catalog = build_catalog(catalog_config);
    const FixedK policy{8};
    auto config = base_engine_config(1500.0);

    config.policy.threads = 1;
    const auto report = run_catalog(catalog, policy, config);
    ASSERT_EQ(report.swarms.size(), 1250u);
    ASSERT_EQ(report.files.size(), 10000u);
    EXPECT_GT(report.arrivals, 0u);
    EXPECT_GT(report.publisher_up_transitions, 0u);
    const std::string serial = report_json(report);

    config.policy.threads = 4;
    EXPECT_EQ(report_json(run_catalog(catalog, policy, config)), serial);
}

// Measured catalog unavailability vs K must decrease and track the
// model-layer prediction (availability_impatient over make_bundle — the
// eq. 14 / e^{-Theta(K^2)} regime). A uniform catalog under FixedK is
// exactly N/K homogeneous bundles, so the catalog engine must reproduce
// the single-swarm ModelVsSimBundle result with pooled statistics.
// Tolerance pinned here: 15% relative + 0.01 absolute, the same budget the
// single-swarm suite uses.
TEST(CatalogEngine, UnavailabilityVsBundleSizeTracksModel) {
    CatalogConfig catalog_config;
    catalog_config.num_files = 6;
    catalog_config.zipf_exponent = 0.0;  // uniform demand = homogeneous bundles
    catalog_config.aggregate_demand = 6.0 / 120.0;  // 1/120 per file
    catalog_config.file_size = 60.0;
    catalog_config.download_rate = 1.0;
    catalog_config.publisher_arrival_rate = 1.0 / 900.0;
    catalog_config.publisher_residence = 250.0;
    const auto catalog = build_catalog(catalog_config);

    auto config = base_engine_config(2.0e6);
    config.patient_peers = false;  // loss fraction is the measurable P

    model::SwarmParams per_file;
    per_file.peer_arrival_rate = catalog.files[0].demand_rate;
    per_file.content_size = catalog.config.file_size;
    per_file.download_rate = catalog.config.download_rate;
    per_file.publisher_arrival_rate = catalog.config.publisher_arrival_rate;
    per_file.publisher_residence = catalog.config.publisher_residence;

    std::vector<double> measured;
    std::vector<double> predicted;
    for (std::size_t k : {1u, 2u, 3u}) {
        const auto report = run_catalog(catalog, FixedK{k}, config);
        const auto bundle =
            model::make_bundle(per_file, k, model::PublisherScaling::kConstant);
        const double model_p = model::availability_impatient(bundle).unavailability;
        EXPECT_NEAR(report.demand_weighted_unavailability, model_p,
                    0.15 * model_p + 0.01)
            << "K = " << k;
        measured.push_back(report.demand_weighted_unavailability);
        predicted.push_back(model_p);
    }
    // Bundling monotonically improves availability across the sweep.
    EXPECT_GT(measured[0], measured[1]);
    EXPECT_GT(measured[1], measured[2]);
    // And the model itself decays, so the comparison has teeth.
    EXPECT_GT(predicted[0], predicted[1]);
    EXPECT_GT(predicted[1], predicted[2]);
}

TEST(CatalogEngine, PublisherLoadObservablesMatchTheory) {
    // M/G/infinity publishers: P(no publisher online) = exp(-r u), so the
    // online fraction should sit near 1 - exp(-1/3) ~ 0.2835.
    const auto catalog = build_catalog(base_catalog_config(6));
    auto config = base_engine_config(3.0e5);
    const auto report = run_catalog(catalog, FixedK{3}, config);
    EXPECT_NEAR(report.mean_publisher_online_fraction, 1.0 - std::exp(-1.0 / 3.0),
                0.03);
    EXPECT_GT(report.publisher_up_transitions, 0u);
    // Dedicated publishers: offered load r*u per swarm.
    EXPECT_NEAR(report.expected_publisher_load, 2.0 * (300.0 / 900.0), 1e-12);
}

TEST(CatalogEngine, PartitionedBudgetKeepsOfferedLoadConstant) {
    auto catalog_config = base_catalog_config(12);
    catalog_config.publishers = PublisherAssignment::kPartitionedBudget;
    const auto catalog = build_catalog(catalog_config);
    auto config = base_engine_config(5.0e3);
    const auto unbundled = run_catalog(catalog, NoBundling{}, config);
    const auto bundled = run_catalog(catalog, FixedK{4}, config);
    EXPECT_NEAR(unbundled.expected_publisher_load, 300.0 / 900.0, 1e-12);
    EXPECT_NEAR(bundled.expected_publisher_load, 300.0 / 900.0, 1e-12);
}

TEST(CatalogEngine, TracedSwarmMatchesIsolatedRun) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "trace call sites are compiled out in this build";
#endif
    const auto catalog = build_catalog(base_catalog_config(12));
    const FixedK policy{4};
    const auto plan = policy.assign(catalog);

    auto config = base_engine_config(2.0e4);
    config.policy.threads = 4;
    config.traced_swarm = 1;
    sim::MemoryTraceSink catalog_sink;
    sim::Tracer catalog_tracer{catalog_sink};
    catalog_tracer.set_enabled(true);
    config.tracer = &catalog_tracer;
    (void)run_catalog_plan(catalog, plan, config);
    catalog_tracer.flush();

    sim::MemoryTraceSink isolated_sink;
    sim::Tracer isolated_tracer{isolated_sink};
    isolated_tracer.set_enabled(true);
    auto isolated_config = swarm_sim_config(catalog, plan, 1, config);
    isolated_config.tracer = &isolated_tracer;
    (void)sim::run_availability_sim(isolated_config);
    isolated_tracer.flush();

    ASSERT_FALSE(catalog_sink.records().empty());
    EXPECT_EQ(catalog_sink.records(), isolated_sink.records());
}

TEST(CatalogEngine, RecordsCatalogMetrics) {
    const auto catalog = build_catalog(base_catalog_config(9));
    auto config = base_engine_config(1.0e4);
    MetricsRegistry metrics;
    config.metrics = &metrics;
    const auto report = run_catalog(catalog, FixedK{3}, config);

    const auto* swarms = metrics.find_counter("catalog.swarms");
    ASSERT_NE(swarms, nullptr);
    EXPECT_EQ(swarms->value(), report.swarms.size());
    const auto* arrivals = metrics.find_counter("catalog.arrivals");
    ASSERT_NE(arrivals, nullptr);
    EXPECT_EQ(arrivals->value(), report.arrivals);
    const auto* unavail = metrics.find_gauge("catalog.demand_weighted_unavailability");
    ASSERT_NE(unavail, nullptr);
    EXPECT_EQ(unavail->value(), report.demand_weighted_unavailability);
    const auto* hist = metrics.find_histogram("catalog.swarm_unavailability");
    ASSERT_NE(hist, nullptr);
}

TEST(CatalogEngine, ValidatesInputs) {
    const auto catalog = build_catalog(base_catalog_config(4));
    auto config = base_engine_config(1.0e3);

    // Broken plan: missing a file.
    EXPECT_THROW((void)run_catalog_plan(catalog, {{0, 1}, {2}}, config),
                 std::invalid_argument);
    // Non-positive horizon.
    config.horizon = 0.0;
    EXPECT_THROW((void)run_catalog(catalog, NoBundling{}, config),
                 std::invalid_argument);
    // Traced swarm out of range.
    config = base_engine_config(1.0e3);
    config.traced_swarm = 4;  // NoBundling yields 4 swarms, indices 0..3
    EXPECT_THROW((void)run_catalog(catalog, NoBundling{}, config),
                 std::invalid_argument);
    config.traced_swarm = 3;
    EXPECT_NO_THROW((void)run_catalog(catalog, NoBundling{}, config));
}

// An infinite horizon passes `horizon > 0` but would never end the run.
TEST(CatalogEngine, RejectsInfiniteHorizon) {
    const auto catalog = build_catalog(base_catalog_config(4));
    const auto config = base_engine_config(std::numeric_limits<double>::infinity());
    try {
        (void)run_catalog(catalog, NoBundling{}, config);
        ADD_FAILURE() << "an infinite horizon was accepted";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("run_catalog: horizon must be finite"),
                  std::string::npos)
            << error.what();
    }
}

TEST(CatalogEngine, TelemetryAttachmentIsObserverNeutral) {
    // The acceptance-criterion pin: a run with a live telemetry session
    // produces a byte-identical report to a detached run at several thread
    // counts.
    const auto catalog = build_catalog(base_catalog_config(30));
    const GreedyPopularity policy{4};
    auto config = base_engine_config(1.0e4);
    config.policy.threads = 1;
    const std::string detached = report_json(run_catalog(catalog, policy, config));

    for (std::size_t threads : {1u, 2u, 4u}) {
        telemetry::MemoryTelemetryExporter ring;
        telemetry::TelemetryConfig telemetry_config;
        telemetry_config.interval_s = 0.005;
        telemetry_config.exporters.push_back(&ring);
        telemetry::TelemetrySession session{telemetry_config};
        session.start();

        config.policy.threads = threads;
        config.telemetry = &session;
        const auto report = run_catalog(catalog, policy, config);
        session.stop();
        config.telemetry = nullptr;

        EXPECT_EQ(report_json(report), detached)
            << "threads " << threads;
        EXPECT_FALSE(report.stopped_early);
        EXPECT_EQ(report.swarms_planned, report.swarms.size());

        const auto& final_snapshot = ring.snapshots().back();
        EXPECT_TRUE(final_snapshot.final_snapshot);
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        // The session really observed the run (under the trace-off
        // preset the engine call sites compile out and stay at zero).
        EXPECT_EQ(session.counters().swarms_total.load(), report.swarms.size());
        EXPECT_EQ(session.counters().swarms_completed.load(),
                  report.swarms.size());
        EXPECT_GT(session.counters().events_dispatched.load(), 0u);
        EXPECT_GT(session.counters().sim_time_advanced.load(), 0.0);
        ASSERT_EQ(final_snapshot.tracked.size(), 1u);
        EXPECT_EQ(final_snapshot.tracked[0].name, "catalog.swarm_unavailability");
        EXPECT_EQ(final_snapshot.tracked[0].count, report.swarms.size());
#endif
    }
}

TEST(CatalogEngine, StopRuleEndsShardedSweepEarlyAndRecordsIt) {
    const auto catalog = build_catalog(base_catalog_config(60));
    const FixedK policy{2};  // 30 swarms
    auto config = base_engine_config(1.0e4);
    config.policy.threads = 1;  // serial: the stopped prefix is deterministic
    config.stop_rule = telemetry::StopRule{1.0, 8};  // generous: fires at 8

    const auto report = run_catalog(catalog, policy, config);
    EXPECT_TRUE(report.stopped_early);
    EXPECT_EQ(report.swarms_planned, 30u);
    EXPECT_EQ(report.swarms.size(), 8u);
    // Original swarm indices are preserved: the serial prefix 0..7.
    for (std::size_t i = 0; i < report.swarms.size(); ++i) {
        EXPECT_EQ(report.swarms[i].swarm, i);
    }
    // Only covered files appear, and the demand weighting stays normalized
    // over the demand that actually ran (a probability, not a ratio > 1).
    EXPECT_LT(report.files.size(), 60u);
    EXPECT_GE(report.demand_weighted_unavailability, 0.0);
    EXPECT_LE(report.demand_weighted_unavailability, 1.0);

    // The decision is visible in both serializations.
    EXPECT_NE(report_json(report).find("\"stopped_early\":true"), std::string::npos);
    std::ostringstream summary;
    write_summary(report, summary);
    EXPECT_NE(summary.str().find("stopped early: 8 of 30"), std::string::npos);

    // Identical config without the rule runs everything.
    config.stop_rule.reset();
    const auto full = run_catalog(catalog, policy, config);
    EXPECT_FALSE(full.stopped_early);
    EXPECT_EQ(full.swarms.size(), 30u);
    EXPECT_EQ(full.swarms_planned, 30u);
}

// A stop rule at four threads: the cut depends on scheduling, so every
// check holds for any set of completed swarms. GreedyPopularity pairs the
// hottest remaining file with the coldest, so the covered files are never
// a prefix of the file ids and the per-file rows must be compacted.
TEST(CatalogEngine, StoppedEarlyRowsMatchIsolatedRuns) {
    const auto catalog = build_catalog(base_catalog_config(120));
    const SwarmPlan plan = GreedyPopularity{2}.assign(catalog);  // 60 swarms
    auto config = base_engine_config(1.0e4);
    config.policy.threads = 4;
    config.stop_rule = telemetry::StopRule{1.0, 8};  // generous: fires at 8

    const auto report = run_catalog_plan(catalog, plan, config);
    ASSERT_TRUE(report.stopped_early);
    EXPECT_EQ(report.swarms_planned, plan.size());
    ASSERT_GE(report.swarms.size(), 8u);
    ASSERT_LT(report.swarms.size(), plan.size());

    // Every reported swarm row bit-equals an isolated run of that swarm,
    // and the rows stay in swarm-index order.
    std::vector<std::size_t> swarm_of(catalog.files.size(), plan.size());
    std::size_t covered_files = 0;
    double weighted = 0.0;
    double covered_demand = 0.0;
    for (std::size_t row = 0; row < report.swarms.size(); ++row) {
        const SwarmOutcome& swarm = report.swarms[row];
        SCOPED_TRACE("swarm " + std::to_string(swarm.swarm));
        ASSERT_LT(swarm.swarm, plan.size());
        if (row > 0) {
            EXPECT_LT(report.swarms[row - 1].swarm, swarm.swarm);
        }
        EXPECT_EQ(swarm.files, plan[swarm.swarm]);
        const auto isolated = sim::run_availability_sim(
            swarm_sim_config(catalog, plan, swarm.swarm, config));
        expect_results_equal(swarm.result, isolated);
        EXPECT_EQ(swarm.result.fingerprint, isolated.fingerprint);
        covered_files += swarm.files.size();
        for (std::size_t id : swarm.files) {
            swarm_of[id] = swarm.swarm;
            weighted += catalog.files[id].demand_rate * isolated.arrival_unavailability;
            covered_demand += catalog.files[id].demand_rate;
        }
    }

    // Every file row belongs to a reported swarm, once, in file-id order.
    EXPECT_EQ(report.files.size(), covered_files);
    for (std::size_t row = 0; row < report.files.size(); ++row) {
        const FileOutcome& file = report.files[row];
        ASSERT_LT(file.file, swarm_of.size());
        ASSERT_EQ(file.swarm, swarm_of[file.file]) << "file " << file.file;
        EXPECT_EQ(file.bundle_size, plan[file.swarm].size());
        if (row > 0) {
            EXPECT_LT(report.files[row - 1].file, file.file);
        }
    }

    // The demand weighting is an index-order fold over the reported rows.
    EXPECT_EQ(report.demand_weighted_unavailability, weighted / covered_demand);
}

TEST(CatalogEngine, ThousandFileCatalogStreamsPeriodicTelemetry) {
    // The PR acceptance run: a 1000-file catalog with a live JSONL +
    // Prometheus telemetry session produces at least three periodic
    // snapshots plus a final one, every snapshot parses back, and the
    // counters are monotone across the stream.
    auto catalog_config = base_catalog_config(1000);
    catalog_config.aggregate_demand = 4.0;
    const auto catalog = build_catalog(catalog_config);
    const FixedK policy{4};  // 250 swarms

    std::ostringstream jsonl;
    const std::string prom_path =
        ::testing::TempDir() + "swarmavail_catalog_test.prom";
    telemetry::JsonlTelemetryExporter jsonl_exporter{jsonl};
    telemetry::PrometheusTextExporter prom_exporter{prom_path};
    telemetry::TelemetryConfig telemetry_config;
    telemetry_config.interval_s = 0.001;
    telemetry_config.exporters = {&jsonl_exporter, &prom_exporter};
    telemetry::TelemetrySession session{telemetry_config};
    session.start();

    auto config = base_engine_config(1000.0);
    config.telemetry = &session;
    // Re-run with a doubled horizon until the run has demonstrably spanned
    // three sampling periods, so the assertion is machine-speed independent
    // (counters accumulate across runs; monotonicity is unaffected).
    for (int attempt = 0; attempt < 6 && session.snapshots_taken() < 3; ++attempt) {
        (void)run_catalog(catalog, policy, config);
        config.horizon *= 2.0;
        config.seed += 1;
    }
    session.stop();

    std::istringstream in{jsonl.str()};
    const auto snapshots = telemetry::read_telemetry_jsonl(in);
    ASSERT_GE(snapshots.size(), 4u);  // >= 3 periodic + the final snapshot
    EXPECT_TRUE(snapshots.back().final_snapshot);
    for (std::size_t i = 0; i + 1 < snapshots.size(); ++i) {
        EXPECT_FALSE(snapshots[i].final_snapshot);
        EXPECT_EQ(snapshots[i].sequence + 1, snapshots[i + 1].sequence);
        EXPECT_LE(snapshots[i].wall_time_s, snapshots[i + 1].wall_time_s);
        EXPECT_LE(snapshots[i].events_dispatched, snapshots[i + 1].events_dispatched);
        EXPECT_LE(snapshots[i].swarms_completed, snapshots[i + 1].swarms_completed);
        EXPECT_LE(snapshots[i].replications_completed,
                  snapshots[i + 1].replications_completed);
    }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    EXPECT_GE(snapshots.back().swarms_completed, 250u);
    EXPECT_GT(snapshots.back().events_dispatched, 0u);
    ASSERT_EQ(snapshots.back().tracked.size(), 1u);
    EXPECT_EQ(snapshots.back().tracked[0].name, "catalog.swarm_unavailability");
#endif

    // The Prometheus exposition on disk passes the format check.
    std::ifstream prom{prom_path};
    ASSERT_TRUE(prom.is_open());
    std::ostringstream prom_text;
    prom_text << prom.rdbuf();
    std::string error;
    EXPECT_TRUE(telemetry::validate_prometheus_text(prom_text.str(), &error))
        << error;
    std::remove(prom_path.c_str());
}

TEST(CatalogEngine, ReportJsonRoundTripsDeterministically) {
    const auto catalog = build_catalog(base_catalog_config(10));
    auto config = base_engine_config(5.0e3);
    const auto a = report_json(run_catalog(catalog, GreedyPopularity{3}, config));
    const auto b = report_json(run_catalog(catalog, GreedyPopularity{3}, config));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"demand_weighted_unavailability\""), std::string::npos);
}

}  // namespace
}  // namespace swarmavail::catalog
