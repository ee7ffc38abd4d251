// Pinned determinism fingerprints of the flow-level engines: the catalog
// engine (run_catalog) and the single-swarm availability simulator, plus a
// trace-driven event mix on a bare EventQueue.
//
// FingerprintCatalog.* compares thread counts with one another, so a
// change that moves every run the same way passes there. This table holds
// digests recorded once; any change to the event queue's dispatch order or
// to an engine's RNG use fails here. The catalog rows run every bundling
// policy at 1 and 4 threads (the same digest is expected at both). The
// trace-driven row schedules every arrival instant twice and adds
// zero-delay follow-ups, so the (when, seq) tie-break orders the events at
// hundreds of shared instants, and the queue's own dispatch fingerprint
// folds that order directly. A deliberate change to the
// simulated dynamics re-records the table in the same change.
//
// The per-swarm digests do not cover the report's aggregates (the
// demand-weighted unavailability, the pooled download time) or its per-file
// rows, so a second table pins a hash of each catalog row's write_json
// bytes, plus one serial run that a stop rule cuts short.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "sim/availability_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/fingerprint.hpp"
#include "sim/processes.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::sim {
namespace {

struct Digest {
    std::uint64_t fingerprint = 0;
    std::uint64_t events = 0;
};

void expect_recorded(const Digest& got, const Digest& want) {
    if (got.fingerprint != want.fingerprint || got.events != want.events) {
        char line[96];
        std::snprintf(line, sizeof line, "0x%016" PRIx64 ", %" PRIu64,
                      got.fingerprint, got.events);
        ADD_FAILURE() << "fingerprint moved; this run gives " << line;
    }
}

// ---- catalog engine --------------------------------------------------------

enum class Policy { kNone, kFixedK4, kGreedy4 };

struct CatalogRow {
    const char* name;
    Policy policy;
    bool partitioned;
    Digest recorded;
    std::uint64_t report;  ///< report_hash of the row's report
};

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

catalog::CatalogReport run_catalog_row(const CatalogRow& row, std::size_t threads) {
    catalog::CatalogConfig config = catalog_config(24);
    config.publishers = row.partitioned ? catalog::PublisherAssignment::kPartitionedBudget
                                        : catalog::PublisherAssignment::kDedicated;
    const catalog::Catalog cat = catalog::build_catalog(config);
    std::unique_ptr<catalog::BundlingPolicy> policy;
    switch (row.policy) {
        case Policy::kNone:
            policy = std::make_unique<catalog::NoBundling>();
            break;
        case Policy::kFixedK4:
            policy = std::make_unique<catalog::FixedK>(4);
            break;
        case Policy::kGreedy4:
            policy = std::make_unique<catalog::GreedyPopularity>(4);
            break;
    }
    catalog::CatalogEngineConfig engine;
    engine.horizon = 2.0e4;
    engine.seed = 20090101;
    engine.policy = ParallelPolicy{threads};
    return catalog::run_catalog(cat, *policy, engine);
}

Digest catalog_digest(const catalog::CatalogReport& report) {
    Digest digest{report.fingerprint, 0};
    for (const catalog::SwarmOutcome& swarm : report.swarms) {
        digest.events += swarm.result.fingerprint_events;
    }
    return digest;
}

// Digests recorded with the engines as of this table's introduction; the
// report hashes were recorded later, while the report was still assembled
// serially after the fan-out.
const std::vector<CatalogRow>& catalog_rows() {
    static const std::vector<CatalogRow> table = {
        {"none", Policy::kNone, false, {0x3b3da44bf1fde8cf, 17085}, 0xcfaa259be7211c6c},
        {"fixedk4", Policy::kFixedK4, false, {0x0292805a3741c5a9, 16477},
         0x1730856e23b66cd0},
        {"greedy4", Policy::kGreedy4, false, {0xd62d2d3a25542ca9, 16354},
         0x212fd020aee6cbed},
        {"fixedk4_partitioned", Policy::kFixedK4, true, {0x418c7c4f2d8aaf51, 16266},
         0xb5f0cb188b0aca4f},
    };
    return table;
}

/// 64-bit FNV-1a over a report's write_json bytes.
std::uint64_t report_hash(const catalog::CatalogReport& report) {
    std::ostringstream os;
    catalog::write_json(report, os);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char byte : os.str()) {
        hash = (hash ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
    }
    return hash;
}

TEST(EngineFingerprints, CatalogMatchesRecordedTable) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprints are compiled out";
#else
    for (const CatalogRow& row : catalog_rows()) {
        for (const std::size_t threads : {1U, 4U}) {
            SCOPED_TRACE(std::string(row.name) + " threads=" + std::to_string(threads));
            expect_recorded(catalog_digest(run_catalog_row(row, threads)), row.recorded);
        }
    }
#endif
}

void expect_report_recorded(const catalog::CatalogReport& report, std::uint64_t want) {
    const std::uint64_t got = report_hash(report);
    if (got != want) {
        char line[32];
        std::snprintf(line, sizeof line, "0x%016" PRIx64, got);
        ADD_FAILURE() << "report bytes moved; this run gives " << line;
    }
}

// The serial stopped-early run of
// CatalogEngine.StopRuleEndsShardedSweepEarlyAndRecordsIt: 30 planned
// swarms, cut after 8.
constexpr std::uint64_t kStoppedEarlyReport = 0x2ab41bc90c01f6be;

TEST(EngineFingerprints, CatalogReportMatchesRecordedTable) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "the report JSON embeds fingerprints, which are compiled out";
#else
    for (const CatalogRow& row : catalog_rows()) {
        for (const std::size_t threads : {1U, 4U}) {
            SCOPED_TRACE(std::string(row.name) + " threads=" + std::to_string(threads));
            expect_report_recorded(run_catalog_row(row, threads), row.report);
        }
    }

    const catalog::Catalog cat = catalog::build_catalog(catalog_config(60));
    catalog::CatalogEngineConfig engine;
    engine.horizon = 1.0e4;
    engine.seed = 20090101;
    engine.policy = ParallelPolicy{1};
    engine.stop_rule = telemetry::StopRule{1.0, 8};
    const catalog::CatalogReport stopped =
        catalog::run_catalog(cat, catalog::FixedK{2}, engine);
    ASSERT_TRUE(stopped.stopped_early);
    ASSERT_EQ(stopped.swarms.size(), 8U);
    SCOPED_TRACE("fixedk2_stopped_early");
    expect_report_recorded(stopped, kStoppedEarlyReport);
#endif
}

// ---- availability simulator ------------------------------------------------

struct AvailabilityRow {
    const char* name;
    AvailabilitySimConfig config;
    Digest recorded;
};

// The BM_AvailabilitySim parameters; the rows vary the engine's branches.
AvailabilitySimConfig availability_base() {
    AvailabilitySimConfig config;
    config.params.peer_arrival_rate = 1.0 / 60.0;
    config.params.content_size = 80.0;
    config.params.download_rate = 1.0;
    config.params.publisher_arrival_rate = 1.0 / 900.0;
    config.params.publisher_residence = 300.0;
    config.horizon = 1.0e5;
    config.seed = 3;
    return config;
}

const std::vector<AvailabilityRow>& availability_rows() {
    static const std::vector<AvailabilityRow> table = [] {
        AvailabilitySimConfig bench = availability_base();

        AvailabilitySimConfig on_off_impatient = availability_base();
        on_off_impatient.publisher_mode = PublisherMode::kSingleOnOff;
        on_off_impatient.patient_peers = false;
        on_off_impatient.seed = 17;

        AvailabilitySimConfig linger_threshold = availability_base();
        linger_threshold.linger_time = 120.0;
        linger_threshold.coverage_threshold = 2;
        linger_threshold.params.peer_arrival_rate = 1.0 / 20.0;
        linger_threshold.horizon = 5.0e4;
        linger_threshold.seed = 29;

        return std::vector<AvailabilityRow>{
            {"bm_availability_sim", bench, {0x7f549099a596017d, 3637}},
            {"on_off_impatient", on_off_impatient, {0x4af3b12ec6f3e1ff, 2559}},
            {"linger_threshold2", linger_threshold, {0xd260acc29e45aded, 7674}},
        };
    }();
    return table;
}

TEST(EngineFingerprints, AvailabilitySimMatchesRecordedTable) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprints are compiled out";
#else
    for (const AvailabilityRow& row : availability_rows()) {
        SCOPED_TRACE(row.name);
        const AvailabilitySimResult result = run_availability_sim(row.config);
        EXPECT_GT(result.arrivals, 0U);
        expect_recorded({result.fingerprint, result.fingerprint_events}, row.recorded);
    }
#endif
}

// ---- trace-driven arrivals on a bare queue --------------------------------

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
// A decaying flash-crowd trace (every instant twice) plus an on/off
// publisher. Each arrival schedules a departure and a zero-delay
// follow-up, and every third arrival cancels the oldest pending
// departure. The queue's dispatch fingerprint folds every (when, seq).
Digest run_trace_queue(std::uint64_t seed) {
    EventQueue queue;
    Fingerprint fingerprint;
    queue.set_fingerprint(&fingerprint);
    Rng rng{seed};
    std::vector<SimTime> trace;
    for (const SimTime t : sample_decaying_poisson(rng, 2.0, 400.0, 1200.0)) {
        trace.push_back(t);
        trace.push_back(t);
    }
    std::vector<EventId> departures;
    std::uint64_t arrivals = 0;
    TraceArrivalProcess peers(queue, trace, [&] {
        departures.push_back(queue.schedule_at(
            queue.now() + rng.exponential_mean(60.0), [&rng] { (void)rng.uniform(); }));
        queue.schedule_at(queue.now(), [&rng] { (void)rng.uniform(); });
        if (++arrivals % 3 == 0) {
            queue.cancel(departures.front());
            departures.erase(departures.begin());
        }
    });
    OnOffProcess publisher(queue, rng, 300.0, 900.0, [] {}, [] {});
    peers.start();
    publisher.start(1200.0);
    queue.run_until(1500.0);
    fingerprint.fold(rng.draws());
    return {fingerprint.digest(), fingerprint.events()};
}
#endif

TEST(EngineFingerprints, TraceDrivenQueueMatchesRecordedDigest) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprints are compiled out";
#else
    expect_recorded(run_trace_queue(41), {0x3861f61b03ebd99f, 4359});
#endif
}

}  // namespace
}  // namespace swarmavail::sim
