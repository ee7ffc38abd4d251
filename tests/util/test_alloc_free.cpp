// Pinned work counts of the hot paths: heap allocations (counted with a
// replaced global operator new), series terms, and events folded and
// dispatched. Host noise cannot move these numbers, so a change that makes
// an engine do more work fails here even when its wall time hides in the
// noise; a change meant to alter the work done re-records the pinned value.
// This file is an executable of its own: replacing the global allocation
// functions affects every object linked into the program.
//
// A passing contract check must not allocate (its message becomes a string
// only on failure), so the swarm simulator's per-event cost and the eq.-9
// double sum stay free of heap traffic.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "queueing/busy_period.hpp"
#include "serve/router.hpp"
#include "sim/availability_sim.hpp"
#include "sim/event_queue.hpp"
#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace {

// Per thread, so a telemetry sampler thread cannot pollute the count of
// the thread under test.
thread_local std::uint64_t g_allocations = 0;

void* counted_allocate(std::size_t size, std::size_t alignment) {
    ++g_allocations;
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

/// Allocations this thread made while `body` runs.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
    const std::uint64_t before = g_allocations;
    body();
    return g_allocations - before;
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size, alignof(std::max_align_t)); }
void* operator new[](std::size_t size) {
    return counted_allocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace swarmavail {
namespace {

swarm::SwarmSimConfig fig6a_swarm() {
    // Figure 6(a), shortened: homogeneous mu = 50 KBps, publisher 100 KBps
    // on/off 300 s / 900 s, lambda = 1/60 per file, K = 4.
    swarm::SwarmSimConfig config;
    config.bundle_size = 4;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<swarm::HomogeneousCapacity>(50.0 * swarm::kKBps);
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.publisher = swarm::PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 300.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 3.0;
    config.fingerprint = true;
    config.seed = 1;
    return config;
}

/// 24 Zipf-demand files bundled four to a swarm: six swarms, run serially
/// so every allocation happens on the calling thread.
catalog::Catalog small_catalog() {
    catalog::CatalogConfig config;
    config.num_files = 24;
    config.aggregate_demand = 1.0;
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return catalog::build_catalog(config);
}

catalog::CatalogEngineConfig small_catalog_run() {
    catalog::CatalogEngineConfig config;
    config.horizon = 2000.0;
    config.seed = 17;
    config.policy = sim::ParallelPolicy::serial();
    return config;
}

// Read through a volatile so the checks below see a run-time condition.
volatile bool g_true = true;

TEST(AllocFree, PassingRequireAndEnsureDoNotAllocate) {
    // Longer than the 15 characters a std::string keeps inline.
    constexpr const char* kMessage = "a message longer than the small-string buffer";
    const std::uint64_t allocs = allocations_during([] {
        for (int i = 0; i < 100; ++i) {
            require(g_true, kMessage);
            ensure(g_true, kMessage);
        }
    });
    EXPECT_EQ(allocs, 0U);
}

TEST(AllocFree, SwarmSimAllocatesLessThanOncePerEvent) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting (the event count) is compiled out";
#else
    const swarm::SwarmSimConfig config = fig6a_swarm();
    swarm::SwarmSimResult result;
    const std::uint64_t allocs =
        allocations_during([&] { result = swarm::run_swarm_sim(config); });
    ASSERT_GT(result.fingerprint_events, 500U);
    EXPECT_LT(allocs, result.fingerprint_events);
#endif
}

TEST(AllocFree, MixedBusyPeriodAllocationIsIndependentOfTermCount) {
    // hump = beta * max(alpha1, alpha2): about 50 and about 200.
    const queueing::MixedBusyPeriodParams small{0.5, 50.0, 0.6, 100.0, 40.0};
    const queueing::MixedBusyPeriodParams large{2.0, 50.0, 0.6, 100.0, 40.0};
    queueing::BusyPeriodResult small_result;
    queueing::BusyPeriodResult large_result;
    const std::uint64_t small_allocs =
        allocations_during([&] { small_result = queueing::busy_period_mixed(small); });
    const std::uint64_t large_allocs =
        allocations_during([&] { large_result = queueing::busy_period_mixed(large); });
    ASSERT_GT(large_result.terms, 200U);
    ASSERT_GT(large_result.terms, 2 * small_result.terms);
    EXPECT_LE(large_allocs, 2U);
    EXPECT_EQ(large_allocs, small_allocs);
}

// The first run in a process also pays one-time static set-up, so every
// count below is taken on a repeat run.

TEST(AllocFree, CatalogAllocationsPerSwarm) {
    const catalog::Catalog files = small_catalog();
    const catalog::CatalogEngineConfig config = small_catalog_run();
    const auto run = [&] { return catalog::run_catalog(files, catalog::FixedK{4}, config); };
    ASSERT_EQ(run().swarms.size(), 6U);
    EXPECT_EQ(allocations_during(run), 250U);  // about 42 per swarm
}

TEST(AllocFree, EventQueueHoldAtFillAllocatesNothing) {
    // The simulators' steady state: each dispatch schedules a replacement.
    // Every cycle also schedules a second event and cancels one of the two
    // (alternately the older), so dead entries sit at every heap depth.
    // Once warm, the heap and the slab reuse their capacity.
    for (const std::size_t fill : {64U, 1024U}) {
        SCOPED_TRACE(fill);
        sim::EventQueue queue;
        Rng rng{fill};
        for (std::size_t i = 0; i < fill; ++i) {
            queue.schedule_at(rng.uniform(), [] {});
        }
        std::uint64_t cycle = 0;
        const auto cycles = [&](std::size_t count) {
            for (std::size_t i = 0; i < count; ++i, ++cycle) {
                ASSERT_TRUE(queue.run_next());
                const sim::EventId first =
                    queue.schedule_at(queue.now() + rng.uniform(), [] {});
                const sim::EventId second =
                    queue.schedule_at(queue.now() + rng.uniform(), [] {});
                queue.cancel(cycle % 2 == 0 ? first : second);
            }
        };
        cycles(10000);
        EXPECT_EQ(allocations_during([&] { cycles(10000); }), 0U);
        EXPECT_EQ(queue.size(), fill);
    }
}

// A session's first catalog run registers the tracked per-swarm
// unavailability: the metric's name and its slot.
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
constexpr std::uint64_t kTrackedMetricAllocs = 0;
#else
constexpr std::uint64_t kTrackedMetricAllocs = 2;
#endif

TEST(AllocFree, IdleTelemetryAddsNoAllocations) {
    // A running session with no exporters; its sampler thread allocates
    // for every snapshot, which the per-thread count leaves out.
    telemetry::TelemetrySession session{telemetry::TelemetryConfig{0.001, {}}};
    session.start();

    swarm::SwarmSimConfig swarm_config = fig6a_swarm();
    const auto swarm_run = [&] { (void)swarm::run_swarm_sim(swarm_config); };
    swarm_run();
    const std::uint64_t swarm_detached = allocations_during(swarm_run);
    swarm_config.telemetry = &session;
    EXPECT_EQ(allocations_during(swarm_run), swarm_detached);

    const catalog::Catalog files = small_catalog();
    catalog::CatalogEngineConfig catalog_config = small_catalog_run();
    const auto catalog_run = [&] {
        (void)catalog::run_catalog(files, catalog::FixedK{4}, catalog_config);
    };
    catalog_run();
    const std::uint64_t catalog_detached = allocations_during(catalog_run);
    catalog_config.telemetry = &session;
    EXPECT_EQ(allocations_during(catalog_run), catalog_detached + kTrackedMetricAllocs);
    EXPECT_EQ(allocations_during(catalog_run), catalog_detached);
    session.stop();
    EXPECT_GT(session.snapshots_taken(), 0U);
}

TEST(AllocFree, RouterColdEvalAllocations) {
    // Sixteen distinct u values: each request misses the cache, evaluates
    // the model and inserts an entry.
    std::vector<std::string> payloads;
    for (int i = 0; i < 16; ++i) {
        payloads.push_back("{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,"
                           "\"r\":0.05,\"u\":" + std::to_string(30 + i) + "}");
    }
    const auto run = [&](serve::RequestRouter& router) {
        for (const std::string& payload : payloads) {
            ASSERT_TRUE(router.route(payload).ok) << payload;
        }
    };
    serve::RequestRouter first;
    run(first);
    serve::RequestRouter router;
    EXPECT_EQ(allocations_during([&] { run(router); }), 403U);  // about 25 per request
}

TEST(AllocFree, RouterWarmEvalAllocations) {
    // The null-spans path every request takes while span tracing is off.
    const std::string eval =
        "{\"verb\":\"EVAL\",\"id\":1,\"lambda\":2,\"size\":1,\"mu\":1.25,"
        "\"r\":0.05,\"u\":30}";
    serve::RequestRouter router;
    ASSERT_TRUE(router.route(eval).ok);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(allocations_during([&] { (void)router.route(eval, nullptr); }), 15U);
    }
}

// The eq.-9 double sum for bundles of k files (the BM_BusyPeriodMixed
// parameters).
TEST(WorkCounts, BusyPeriodMixedTerms) {
    struct Row {
        double k;
        std::size_t terms;
    };
    for (const Row row : {Row{1, 18}, Row{4, 63}, Row{8, 161}}) {
        SCOPED_TRACE(row.k);
        const double beta = row.k / 60.0 + 1.0 / 900.0;
        const queueing::MixedBusyPeriodParams params{beta, 300.0, (row.k / 60.0) / beta,
                                                     80.0 * row.k, 300.0};
        const queueing::BusyPeriodResult result = queueing::busy_period_mixed(params);
        EXPECT_TRUE(result.converged);
        EXPECT_EQ(result.terms, row.terms);
    }
}

// The BM_AvailabilitySim config.
TEST(WorkCounts, AvailabilitySimEvents) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting (the event count) is compiled out";
#else
    sim::AvailabilitySimConfig config;
    config.params.peer_arrival_rate = 1.0 / 60.0;
    config.params.content_size = 80.0;
    config.params.download_rate = 1.0;
    config.params.publisher_arrival_rate = 1.0 / 900.0;
    config.params.publisher_residence = 300.0;
    config.horizon = 1.0e5;
    config.seed = 3;
    EXPECT_EQ(sim::run_availability_sim(config).fingerprint_events, 3637U);
#endif
}

// A fingerprint folds exactly once per dispatched event: the digest's event
// count and the telemetry session's dispatch count come from the same run.
TEST(WorkCounts, SwarmFoldsOncePerDispatchedEvent) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting and telemetry are compiled out";
#else
    telemetry::TelemetrySession session{telemetry::TelemetryConfig{}};
    swarm::SwarmSimConfig config = fig6a_swarm();
    config.telemetry = &session;
    const swarm::SwarmSimResult result = swarm::run_swarm_sim(config);
    ASSERT_GT(result.fingerprint_events, 0U);
    EXPECT_EQ(result.fingerprint_events, session.counters().events_dispatched.load());
#endif
}

TEST(WorkCounts, CatalogFoldsOncePerDispatchedEvent) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting and telemetry are compiled out";
#else
    telemetry::TelemetrySession session{telemetry::TelemetryConfig{}};
    catalog::CatalogEngineConfig config = small_catalog_run();
    config.telemetry = &session;
    const catalog::CatalogReport report =
        catalog::run_catalog(small_catalog(), catalog::FixedK{4}, config);
    std::uint64_t folded = 0;
    for (const catalog::SwarmOutcome& swarm : report.swarms) {
        folded += swarm.result.fingerprint_events;
    }
    ASSERT_EQ(report.swarms.size(), 6U);
    ASSERT_GT(folded, 0U);
    EXPECT_EQ(folded, session.counters().events_dispatched.load());
#endif
}

}  // namespace
}  // namespace swarmavail
