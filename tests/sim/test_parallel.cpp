// Parallel replication engine: for_index unit tests plus the determinism
// suite -- a serial run (ParallelPolicy{1}) and runs at 4 and 16 threads of
// every replication fan-out must produce bit-identical results.
#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/availability_sim.hpp"
#include "sim/monte_carlo.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/metrics.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::sim {
namespace {

// ---- for_index ---------------------------------------------------------

TEST(Parallel, CoversEveryIndexExactlyOnce) {
    std::vector<int> hits(257, 0);
    for_index(hits.size(), ParallelPolicy{4}, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << "index " << i;
    }
}

TEST(Parallel, ZeroAndSingleIndexRanges) {
    std::atomic<int> calls{0};
    for_index(0, ParallelPolicy{3}, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    for_index(1, ParallelPolicy{3}, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(Parallel, PropagatesExceptionsAfterCompletingTheRange) {
    std::vector<int> hits(64, 0);
    EXPECT_THROW(for_index(hits.size(), ParallelPolicy{4},
                           [&](std::size_t i) {
                               ++hits[i];
                               if (i == 13) {
                                   throw std::runtime_error("replication failed");
                               }
                           }),
                 std::runtime_error);
    // Every index still ran: one failed replication must not silently drop
    // the others (their result slots stay consistent).
    for (int h : hits) {
        EXPECT_EQ(h, 1);
    }
}

TEST(Parallel, SerialPoolPropagatesImmediately) {
    int calls = 0;
    EXPECT_THROW(for_index(4, ParallelPolicy::serial(),
                           [&](std::size_t) {
                               ++calls;
                               throw std::invalid_argument("boom");
                           }),
                 std::invalid_argument);
    EXPECT_EQ(calls, 1);  // the serial loop stops at the first throw
}

TEST(Parallel, RejectsInvalidArguments) {
    EXPECT_THROW(for_index(1, ParallelPolicy::serial(), nullptr), std::invalid_argument);
    EXPECT_THROW(for_index(1, ParallelPolicy{2}, nullptr), std::invalid_argument);
}

TEST(Parallel, QueueDepthReadsZeroOnceDrained) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "queue-depth publication is compiled out";
#else
    for (const std::size_t threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        telemetry::RunCounters counters;
        counters.queue_depth.store(-1.0);
        std::atomic<std::size_t> calls{0};
        for_index(40, ParallelPolicy{threads}, [&](std::size_t) { ++calls; }, &counters);
        EXPECT_EQ(calls.load(), 40u);
        EXPECT_EQ(counters.queue_depth.load(), 0.0);
    }
    // On the serial path fn(i) sees the depth published after index i - 1.
    telemetry::RunCounters counters;
    for_index(
        5, ParallelPolicy::serial(),
        [&](std::size_t i) {
            if (i > 0) {
                EXPECT_EQ(counters.queue_depth.load(), static_cast<double>(5 - i));
            }
        },
        &counters);
#endif
}

TEST(ParallelPolicy, ExplicitCountWins) {
    EXPECT_EQ(ParallelPolicy{3}.resolve(), 3u);
    EXPECT_EQ(ParallelPolicy::serial().resolve(), 1u);
}

TEST(ParallelPolicy, EnvVarOverridesAuto) {
    // Only resolve() runs here: a bad value must not start any thread.
    ASSERT_EQ(unsetenv("SWARMAVAIL_THREADS"), 0);
    const std::size_t automatic = ParallelPolicy{}.resolve();
    EXPECT_GE(automatic, 1u);
    ASSERT_EQ(setenv("SWARMAVAIL_THREADS", "5", 1), 0);
    EXPECT_EQ(ParallelPolicy{}.resolve(), 5u);
    // Explicit thread counts are not overridden by the environment.
    EXPECT_EQ(ParallelPolicy{2}.resolve(), 2u);
    // Anything but a positive count in plain digits falls back to auto:
    // no sign, no blank, no value that overflows.
    for (const char* bad : {"zero", "0", "-1", "+3", " 4", "4 ", "",
                            "99999999999999999999999999"}) {
        SCOPED_TRACE(bad);
        ASSERT_EQ(setenv("SWARMAVAIL_THREADS", bad, 1), 0);
        EXPECT_EQ(ParallelPolicy{}.resolve(), automatic);
    }
    ASSERT_EQ(unsetenv("SWARMAVAIL_THREADS"), 0);
    EXPECT_EQ(ParallelPolicy{}.resolve(), automatic);
}

// ---- determinism suite -------------------------------------------------
//
// Each workload runs once with ParallelPolicy{1} and once at each of
// kThreadCounts. Every index writes only its own result slot; the slots and
// their index-order fold must match bit for bit (EXPECT_EQ on doubles, not
// EXPECT_NEAR).

constexpr std::size_t kThreadCounts[] = {4, 16};

using Slots = std::vector<std::vector<double>>;

/// Runs body(seed + i) for every i in [0, runs) on `threads` threads.
template <typename Body>
Slots replicate(const Body& body, std::size_t runs, std::uint64_t seed,
                std::size_t threads) {
    Slots slots(runs);
    for_index(runs, ParallelPolicy{threads},
              [&](std::size_t i) { slots[i] = body(seed + i); });
    return slots;
}

/// The slots folded in index order: pooled samples and per-run means.
struct Folded {
    std::vector<double> samples;
    StreamingStats run_means;
};

Folded fold(const Slots& slots) {
    Folded folded;
    for (const std::vector<double>& slot : slots) {
        folded.samples.insert(folded.samples.end(), slot.begin(), slot.end());
        if (!slot.empty()) {
            StreamingStats run;
            for (double x : slot) {
                run.add(x);
            }
            folded.run_means.add(run.mean());
        }
    }
    return folded;
}

void expect_folds_identical(const Folded& serial, const Folded& parallel) {
    EXPECT_EQ(serial.samples, parallel.samples);
    EXPECT_EQ(serial.run_means.count(), parallel.run_means.count());
    EXPECT_EQ(serial.run_means.mean(), parallel.run_means.mean());
    EXPECT_EQ(serial.run_means.variance(), parallel.run_means.variance());
    EXPECT_EQ(serial.run_means.min(), parallel.run_means.min());
    EXPECT_EQ(serial.run_means.max(), parallel.run_means.max());
    EXPECT_EQ(serial.run_means.ci95_halfwidth(), parallel.run_means.ci95_halfwidth());
}

template <typename Body>
void expect_thread_count_invariant(const Body& body, std::size_t runs,
                                   std::uint64_t seed) {
    const Slots serial = replicate(body, runs, seed, 1);
    for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(threads);
        const Slots parallel = replicate(body, runs, seed, threads);
        EXPECT_EQ(serial, parallel);
        expect_folds_identical(fold(serial), fold(parallel));
    }
}

std::vector<double> availability_body(std::uint64_t seed, MetricsRegistry* metrics) {
    AvailabilitySimConfig config;
    config.params.peer_arrival_rate = 1.0 / 60.0;
    config.params.content_size = 80.0;
    config.params.download_rate = 1.0;
    config.params.publisher_arrival_rate = 1.0 / 900.0;
    config.params.publisher_residence = 300.0;
    config.horizon = 20000.0;
    config.seed = seed;
    config.metrics = metrics;
    const auto result = run_availability_sim(config);
    std::vector<double> samples;
    if (result.download_times.count() > 0) {
        samples.push_back(result.download_times.mean());
    }
    samples.push_back(result.unavailable_time_fraction);
    return samples;
}

swarm::SwarmSimConfig small_swarm_config() {
    swarm::SwarmSimConfig config;
    config.bundle_size = 2;
    config.pieces_per_file = 4;
    config.peer_arrival_rate = 1.0 / 30.0;
    config.peer_capacity =
        std::make_shared<swarm::HomogeneousCapacity>(100.0 * swarm::kKBps);
    config.publisher_capacity = 200.0 * swarm::kKBps;
    config.horizon = 900.0;
    return config;
}

std::vector<double> swarm_body(std::uint64_t seed) {
    auto config = small_swarm_config();
    config.seed = seed;
    auto result = swarm::run_swarm_sim(config);
    return result.completion_times;
}

std::vector<double> busy_period_body(std::uint64_t seed) {
    Rng rng{seed};
    std::vector<double> samples;
    samples.reserve(20);
    for (int i = 0; i < 20; ++i) {
        samples.push_back(sample_busy_period(
            rng, 1.0 / 90.0, [](Rng& r) { return r.exponential_mean(300.0); },
            [](Rng& r) { return r.exponential_mean(120.0); }));
    }
    return samples;
}

TEST(ParallelDeterminism, AvailabilitySimReplications) {
    expect_thread_count_invariant(
        [](std::uint64_t seed) { return availability_body(seed, nullptr); }, 8, 100);
}

TEST(ParallelDeterminism, SwarmSimReplications) {
    expect_thread_count_invariant(swarm_body, 6, 40);
}

TEST(ParallelDeterminism, MonteCarloBusyPeriodReplications) {
    expect_thread_count_invariant(busy_period_body, 10, 7);
}

TEST(ParallelDeterminism, ThreadCountBeyondReplicationsIsSafe) {
    expect_thread_count_invariant(busy_period_body, 3, 1);
}

void expect_swarm_runs_identical(const std::vector<swarm::SwarmSimResult>& serial,
                                 const std::vector<swarm::SwarmSimResult>& parallel) {
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].arrivals, parallel[i].arrivals);
        EXPECT_EQ(serial[i].completions, parallel[i].completions);
        EXPECT_EQ(serial[i].stuck_at_horizon, parallel[i].stuck_at_horizon);
        EXPECT_EQ(serial[i].completion_times, parallel[i].completion_times);
        EXPECT_EQ(serial[i].download_times.count(), parallel[i].download_times.count());
        EXPECT_EQ(serial[i].download_times.mean(), parallel[i].download_times.mean());
        EXPECT_EQ(serial[i].available_fraction, parallel[i].available_fraction);
        EXPECT_EQ(serial[i].last_completion, parallel[i].last_completion);
    }
}

TEST(ParallelDeterminism, SwarmReplicationHarness) {
    const auto config = small_swarm_config();
    const auto serial = swarm::run_swarm_replications(config, 5, ParallelPolicy{1});
    for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(threads);
        expect_swarm_runs_identical(
            serial, swarm::run_swarm_replications(config, 5, ParallelPolicy{threads}));
    }
}

// Merged metrics registries must be bit-identical across thread counts:
// same names in the same registration order, and every counter, gauge, and
// histogram equal bitwise (EXPECT_EQ on doubles).
void expect_registries_identical(const MetricsRegistry& a, const MetricsRegistry& b) {
    ASSERT_EQ(a.names(), b.names());
    for (const std::string& name : a.names()) {
        if (const Counter* ca = a.find_counter(name); ca != nullptr) {
            const Counter* cb = b.find_counter(name);
            ASSERT_NE(cb, nullptr) << name;
            EXPECT_EQ(ca->value(), cb->value()) << name;
        } else if (const Gauge* ga = a.find_gauge(name); ga != nullptr) {
            const Gauge* gb = b.find_gauge(name);
            ASSERT_NE(gb, nullptr) << name;
            EXPECT_EQ(ga->value(), gb->value()) << name;
            EXPECT_EQ(ga->stats().count(), gb->stats().count()) << name;
            EXPECT_EQ(ga->stats().mean(), gb->stats().mean()) << name;
            EXPECT_EQ(ga->stats().variance(), gb->stats().variance()) << name;
        } else {
            const HistogramMetric* ha = a.find_histogram(name);
            const HistogramMetric* hb = b.find_histogram(name);
            ASSERT_NE(ha, nullptr) << name;
            ASSERT_NE(hb, nullptr) << name;
            ASSERT_EQ(ha->bins(), hb->bins()) << name;
            for (std::size_t i = 0; i < ha->bins(); ++i) {
                EXPECT_EQ(ha->bin_count(i), hb->bin_count(i)) << name << " bin " << i;
            }
            EXPECT_EQ(ha->stats().count(), hb->stats().count()) << name;
            EXPECT_EQ(ha->stats().mean(), hb->stats().mean()) << name;
            EXPECT_EQ(ha->stats().variance(), hb->stats().variance()) << name;
            EXPECT_EQ(ha->stats().min(), hb->stats().min()) << name;
            EXPECT_EQ(ha->stats().max(), hb->stats().max()) << name;
        }
    }
}

TEST(ParallelDeterminism, MetricsRegistriesMergeBitIdentically) {
    // One private registry per index, folded into `merged` in index order.
    constexpr std::size_t kRuns = 8;
    const auto run = [](std::size_t threads, MetricsRegistry& merged) {
        Slots slots(kRuns);
        std::vector<MetricsRegistry> registries(kRuns);
        for_index(kRuns, ParallelPolicy{threads}, [&](std::size_t i) {
            slots[i] = availability_body(100 + i, &registries[i]);
        });
        for (const MetricsRegistry& registry : registries) {
            merged.merge(registry);
        }
        return slots;
    };
    MetricsRegistry serial_metrics;
    const Slots serial = run(1, serial_metrics);
    ASSERT_GT(serial_metrics.size(), 0u);
    EXPECT_GT(serial_metrics.find_counter("avail.arrivals")->value(), 0u);
    for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(threads);
        MetricsRegistry parallel_metrics;
        const Slots parallel = run(threads, parallel_metrics);
        EXPECT_EQ(serial, parallel);
        expect_folds_identical(fold(serial), fold(parallel));
        expect_registries_identical(serial_metrics, parallel_metrics);
    }
}

TEST(ParallelDeterminism, SwarmReplicationHarnessMergesMetricsBitIdentically) {
    const auto run = [](std::size_t threads, MetricsRegistry& merged) {
        auto config = small_swarm_config();
        config.metrics = &merged;
        return swarm::run_swarm_replications(config, 5, ParallelPolicy{threads});
    };
    MetricsRegistry serial_metrics;
    const auto serial = run(1, serial_metrics);
    ASSERT_GT(serial_metrics.size(), 0u);
    EXPECT_GT(serial_metrics.find_counter("swarm.arrivals")->value(), 0u);
    for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(threads);
        MetricsRegistry parallel_metrics;
        expect_swarm_runs_identical(serial, run(threads, parallel_metrics));
        expect_registries_identical(serial_metrics, parallel_metrics);
    }
}

}  // namespace
}  // namespace swarmavail::sim
