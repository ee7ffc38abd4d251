// Observability acceptance pins: a traced swarm run serialized through the
// JSONL sink must reproduce the publisher up/down intervals, availability
// intervals, and per-peer download times of the aggregate result exactly
// (bit-for-bit doubles), and attaching metrics/tracing must not perturb the
// simulation itself.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "sim/availability_sim.hpp"
#include "sim/trace.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace swarmavail::swarm {
namespace {

using sim::ParsedTrace;
using sim::TraceKind;
using sim::TraceRecord;

SwarmSimConfig traced_config() {
    SwarmSimConfig config;
    config.bundle_size = 2;
    config.pieces_per_file = 4;
    config.peer_arrival_rate = 1.0 / 30.0;
    config.peer_capacity = std::make_shared<HomogeneousCapacity>(100.0 * kKBps);
    config.publisher_capacity = 200.0 * kKBps;
    config.publisher = PublisherBehavior::kOnOff;
    config.publisher_on_mean = 120.0;
    config.publisher_off_mean = 120.0;
    config.horizon = 1200.0;
    config.seed = 7;
    return config;
}

TEST(SwarmTrace, MetricsAndTracingDoNotPerturbTheSimulation) {
    const SwarmSimConfig plain = traced_config();
    const SwarmSimResult baseline = run_swarm_sim(plain);

    SwarmSimConfig observed = traced_config();
    MetricsRegistry metrics;
    std::ostringstream os;
    sim::JsonlTraceSink sink{os};
    sim::Tracer tracer{sink};
    tracer.set_enabled(true);
    observed.metrics = &metrics;
    observed.tracer = &tracer;
    const SwarmSimResult result = run_swarm_sim(observed);

    // Observability reads state and never draws randomness, so the run is
    // bit-identical with or without it.
    EXPECT_EQ(result.arrivals, baseline.arrivals);
    EXPECT_EQ(result.completions, baseline.completions);
    EXPECT_EQ(result.completion_times, baseline.completion_times);
    EXPECT_EQ(result.download_times.mean(), baseline.download_times.mean());
    EXPECT_EQ(result.available_fraction, baseline.available_fraction);
}

TEST(SwarmTrace, JsonlRoundTripReproducesAggregateObservablesExactly) {
    SwarmSimConfig config = traced_config();
    MetricsRegistry metrics;
    std::ostringstream os;
    sim::JsonlTraceSink sink{os};
    sim::Tracer tracer{sink};
    tracer.set_enabled(true);
    config.metrics = &metrics;
    config.tracer = &tracer;
    // run_swarm_sim flushes the tracer before returning, so the stream is
    // complete here even though the tracer is still alive.
    const SwarmSimResult result = run_swarm_sim(config);
    std::istringstream in{os.str()};
    const ParsedTrace trace = sim::read_trace_jsonl(in);
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    // Call sites are compiled out: the trace is empty and only the metrics
    // pins below apply.
    EXPECT_TRUE(trace.records.empty());
#else
    ASSERT_FALSE(trace.records.empty());
    ASSERT_GT(result.completions, 0u);

    // --- per-peer download times: the traced values, re-accumulated in
    // emission order, must reproduce the result's Welford stream bit for
    // bit (same doubles, same order, same algorithm).
    StreamingStats traced_downloads;
    for (const TraceRecord& r : trace.records) {
        if (r.kind == TraceKind::kPeerCompletion) {
            traced_downloads.add(r.a);
        }
    }
    EXPECT_EQ(traced_downloads.count(), result.download_times.count());
    EXPECT_EQ(traced_downloads.mean(), result.download_times.mean());
    EXPECT_EQ(traced_downloads.variance(), result.download_times.variance());
    EXPECT_EQ(traced_downloads.min(), result.download_times.min());
    EXPECT_EQ(traced_downloads.max(), result.download_times.max());

    // --- availability intervals reconstruct exactly from the
    // kAvailabilityEnd records alone (`a` carries the begin time).
    std::vector<AvailabilityInterval> traced_intervals;
    for (const TraceRecord& r : trace.records) {
        if (r.kind == TraceKind::kAvailabilityEnd) {
            traced_intervals.push_back({r.a, r.time});
        }
    }
    ASSERT_EQ(traced_intervals.size(), result.available_intervals.size());
    for (std::size_t i = 0; i < traced_intervals.size(); ++i) {
        EXPECT_EQ(traced_intervals[i].begin, result.available_intervals[i].begin);
        EXPECT_EQ(traced_intervals[i].end, result.available_intervals[i].end);
    }

    // --- publisher up/down intervals: alternating kPublisherUp/Down
    // records; re-deriving the interval lengths from the traced times must
    // agree with the metrics histograms bit for bit (the engine computed
    // the same subtractions from the same event times).
    StreamingStats traced_up;
    StreamingStats traced_down;
    double last_toggle = 0.0;
    bool online = false;
    bool ever_toggled = false;
    std::uint64_t up_toggles = 0;
    std::uint64_t down_toggles = 0;
    for (const TraceRecord& r : trace.records) {
        if (r.kind == TraceKind::kPublisherUp) {
            EXPECT_FALSE(online) << "publisher toggles must alternate";
            if (ever_toggled) {
                traced_down.add(r.time - last_toggle);
            }
            online = true;
            ever_toggled = true;
            last_toggle = r.time;
            ++up_toggles;
        } else if (r.kind == TraceKind::kPublisherDown) {
            EXPECT_TRUE(online) << "publisher toggles must alternate";
            traced_up.add(r.time - last_toggle);
            online = false;
            last_toggle = r.time;
            ++down_toggles;
        }
    }
    ASSERT_GT(up_toggles, 1u);  // the on/off process must have cycled
    EXPECT_EQ(metrics.find_counter("swarm.publisher_up")->value(), up_toggles);
    EXPECT_EQ(metrics.find_counter("swarm.publisher_down")->value(), down_toggles);
    const HistogramMetric* up_hist = metrics.find_histogram("swarm.publisher_up_interval_s");
    const HistogramMetric* down_hist =
        metrics.find_histogram("swarm.publisher_down_interval_s");
    ASSERT_NE(up_hist, nullptr);
    ASSERT_NE(down_hist, nullptr);
    EXPECT_EQ(up_hist->stats().count(), traced_up.count());
    EXPECT_EQ(up_hist->stats().mean(), traced_up.mean());
    EXPECT_EQ(up_hist->stats().min(), traced_up.min());
    EXPECT_EQ(up_hist->stats().max(), traced_up.max());
    EXPECT_EQ(down_hist->stats().count(), traced_down.count());
    EXPECT_EQ(down_hist->stats().mean(), traced_down.mean());

    // --- transfer lifecycle counters agree with the traced event stream.
    std::uint64_t starts = 0;
    std::uint64_t completes = 0;
    for (const TraceRecord& r : trace.records) {
        starts += r.kind == TraceKind::kTransferStart ? 1u : 0u;
        completes += r.kind == TraceKind::kTransferComplete ? 1u : 0u;
    }
    EXPECT_EQ(metrics.find_counter("swarm.transfers_started")->value(), starts);
    EXPECT_EQ(metrics.find_counter("swarm.transfers_completed")->value(), completes);
#endif

    // --- metrics pins that hold in every build: the registry mirrors the
    // aggregate result exactly.
    EXPECT_EQ(metrics.find_counter("swarm.arrivals")->value(), result.arrivals);
    EXPECT_EQ(metrics.find_counter("swarm.completions")->value(), result.completions);
    const HistogramMetric* downloads = metrics.find_histogram("swarm.download_time_s");
    ASSERT_NE(downloads, nullptr);
    EXPECT_EQ(downloads->stats().count(), result.download_times.count());
    EXPECT_EQ(downloads->stats().mean(), result.download_times.mean());
    EXPECT_EQ(downloads->stats().variance(), result.download_times.variance());
}

TEST(AvailabilitySimTrace, MetricsMirrorAggregateCountsExactly) {
    sim::AvailabilitySimConfig config;
    config.params.peer_arrival_rate = 1.0 / 60.0;
    config.params.content_size = 80.0;
    config.params.download_rate = 1.0;
    config.params.publisher_arrival_rate = 1.0 / 900.0;
    config.params.publisher_residence = 300.0;
    config.horizon = 50000.0;
    config.seed = 11;

    const auto baseline = sim::run_availability_sim(config);

    MetricsRegistry metrics;
    sim::MemoryTraceSink sink;
    sim::Tracer tracer{sink};
    tracer.set_enabled(true);
    config.metrics = &metrics;
    config.tracer = &tracer;
    const auto result = sim::run_availability_sim(config);

    // Unperturbed by observability.
    EXPECT_EQ(result.arrivals, baseline.arrivals);
    EXPECT_EQ(result.served, baseline.served);
    EXPECT_EQ(result.download_times.mean(), baseline.download_times.mean());
    EXPECT_EQ(result.busy_periods.mean(), baseline.busy_periods.mean());
    EXPECT_EQ(result.unavailable_time_fraction, baseline.unavailable_time_fraction);

    // Metrics mirror the result exactly.
    EXPECT_EQ(metrics.find_counter("avail.arrivals")->value(), result.arrivals);
    EXPECT_EQ(metrics.find_counter("avail.served")->value(), result.served);
    EXPECT_EQ(metrics.find_counter("avail.lost")->value(), result.lost);
    EXPECT_EQ(metrics.find_counter("avail.stranded")->value(), result.stranded);
    const HistogramMetric* busy = metrics.find_histogram("avail.busy_period_s");
    ASSERT_NE(busy, nullptr);
    EXPECT_EQ(busy->stats().count(), result.busy_periods.count());
    EXPECT_EQ(busy->stats().mean(), result.busy_periods.mean());
    const HistogramMetric* downloads = metrics.find_histogram("avail.download_time_s");
    ASSERT_NE(downloads, nullptr);
    EXPECT_EQ(downloads->stats().count(), result.download_times.count());
    EXPECT_EQ(downloads->stats().mean(), result.download_times.mean());
    EXPECT_EQ(downloads->stats().variance(), result.download_times.variance());

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    // Traced per-peer download times re-accumulate to the same stream.
    StreamingStats traced;
    std::uint64_t busy_ends = 0;
    for (const TraceRecord& r : sink.records()) {
        if (r.kind == TraceKind::kPeerCompletion) {
            traced.add(r.a);
        }
        busy_ends += r.kind == TraceKind::kAvailabilityEnd ? 1u : 0u;
    }
    EXPECT_EQ(traced.count(), result.download_times.count());
    EXPECT_EQ(traced.mean(), result.download_times.mean());
    EXPECT_EQ(busy_ends, result.busy_periods.count());
#endif
}

}  // namespace
}  // namespace swarmavail::swarm
