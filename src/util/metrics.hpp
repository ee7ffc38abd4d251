// Metrics registry for the simulation engines: counters, gauges, and
// fixed-bucket / log-scale histograms behind a name-keyed registry.
//
// Threading and determinism model: a registry is single-owner — each
// simulator (and each replication inside the parallel engine) writes to its
// own instance, so the hot path is plain unsynchronized arithmetic (no
// atomics, no locks). Parallel replications buffer one registry per index
// and swarm::run_swarm_replications folds them with merge() strictly in
// index order, so merged metrics are bit-identical for every thread count.
//
// Hot-path usage: resolve metric references once at setup
// (`Counter& arrivals = registry.counter("arrivals");`) and increment the
// references inside event handlers; the name lookup never runs per event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace swarmavail {

/// Monotone event counter.
class Counter {
 public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

    /// Counters merge by summation.
    void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
    std::uint64_t value_ = 0;
};

/// Last-value gauge that also keeps streaming statistics over every set()
/// (so a sampled series — queue depth, population — yields mean/min/max
/// without storing the samples).
class Gauge {
 public:
    void set(double value) noexcept {
        value_ = value;
        stats_.add(value);
    }

    [[nodiscard]] double value() const noexcept { return value_; }
    [[nodiscard]] const StreamingStats& stats() const noexcept { return stats_; }

    /// Merges the sample statistics (parallel Welford); the merged last
    /// value is the other side's if it ever recorded (merge order is the
    /// replication index order, so "later replication wins" deterministically).
    void merge(const Gauge& other) noexcept {
        stats_.merge(other.stats_);
        if (other.stats_.count() > 0) {
            value_ = other.value_;
        }
    }

 private:
    double value_ = 0.0;
    StreamingStats stats_;
};

/// Bucket layout of a HistogramMetric.
enum class HistogramScale {
    kLinear,  ///< equal-width bins over [lo, hi)
    kLog2,    ///< geometric bins over [lo, hi); lo must be > 0
};

/// Bucketed histogram with clamping semantics (out-of-range observations
/// land in the first/last bin so totals are preserved) plus streaming
/// moments over the raw values.
class HistogramMetric {
 public:
    /// Requires hi > lo, bins >= 1, and lo > 0 for the log scale.
    HistogramMetric(double lo, double hi, std::size_t bins,
                    HistogramScale scale = HistogramScale::kLinear);

    void add(double x) noexcept;

    [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
    [[nodiscard]] double lo() const noexcept { return lo_; }
    [[nodiscard]] double hi() const noexcept { return hi_; }
    [[nodiscard]] std::uint64_t bin_count(std::size_t i) const;
    /// Lower/upper edge of bin i (clamping means observations outside
    /// [lo, hi) are counted in the edge bins regardless).
    [[nodiscard]] double bin_lo(std::size_t i) const;
    [[nodiscard]] double bin_hi(std::size_t i) const;
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    [[nodiscard]] HistogramScale scale() const noexcept { return scale_; }
    /// Streaming moments over the exact observed values (not bin midpoints).
    [[nodiscard]] const StreamingStats& stats() const noexcept { return stats_; }

    /// Merges bin counts and moments. Requires identical shape
    /// (lo/hi/bins/scale); throws std::invalid_argument otherwise.
    void merge(const HistogramMetric& other);

 private:
    [[nodiscard]] std::size_t bucket_of(double x) const noexcept;

    double lo_;
    double hi_;
    double log_lo_ = 0.0;        ///< cached log2(lo) for the log scale
    double inv_log_ratio_ = 0.0; ///< bins / log2(hi / lo) for the log scale
    double inv_width_ = 0.0;     ///< bins / (hi - lo) for the linear scale
    HistogramScale scale_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    StreamingStats stats_;
};

/// What a registry entry is; exposed for introspection/reporting.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Name-keyed collection of metrics with deterministic (registration-order)
/// iteration and index-order merge. Move-only: replication harnesses keep a
/// vector of per-index registries and fold them into one.
class MetricsRegistry {
 public:
    // Special members live in metrics.cpp: Entry is incomplete here.
    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(MetricsRegistry&&) noexcept;
    MetricsRegistry& operator=(MetricsRegistry&&) noexcept;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Returns the counter registered under `name`, creating it on first
    /// use. Throws std::invalid_argument if `name` is already registered as
    /// a different kind. The reference stays valid for the registry's life.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    /// For an existing histogram the shape arguments must match the
    /// original registration (mismatch throws).
    HistogramMetric& histogram(std::string_view name, double lo, double hi,
                               std::size_t bins,
                               HistogramScale scale = HistogramScale::kLinear);

    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
    /// Metric names in registration order (the merge/reporting order).
    [[nodiscard]] std::vector<std::string> names() const;
    [[nodiscard]] const Counter* find_counter(std::string_view name) const noexcept;
    [[nodiscard]] const Gauge* find_gauge(std::string_view name) const noexcept;
    [[nodiscard]] const HistogramMetric* find_histogram(
        std::string_view name) const noexcept;

    /// Merges `other` into this registry: entries are matched by name
    /// (missing ones are created with the other side's shape) and combined
    /// with the per-metric merge rules. Folding per-replication registries
    /// in index order yields bit-identical results at any thread count.
    /// Throws std::invalid_argument on a name registered as different kinds
    /// or histograms with different shapes.
    void merge(const MetricsRegistry& other);

    /// Writes the whole registry as a JSON array in registration order:
    /// [{"name":...,"kind":"counter","value":N}, ...]. Doubles use the
    /// shortest exact representation.
    void write_json(std::ostream& os) const;

 private:
    struct Entry;

    Entry& get_or_create(std::string_view name, MetricKind kind);
    [[nodiscard]] const Entry* find(std::string_view name,
                                    MetricKind kind) const noexcept;

    std::vector<std::unique_ptr<Entry>> entries_;
    std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace swarmavail
