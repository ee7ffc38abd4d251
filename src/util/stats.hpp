// Streaming and batch statistics used by the simulators and benches:
// Welford accumulators, sample summaries with quantiles and confidence
// intervals, empirical CDFs, and fixed-bin histograms.
#pragma once

#include <cstddef>
#include <vector>

namespace swarmavail {

/// Numerically stable streaming mean/variance accumulator (Welford).
class StreamingStats {
 public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    /// Mean of the observations added so far; 0 if empty.
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Unbiased sample variance; 0 with fewer than two observations.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    /// Standard error of the mean; 0 with fewer than two observations.
    [[nodiscard]] double std_error() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }
    [[nodiscard]] double sum() const noexcept;

    /// Half-width of the ~95% normal-approximation confidence interval for
    /// the mean (1.96 standard errors). 0 with fewer than two observations.
    [[nodiscard]] double ci95_halfwidth() const noexcept;

    /// Merges another accumulator into this one (parallel Welford).
    void merge(const StreamingStats& other) noexcept;

 private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Batch sample container offering quantiles in addition to moments.
/// Keeps all observations; intended for per-experiment result vectors
/// (thousands of samples), not unbounded streams.
class SampleSet {
 public:
    SampleSet() = default;
    /// Takes ownership of an existing batch of observations.
    explicit SampleSet(std::vector<double> samples) : samples_(std::move(samples)) {}

    void add(double x);
    void add_all(const std::vector<double>& xs);

    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    /// Linear-interpolation quantile, q in [0, 1]. Requires non-empty set.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double median() const { return quantile(0.5); }
    [[nodiscard]] double ci95_halfwidth() const;

    [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

 private:
    void sort_if_needed() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = false;
};

/// Empirical CDF over a batch of observations.
class EmpiricalCdf {
 public:
    explicit EmpiricalCdf(std::vector<double> samples);

    /// Fraction of observations <= x.
    [[nodiscard]] double operator()(double x) const;
    /// Inverse CDF (lower quantile), q in [0, 1]. Requires non-empty data.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

    /// Evaluates the CDF at `points` evenly spaced values covering
    /// [lo, hi]; convenient for printing CDF curves in benches.
    [[nodiscard]] std::vector<std::pair<double, double>> curve(
        double lo, double hi, std::size_t points) const;

 private:
    std::vector<double> sorted_;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range values are clamped
/// into the first/last bin so totals are preserved.
class Histogram {
 public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;
    [[nodiscard]] std::size_t bin_count(std::size_t i) const;
    [[nodiscard]] double bin_lo(std::size_t i) const;
    [[nodiscard]] double bin_hi(std::size_t i) const;
    [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    /// Fraction of observations in bin i; 0 if empty.
    [[nodiscard]] double bin_fraction(std::size_t i) const;

 private:
    double lo_;
    double width_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

}  // namespace swarmavail
