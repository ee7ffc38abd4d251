#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace swarmavail {

void StreamingStats::add(double x) noexcept {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double StreamingStats::variance() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const noexcept {
    return std::sqrt(variance());
}

double StreamingStats::std_error() const noexcept {
    if (count_ < 2) {
        return 0.0;
    }
    return stddev() / std::sqrt(static_cast<double>(count_));
}

double StreamingStats::sum() const noexcept {
    return mean_ * static_cast<double>(count_);
}

double StreamingStats::ci95_halfwidth() const noexcept {
    return 1.96 * std_error();
}

void StreamingStats::merge(const StreamingStats& other) noexcept {
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(count_);
    const auto nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void SampleSet::add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
}

void SampleSet::add_all(const std::vector<double>& xs) {
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_valid_ = false;
}

double SampleSet::mean() const {
    require(!samples_.empty(), "SampleSet::mean: empty sample set");
    double acc = 0.0;
    for (double x : samples_) {
        acc += x;
    }
    return acc / static_cast<double>(samples_.size());
}

double SampleSet::variance() const {
    require(!samples_.empty(), "SampleSet::variance: empty sample set");
    if (samples_.size() < 2) {
        return 0.0;
    }
    const double m = mean();
    double acc = 0.0;
    for (double x : samples_) {
        acc += (x - m) * (x - m);
    }
    return acc / static_cast<double>(samples_.size() - 1);
}

double SampleSet::stddev() const {
    return std::sqrt(variance());
}

double SampleSet::min() const {
    require(!samples_.empty(), "SampleSet::min: empty sample set");
    return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
    require(!samples_.empty(), "SampleSet::max: empty sample set");
    return *std::max_element(samples_.begin(), samples_.end());
}

void SampleSet::sort_if_needed() const {
    if (!sorted_valid_) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double SampleSet::quantile(double q) const {
    require(!samples_.empty(), "SampleSet::quantile: empty sample set");
    require(q >= 0.0 && q <= 1.0, "SampleSet::quantile: q must be in [0, 1]");
    sort_if_needed();
    if (sorted_.size() == 1) {
        return sorted_.front();
    }
    const double pos = q * static_cast<double>(sorted_.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    if (idx + 1 >= sorted_.size()) {
        return sorted_.back();
    }
    return sorted_[idx] * (1.0 - frac) + sorted_[idx + 1] * frac;
}

double SampleSet::ci95_halfwidth() const {
    require(!samples_.empty(), "SampleSet::ci95_halfwidth: empty sample set");
    if (samples_.size() < 2) {
        return 0.0;
    }
    return 1.96 * stddev() / std::sqrt(static_cast<double>(samples_.size()));
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
    std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::operator()(double x) const {
    if (sorted_.empty()) {
        return 0.0;
    }
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const {
    require(!sorted_.empty(), "EmpiricalCdf::quantile: empty data");
    require(q >= 0.0 && q <= 1.0, "EmpiricalCdf::quantile: q must be in [0, 1]");
    if (q >= 1.0) {
        return sorted_.back();
    }
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted_.size()));
    return sorted_[std::min(idx, sorted_.size() - 1)];
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(
    double lo, double hi, std::size_t points) const {
    require(points >= 2, "EmpiricalCdf::curve: requires at least 2 points");
    require(lo <= hi, "EmpiricalCdf::curve: requires lo <= hi");
    std::vector<std::pair<double, double>> out;
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double x =
            lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
        out.emplace_back(x, (*this)(x));
    }
    return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo) {
    require(bins >= 1, "Histogram: requires at least one bin");
    require(lo < hi, "Histogram: requires lo < hi");
    width_ = (hi - lo) / static_cast<double>(bins);
    counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
    auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width_));
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

std::size_t Histogram::bin_count(std::size_t i) const {
    require(i < counts_.size(), "Histogram::bin_count: bin index out of range");
    return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
    require(i < counts_.size(), "Histogram::bin_lo: bin index out of range");
    return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
    return bin_lo(i) + width_;
}

double Histogram::bin_fraction(std::size_t i) const {
    if (total_ == 0) {
        return 0.0;
    }
    return static_cast<double>(bin_count(i)) / static_cast<double>(total_);
}

}  // namespace swarmavail
