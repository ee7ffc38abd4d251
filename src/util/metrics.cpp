#include "util/metrics.hpp"

#include <cmath>
#include <ostream>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace swarmavail {

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins,
                                 HistogramScale scale)
    : lo_(lo), hi_(hi), scale_(scale) {
    require(bins >= 1, "HistogramMetric: needs at least one bin");
    require(hi > lo, "HistogramMetric: hi must exceed lo");
    if (scale_ == HistogramScale::kLog2) {
        require(lo > 0.0, "HistogramMetric: log scale requires lo > 0");
        // Base-2 logs, not natural: log2/exp2 are exact at powers of two,
        // so for power-of-two lo/hi the bucket edges land exactly on the
        // powers of two and an edge value never rounds into the wrong bin.
        log_lo_ = std::log2(lo_);
        inv_log_ratio_ = static_cast<double>(bins) / (std::log2(hi_) - log_lo_);
    } else {
        inv_width_ = static_cast<double>(bins) / (hi_ - lo_);
    }
    counts_.assign(bins, 0);
}

std::size_t HistogramMetric::bucket_of(double x) const noexcept {
    double position = 0.0;
    if (scale_ == HistogramScale::kLog2) {
        if (x <= lo_) {
            return 0;
        }
        position = (std::log2(x) - log_lo_) * inv_log_ratio_;
    } else {
        position = (x - lo_) * inv_width_;
    }
    if (position <= 0.0) {
        return 0;
    }
    const auto bucket = static_cast<std::size_t>(position);
    return bucket >= counts_.size() ? counts_.size() - 1 : bucket;
}

void HistogramMetric::add(double x) noexcept {
    ++counts_[bucket_of(x)];
    ++total_;
    stats_.add(x);
}

std::uint64_t HistogramMetric::bin_count(std::size_t i) const {
    require(i < counts_.size(), "HistogramMetric::bin_count: bin out of range");
    return counts_[i];
}

double HistogramMetric::bin_lo(std::size_t i) const {
    require(i < counts_.size(), "HistogramMetric::bin_lo: bin out of range");
    if (scale_ == HistogramScale::kLog2) {
        return std::exp2(log_lo_ + static_cast<double>(i) / inv_log_ratio_);
    }
    return lo_ + static_cast<double>(i) / inv_width_;
}

double HistogramMetric::bin_hi(std::size_t i) const {
    require(i < counts_.size(), "HistogramMetric::bin_hi: bin out of range");
    return i + 1 == counts_.size() ? hi_ : bin_lo(i + 1);
}

void HistogramMetric::merge(const HistogramMetric& other) {
    require(lo_ == other.lo_ && hi_ == other.hi_ &&
                counts_.size() == other.counts_.size() && scale_ == other.scale_,
            "HistogramMetric::merge: shapes differ");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
    stats_.merge(other.stats_);
}

/// One registered metric: the name, the kind tag, and exactly one of the
/// payloads below (a tagged union spelled as optional-by-kind members; the
/// registry is not hot enough to justify a real variant).
struct MetricsRegistry::Entry {
    std::string name;
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<HistogramMetric> histogram;

    Entry(std::string entry_name, MetricKind entry_kind)
        : name(std::move(entry_name)), kind(entry_kind) {}
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;
MetricsRegistry::MetricsRegistry(MetricsRegistry&&) noexcept = default;
MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&&) noexcept = default;

MetricsRegistry::Entry& MetricsRegistry::get_or_create(std::string_view name,
                                                       MetricKind kind) {
    const auto it = index_.find(std::string{name});
    if (it != index_.end()) {
        Entry& entry = *entries_[it->second];
        SWARMAVAIL_REQUIRE(entry.kind == kind,
                           "MetricsRegistry: name already registered as a different kind: " +
                               entry.name);
        return entry;
    }
    entries_.push_back(std::make_unique<Entry>(std::string{name}, kind));
    index_.emplace(entries_.back()->name, entries_.size() - 1);
    return *entries_.back();
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    MetricKind kind) const noexcept {
    const auto it = index_.find(std::string{name});
    if (it == index_.end() || entries_[it->second]->kind != kind) {
        return nullptr;
    }
    return entries_[it->second].get();
}

Counter& MetricsRegistry::counter(std::string_view name) {
    return get_or_create(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    return get_or_create(name, MetricKind::kGauge).gauge;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name, double lo,
                                            double hi, std::size_t bins,
                                            HistogramScale scale) {
    Entry& entry = get_or_create(name, MetricKind::kHistogram);
    if (entry.histogram == nullptr) {
        entry.histogram = std::make_unique<HistogramMetric>(lo, hi, bins, scale);
    } else {
        SWARMAVAIL_REQUIRE(
            entry.histogram->bins() == bins && entry.histogram->scale() == scale &&
                entry.histogram->lo() == lo && entry.histogram->hi() == hi,
            "MetricsRegistry::histogram: shape differs from first registration: " +
                entry.name);
    }
    return *entry.histogram;
}

std::vector<std::string> MetricsRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& entry : entries_) {
        out.push_back(entry->name);
    }
    return out;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const noexcept {
    const Entry* entry = find(name, MetricKind::kCounter);
    return entry == nullptr ? nullptr : &entry->counter;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const noexcept {
    const Entry* entry = find(name, MetricKind::kGauge);
    return entry == nullptr ? nullptr : &entry->gauge;
}

const HistogramMetric* MetricsRegistry::find_histogram(
    std::string_view name) const noexcept {
    const Entry* entry = find(name, MetricKind::kHistogram);
    return entry == nullptr ? nullptr : entry->histogram.get();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
    for (const auto& theirs : other.entries_) {
        switch (theirs->kind) {
            case MetricKind::kCounter:
                counter(theirs->name).merge(theirs->counter);
                break;
            case MetricKind::kGauge:
                gauge(theirs->name).merge(theirs->gauge);
                break;
            case MetricKind::kHistogram: {
                // An unshaped histogram (registered but never configured)
                // cannot occur: histogram() always constructs the payload.
                const HistogramMetric& h = *theirs->histogram;
                histogram(theirs->name, h.lo(), h.hi(), h.bins(), h.scale()).merge(h);
                break;
            }
        }
    }
}

void MetricsRegistry::write_json(std::ostream& os) const {
    os << '[';
    bool first = true;
    for (const auto& entry : entries_) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << "\n  {\"name\":\"" << entry->name << "\",";
        switch (entry->kind) {
            case MetricKind::kCounter:
                os << "\"kind\":\"counter\",\"value\":" << entry->counter.value();
                break;
            case MetricKind::kGauge: {
                const auto& stats = entry->gauge.stats();
                os << "\"kind\":\"gauge\",\"value\":"
                   << format_double_exact(entry->gauge.value())
                   << ",\"count\":" << stats.count()
                   << ",\"mean\":" << format_double_exact(stats.mean())
                   << ",\"min\":" << format_double_exact(stats.min())
                   << ",\"max\":" << format_double_exact(stats.max());
                break;
            }
            case MetricKind::kHistogram: {
                const HistogramMetric& h = *entry->histogram;
                os << "\"kind\":\"histogram\",\"total\":" << h.total()
                   << ",\"mean\":" << format_double_exact(h.stats().mean())
                   << ",\"scale\":"
                   << (h.scale() == HistogramScale::kLog2 ? "\"log2\"" : "\"linear\"")
                   << ",\"bins\":[";
                for (std::size_t i = 0; i < h.bins(); ++i) {
                    os << (i == 0 ? "" : ",") << h.bin_count(i);
                }
                os << ']';
                break;
            }
        }
        os << '}';
    }
    os << "\n]\n";
}

}  // namespace swarmavail
