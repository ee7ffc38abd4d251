#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) {
        return 0.0;
    }
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(p * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double median(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return percentile(samples, 0.5);
}

Tail tail_percentile(const std::vector<double>& sorted, double target) {
    Tail tail;
    const std::size_t n = sorted.size();
    if (n == 0) {
        return tail;
    }
    auto rank = static_cast<std::size_t>(std::ceil(target * static_cast<double>(n)));
    rank = std::min(rank, n > kMinBeyond ? n - kMinBeyond : 0);
    // A "tail" at or below the median says nothing: report the maximum.
    if (rank * 2 < n) {
        tail.value = sorted.back();
        tail.percentile = 1.0;
        return tail;
    }
    tail.value = sorted[rank - 1];
    tail.percentile = static_cast<double>(rank) / static_cast<double>(n);
    tail.beyond = n - rank;
    tail.valid = true;
    return tail;
}

LatencySummary summarize(std::vector<double> samples, double target) {
    std::sort(samples.begin(), samples.end());
    LatencySummary out;
    out.count = samples.size();
    out.p50 = percentile(samples, 0.5);
    out.tail = tail_percentile(samples, target);
    return out;
}

std::uint64_t closed_loop_answer(const ReplyInfo& reply, std::uint64_t outstanding) {
    if (reply.refused) {
        return outstanding;
    }
    return reply.has_id && reply.id == outstanding ? outstanding : 0;
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        const double value = std::isfinite(metric.value)
                                 ? metric.value
                                 : std::numeric_limits<double>::max();
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g", value);
        if (!first) {
            out += ", ";
        }
        first = false;
        out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
               metric.unit + "\"}";
    }
    out += "}}";
    return out;
}

double overhead_pct(double untraced, double traced) {
    if (untraced == 0.0) {
        return 0.0;
    }
    return (traced - untraced) / untraced * 100.0;
}

}  // namespace perfbench
