// Arithmetic of the benchmark harness: percentile selection, refusal
// accounting, and the result line. Kept free of sockets and of the
// swarmavail libraries so tests/harness_test.cpp can pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of ascending `sorted` (p in (0, 1]); 0 if empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Median of unsorted samples (upper median for even counts); 0 if empty.
[[nodiscard]] double median(std::vector<double> samples);

/// A tail percentile chosen so that at least kMinBeyond samples lie beyond
/// it: the nearest-rank `target` percentile when the count allows, else the
/// sample with exactly kMinBeyond samples above it. When that sample would
/// sit below the median (fewer than 2 * kMinBeyond samples), the maximum is
/// reported and the tail marked invalid.
struct Tail {
    double value = 0.0;
    double percentile = 0.0;  ///< rank / count of the chosen sample
    std::size_t beyond = 0;   ///< samples strictly after it in rank order
    bool valid = false;       ///< false when the maximum stands in
};
[[nodiscard]] Tail tail_percentile(const std::vector<double>& sorted,
                                   double target = 0.99);

/// Median and tail of a latency sample. Refused or failed operations enter
/// as +infinity, so they miss every limit.
struct LatencySummary {
    std::size_t count = 0;
    double p50 = 0.0;
    Tail tail;
};
[[nodiscard]] LatencySummary summarize(std::vector<double> samples,
                                       double target = 0.99);

/// What a reply payload says about the request it answers.
struct ReplyInfo {
    bool has_id = false;
    std::uint64_t id = 0;
    bool refused = false;  ///< the io thread's "overloaded" reply (no id)
};

/// The id a reply answers in a closed loop with one request outstanding on
/// its connection (`outstanding`, 0 when none). The server answers a full
/// lane from its io thread with an "overloaded" reply that carries no id,
/// so a refusal answers the request outstanding on its connection. 0 when
/// the reply answers nothing outstanding.
[[nodiscard]] std::uint64_t closed_loop_answer(const ReplyInfo& reply,
                                               std::uint64_t outstanding);

/// One metric of the result line.
struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Formats the result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u}}}. Non-finite values are written
/// as 1e308 (JSON has no infinity); they only arise from failed requests.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::map<std::string, Metric>& metrics);

/// Relative change (traced - untraced) / untraced in percent; 0 when the
/// untraced value is 0.
[[nodiscard]] double overhead_pct(double untraced, double traced);

}  // namespace perfbench
