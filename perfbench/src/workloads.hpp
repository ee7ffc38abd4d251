// The three workloads (README.md gives the reason for each).
//
// Each runs its measured window untraced when Options::trace is false and
// reports the end-to-end metrics. With trace on it runs the window twice,
// half the time each: untraced, then traced (server spans, phase profile,
// allocation counter, in-process layer probes). It reports the per-layer
// metrics of the traced half plus the tracing overhead against the
// untraced half.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "loopback.hpp"

namespace perfbench {

struct Options {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /// Free-form facts printed before the result line (thread counts,
    /// tail percentile used, digest checks, ...).
    std::map<std::string, std::string> info;

    void check(bool ok, const std::string& what);
    void set(const std::string& name, double value, const char* unit) {
        metrics[name] = {value, unit};
    }
};

[[nodiscard]] Report run_model_cold(const Options& options);
[[nodiscard]] Report run_catalog_sweep(const Options& options);
[[nodiscard]] Report run_swarm_fig6(const Options& options);

/// Recorded digest of `workload` at `seed` (digests.tsv), if any.
[[nodiscard]] std::optional<std::uint64_t> recorded_digest(const std::string& workload,
                                                           std::uint64_t seed);
/// Compares `digest` with the recorded one and notes the outcome.
void check_recorded(Report& report, const std::string& workload, std::uint64_t seed,
                    std::uint64_t digest);

/// Reference digests for digests.tsv, computed without any timing: the
/// catalog fingerprint of catalog-sweep, and the first call's replication
/// fingerprints of swarm-fig6.
[[nodiscard]] std::uint64_t catalog_digest(std::uint64_t seed);
[[nodiscard]] std::uint64_t swarm_digest(std::uint64_t seed);

/// Per-request cost of one model-cold pass, in-process, for README.md.
void print_cold_costs(std::uint64_t seed);

/// Peak and current resident set size of this process, bytes.
[[nodiscard]] double peak_rss_bytes();
[[nodiscard]] double current_rss_bytes();

/// Threads the workloads may use in total (the host's core count).
[[nodiscard]] std::size_t host_cores();

/// Median of `repeats` timed calls of `setup`, seconds.
template <typename Fn>
double median_setup_seconds(std::size_t repeats, Fn&& setup) {
    std::vector<double> times;
    for (std::size_t i = 0; i < repeats; ++i) {
        const std::int64_t t0 = now_ns();
        setup();
        times.push_back(static_cast<double>(now_ns() - t0) * 1.0e-9);
    }
    return median(std::move(times));
}

}  // namespace perfbench
