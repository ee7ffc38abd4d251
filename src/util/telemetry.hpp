// Live run telemetry: periodic wall-clock snapshots of a running
// experiment, published through pluggable exporters.
//
// A TelemetrySession sits beside a long run (swarm replications, a
// catalog sweep) and makes it observable while it executes, the way
// production swarming systems are observed: every `interval_s` seconds a
// background sampler thread reads the run-level counters (replications and
// swarms completed, events dispatched, sim-time advanced, queue depth),
// the process RSS, and the streaming convergence statistics, assembles a
// TelemetrySnapshot, and hands it to each exporter — a JSONL stream
// (tailable with examples/telemetry_watch), a Prometheus text-exposition
// file (scrapable with a node_exporter textfile collector or a plain HTTP
// file server), or an in-memory ring for tests.
//
// Threading and determinism model:
//   - engines publish progress through relaxed atomics in RunCounters and
//     per-completion ConvergenceTracker::observe calls (mutex, off the
//     event hot path: one update per completed replication/swarm, never
//     per event), so the sampler thread is tsan-clean against the workers;
//   - the sampler only ever *reads* shared state; it draws no randomness
//     and touches no simulator, so an attached session cannot change any
//     simulation result (the engines' observer-neutrality tests pin this);
//   - call sites in the engines go through SWARMAVAIL_OBSERVE, a
//     null-pointer branch when detached and compiled out entirely under
//     SWARMAVAIL_OBSERVE_DISABLED (util/observe.hpp, the trace-off preset).
//
// StopRule is the one deliberate exception to observer neutrality: an
// *opt-in* control hook that ends a catalog sweep early once the 95%
// confidence half-width of the tracked estimate falls below a target. It
// changes which work runs, so the early-stop decision is recorded in the
// result (CatalogReport::stopped_early) and determinism-sensitive callers
// simply leave the rule unset. StopRule lives here header-only so the engines can
// evaluate it without linking any telemetry machinery.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace swarmavail::telemetry {

/// Adds `delta` to an atomic double with relaxed ordering. A CAS loop, not
/// std::atomic<double>::fetch_add, so the toolchain floor stays C++20-less
/// on this member; contention is negligible (one call per completed work
/// unit).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
}

/// Run-level progress counters shared between the engines (writers) and
/// the sampler thread (reader). All members are relaxed atomics; engines
/// update them once per completed work unit (replication, swarm) — never
/// per event — so the hot path stays untouched and
/// every published value is monotone except the queue-depth gauge.
struct RunCounters {
    std::atomic<std::uint64_t> replications_total{0};
    std::atomic<std::uint64_t> replications_completed{0};
    std::atomic<std::uint64_t> swarms_total{0};
    std::atomic<std::uint64_t> swarms_completed{0};
    std::atomic<std::uint64_t> events_dispatched{0};
    /// Completed simulated seconds, summed over finished work units.
    std::atomic<double> sim_time_advanced{0.0};
    /// Total simulated seconds the run intends to execute (0 if unknown).
    std::atomic<double> sim_time_target{0.0};
    /// Pending-work gauge, last writer wins: not-yet-completed fan-out
    /// indices under sim::for_index, queued requests in the planning server.
    std::atomic<double> queue_depth{0.0};
    /// Running XOR of completed work units' determinism fingerprints (see
    /// sim/fingerprint.hpp). XOR is commutative, so the value at run
    /// completion is identical for every thread count / completion order;
    /// mid-run it only reflects the units finished so far. The canonical
    /// order-sensitive catalog fingerprint lives in CatalogReport — this is
    /// the live view. Stays 0 with fingerprinting off or compiled out.
    std::atomic<std::uint64_t> fingerprint_xor{0};
};

/// One tracked estimate's streaming summary at snapshot time.
struct TrackedStat {
    std::string name;
    std::size_t count = 0;
    double mean = 0.0;
    double ci95_halfwidth = 0.0;
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
};

/// Streaming per-metric convergence statistics: engines observe one value
/// per completed work unit (a replication's mean unavailability, a swarm's
/// arrival unavailability) and snapshots report the live 95% CI half-width
/// — the quantity a StopRule targets and telemetry_watch plots. Mutex-
/// guarded; safe for concurrent observers and the sampler thread.
class ConvergenceTracker {
 public:
    void observe(std::string_view metric, double value);

    /// Every tracked metric in first-observation order.
    [[nodiscard]] std::vector<TrackedStat> snapshot() const;

 private:
    struct Slot {
        std::string name;
        StreamingStats stats;
        double last = 0.0;
    };

    mutable std::mutex mutex_;
    std::vector<Slot> slots_;
};

/// Early-stop criterion over a streaming estimate: satisfied once at least
/// `min_observations` values have been seen and the ~95% confidence
/// half-width of their mean is at or below `ci95_target`. Header-only on
/// purpose (see the file comment): usable by the engines in builds that
/// compile the telemetry call sites out.
struct StopRule {
    double ci95_target = 0.0;        ///< required > 0 to ever fire
    std::size_t min_observations = 8;

    [[nodiscard]] bool satisfied(const StreamingStats& stats) const noexcept {
        return ci95_target > 0.0 && stats.count() >= min_observations &&
               stats.count() >= 2 && stats.ci95_halfwidth() <= ci95_target;
    }
};

/// One periodic observation of the run, as published to exporters.
struct TelemetrySnapshot {
    std::uint64_t sequence = 0;       ///< 0-based emission index
    double wall_time_s = 0.0;         ///< seconds since the session started
    bool final_snapshot = false;      ///< emitted by stop(), after the run
    std::uint64_t replications_total = 0;
    std::uint64_t replications_completed = 0;
    std::uint64_t swarms_total = 0;
    std::uint64_t swarms_completed = 0;
    std::uint64_t events_dispatched = 0;
    double events_per_s = 0.0;        ///< dispatch rate since the prior snapshot
    double sim_time_advanced = 0.0;   ///< completed simulated seconds
    double sim_time_target = 0.0;
    double sim_time_rate = 0.0;       ///< sim s per wall s since the prior snapshot
    double queue_depth = 0.0;
    double progress = 0.0;            ///< completed fraction in [0, 1] (0 if unknown)
    double eta_s = -1.0;              ///< estimated remaining wall seconds (< 0 unknown)
    std::uint64_t rss_bytes = 0;      ///< resident set size (0 where unsupported)
    std::uint64_t peak_rss_bytes = 0;
    /// XOR of completed work units' determinism fingerprints at sample time
    /// (see RunCounters::fingerprint_xor); 0 when fingerprinting is off.
    std::uint64_t fingerprint_xor = 0;
    std::vector<TrackedStat> tracked; ///< convergence-tracker summaries
};

/// Where snapshots go. The session calls export_snapshot from its sampler
/// thread (and once more from stop() for the final snapshot, after the
/// sampler joined), never concurrently; finish() follows the last snapshot.
class TelemetryExporter {
 public:
    virtual ~TelemetryExporter() = default;
    virtual void export_snapshot(const TelemetrySnapshot& snapshot) = 0;
    virtual void finish() {}
};

/// One JSON object per line per snapshot, lossless doubles, flushed after
/// every line so `tail -f` (and examples/telemetry_watch) see snapshots as
/// they happen. Parse the stream back with read_telemetry_jsonl.
class JsonlTelemetryExporter final : public TelemetryExporter {
 public:
    /// The stream must outlive the exporter.
    explicit JsonlTelemetryExporter(std::ostream& os) : os_(os) {}
    void export_snapshot(const TelemetrySnapshot& snapshot) override;

 private:
    std::ostream& os_;
};

/// Rewrites a Prometheus text-exposition file on every snapshot (write to
/// `path`.tmp, then atomic rename), so a scraper never reads a torn file.
/// The exposition carries every run-level series under the `swarmavail_`
/// prefix plus per-tracked-metric mean/ci gauges; see write_prometheus.
class PrometheusTextExporter final : public TelemetryExporter {
 public:
    explicit PrometheusTextExporter(std::string path) : path_(std::move(path)) {}
    void export_snapshot(const TelemetrySnapshot& snapshot) override;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
    std::string path_;
};

/// Keeps the last `capacity` snapshots in memory (drop-oldest ring); the
/// in-process exporter the tests and acceptance checks read.
class MemoryTelemetryExporter final : public TelemetryExporter {
 public:
    explicit MemoryTelemetryExporter(std::size_t capacity = 4096);
    void export_snapshot(const TelemetrySnapshot& snapshot) override;

    /// Snapshots in emission order (oldest first among those retained).
    [[nodiscard]] const std::vector<TelemetrySnapshot>& snapshots() const noexcept {
        return snapshots_;
    }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
    std::size_t capacity_;
    std::vector<TelemetrySnapshot> snapshots_;
    std::uint64_t dropped_ = 0;
};

/// Session configuration. Exporters are non-owning and must outlive the
/// session; with no exporters the session still samples (snapshots_taken
/// advances) but publishes nowhere.
struct TelemetryConfig {
    double interval_s = 0.25;  ///< wall-clock sampling period (> 0)
    std::vector<TelemetryExporter*> exporters;
};

/// The live-telemetry harness. Owned by the caller, attached to engine
/// configs by pointer; engines only touch counters()/tracker() (through
/// SWARMAVAIL_OBSERVE), the session owns the sampler thread and the
/// exporters' cadence.
///
/// Lifecycle: construct, start() (spawns the sampler), attach to one or
/// more runs, stop() (joins the sampler and emits the final snapshot;
/// also called by the destructor). A stopped session can be restarted;
/// counters accumulate across runs for the session's life.
class TelemetrySession {
 public:
    explicit TelemetrySession(TelemetryConfig config);
    ~TelemetrySession();

    TelemetrySession(const TelemetrySession&) = delete;
    TelemetrySession& operator=(const TelemetrySession&) = delete;

    [[nodiscard]] RunCounters& counters() noexcept { return counters_; }
    [[nodiscard]] const RunCounters& counters() const noexcept { return counters_; }
    [[nodiscard]] ConvergenceTracker& tracker() noexcept { return tracker_; }

    /// Spawns the sampler thread. No-op if already running.
    void start();
    /// Joins the sampler and emits one final snapshot (final_snapshot =
    /// true), then finish()es the exporters. No-op if never started and
    /// nothing was ever emitted; safe to call repeatedly.
    void stop();
    [[nodiscard]] bool running() const noexcept { return sampler_ != nullptr; }

    /// Assembles and publishes a snapshot right now (also usable without
    /// start() for externally-paced sampling). Thread-safe against the
    /// sampler.
    TelemetrySnapshot snapshot_now(bool final_snapshot = false);

    [[nodiscard]] std::uint64_t snapshots_taken() const noexcept {
        return snapshots_taken_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double interval_s() const noexcept { return config_.interval_s; }

 private:
    struct Sampler;

    TelemetryConfig config_;
    RunCounters counters_;
    ConvergenceTracker tracker_;

    std::mutex emit_mutex_;  ///< serializes snapshot assembly + export
    std::atomic<std::uint64_t> snapshots_taken_{0};
    std::uint64_t next_sequence_ = 0;
    bool finished_ = false;
    std::chrono::steady_clock::time_point started_at_;
    /// Rate baseline: previous snapshot's wall time / events / sim time.
    double prev_wall_s_ = 0.0;
    std::uint64_t prev_events_ = 0;
    double prev_sim_time_ = 0.0;

    std::unique_ptr<Sampler> sampler_;
};

/// Writes one snapshot in Prometheus text exposition format (HELP/TYPE
/// headers plus `swarmavail_*` samples). Exposed for tests and for callers
/// that serve /metrics themselves.
void write_prometheus(const TelemetrySnapshot& snapshot, std::ostream& os);

/// Structural check of a Prometheus text exposition: every line is a
/// comment/HELP/TYPE line or `metric_name[{labels}] value`, metric names
/// are legal, TYPE precedes first use, and the text ends with a newline.
/// On failure returns false and, if `error` is non-null, why.
[[nodiscard]] bool validate_prometheus_text(std::string_view text,
                                            std::string* error = nullptr);

/// Parses a JSONL snapshot stream produced by JsonlTelemetryExporter.
/// Restricted to that writer's output shape; throws std::invalid_argument
/// on malformed lines. Doubles round-trip bit-exactly.
[[nodiscard]] std::vector<TelemetrySnapshot> read_telemetry_jsonl(std::istream& in);

/// Current resident-set size and peak RSS of this process in bytes
/// (Linux: /proc/self/status VmRSS/VmHWM). Returns false (zeros) where
/// unsupported.
bool read_process_rss(std::uint64_t& rss_bytes, std::uint64_t& peak_rss_bytes);

}  // namespace swarmavail::telemetry
