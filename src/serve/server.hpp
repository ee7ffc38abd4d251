// PlanningServer: the long-running availability-planning daemon.
//
// A loopback TCP service speaking the length-prefixed frame protocol
// (serve/protocol.hpp) with one JSON request per frame. Threading:
//
//   - one io thread owns the listening socket and every connection's
//     *read* side (poll + FrameDecoder), classifies each decoded frame's
//     lane, and pushes it into the bounded two-lane queue (serve/lanes.hpp)
//     — a full lane answers "overloaded" immediately, which is what
//     --max-inflight means;
//   - a worker pool drains the queue through the RequestRouter. With one
//     worker it prefers the model lane; with T >= 2, max(1, T/2) workers
//     prefer the sim lane (REFINE) and the rest are model-only, so a
//     model-path query is never stuck behind a running simulation.
//
// Responses are written by the worker that produced them, serialized per
// connection by a write mutex; when a client pipelines requests across
// lanes the responses may interleave out of order, which is why they echo
// the request id. Closing a connection never races a write: a worker's
// task keeps the connection alive until its response is out.
//
// Shutdown is graceful by design: request_stop() is async-signal-safe
// (SIGTERM handlers call exactly it), stop() then stops accepting,
// finishes every queued request, flushes the telemetry exporters
// (--prom-out), and closes the sockets.
//
// Observability: per-verb latency and per-stage histograms live in
// per-worker {mutex, MetricsRegistry} slots — single-owner registries,
// merged in index order when the STATS verb renders them — plus
// queue-depth gauges and accept/overload counters, all under
// swarmavail_server_* in the Prometheus exposition the router's STATS
// verb returns. Request-lifecycle spans (serve/span.hpp) attribute each
// request's latency to its stages: the io thread stamps decode and
// enqueue times into the task, the worker measures queue wait, routes
// with a RequestSpans scratch, brackets the socket write, then feeds the
// stage histograms and pushes the request's records into its span ring.
// Requests slower than --slow-ms get their whole breakdown written to
// the slow-query log the moment they finish. All of it is erased by the
// trace-off preset (SWARMAVAIL_OBSERVE_DISABLED) and off by default at
// runtime; responses are byte-identical either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/lanes.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/span.hpp"
#include "util/metrics.hpp"

namespace swarmavail::telemetry {
class PrometheusTextExporter;
class TelemetrySession;
}  // namespace swarmavail::telemetry

namespace swarmavail::serve {

struct ServerConfig {
    /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port
    /// (read the answer back via port()).
    std::uint16_t port = 0;
    /// Worker threads draining the request queue (>= 1; see lane rules).
    std::size_t threads = 2;
    /// Bound on queued requests per lane; beyond it clients get the
    /// structured "overloaded" error instead of unbounded latency.
    std::size_t max_inflight = 256;
    RouterConfig router{};
    ProtocolLimits protocol{};
    /// Prometheus text-exposition file kept fresh by a TelemetrySession
    /// sampler and flushed on shutdown; empty disables it.
    std::string prom_out;
    /// Sampling period of the --prom-out session, seconds.
    double prom_interval_s = 0.5;

    // --- request-lifecycle spans (serve/span.hpp). All of these are
    // ignored when SWARMAVAIL_OBSERVE_DISABLED is defined (trace-off). ---
    /// Master runtime gate; any of the sinks/paths below implies it.
    bool spans = false;
    /// Records retained per span ring (io thread + one per worker).
    std::size_t span_ring_capacity = 4096;
    /// Slow-query threshold, seconds end-to-end (decode start -> write
    /// end); requests at or above it have their full span breakdown
    /// written to the slow-query sink as they finish. 0 disables.
    double slow_query_seconds = 0.0;
    /// JSONL file receiving every ring's spans at stop(); empty = none.
    std::string span_out;
    /// JSONL file receiving slow-query breakdowns; empty = none.
    std::string slow_query_log;
    /// In-process sinks for tests; when set they take precedence over the
    /// span_out / slow_query_log files. Must outlive the server.
    SpanSink* span_sink = nullptr;
    SpanSink* slow_query_sink = nullptr;
};

class PlanningServer {
 public:
    explicit PlanningServer(ServerConfig config);
    ~PlanningServer();

    PlanningServer(const PlanningServer&) = delete;
    PlanningServer& operator=(const PlanningServer&) = delete;

    /// Binds, listens, and spawns the io thread and worker pool. Throws
    /// std::runtime_error when the socket setup fails.
    void start();

    /// Graceful drain: stop accepting, finish queued requests, flush the
    /// exporters, close every socket. Idempotent; also run by ~PlanningServer.
    void stop();

    /// Async-signal-safe stop request (atomic flag + self-pipe writes);
    /// the SIGTERM handler calls exactly this. Someone must then run
    /// stop() — typically the thread blocked in wait_until_stop_requested.
    void request_stop() noexcept;

    /// Blocks until request_stop() (from any thread or a signal handler).
    void wait_until_stop_requested();

    [[nodiscard]] bool running() const noexcept { return started_; }
    /// The bound port (the kernel's pick when config.port was 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] RequestRouter& router() noexcept { return router_; }
    [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }

    [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
        return accepted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t overloaded() const noexcept {
        return overloaded_.load(std::memory_order_relaxed);
    }

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    /// The span hub, when spans are active (null otherwise). Tests drain
    /// it through a MemorySpanSink; quiesce the workers first.
    [[nodiscard]] SpanHub* span_hub() noexcept { return span_hub_.get(); }
#endif

 private:
    struct Connection;
    struct Task {
        std::shared_ptr<Connection> connection;
        std::string payload;
        // Span bookkeeping the io thread stamps at decode time (all zero
        // when spans are off; plain data, so it needs no guards).
        std::uint64_t request_index = 0;
        std::uint64_t connection_id = 0;
        double decode_t0 = 0.0;  ///< hub-epoch seconds, decode begin
        double decode_t1 = 0.0;  ///< hub-epoch seconds, decode end
        double enqueue_t = 0.0;  ///< hub-epoch seconds, lane push
    };
    /// Single-owner per-worker metrics; STATS merges the registries in
    /// slot-index order under the mutexes.
    struct WorkerSlot {
        std::mutex mutex;
        MetricsRegistry registry;
        HistogramMetric* latency[kVerbCount] = {nullptr, nullptr, nullptr,
                                                nullptr, nullptr};
        /// Per-stage latency histograms (indexed by SpanStage; kAccept
        /// unused). Registered unconditionally so the STATS exposition
        /// keeps one shape whether spans run or not; fed only by spans.
        HistogramMetric* stage[kSpanStageCount] = {};
    };

    void io_loop();
    void worker_loop(std::size_t slot_index, PopMode mode);
    void handle_frames(const std::shared_ptr<Connection>& connection);
    void send_frame(Connection& connection, std::string_view payload);
    void append_server_stats(std::string& out);
    void publish_telemetry();
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    /// Feeds the stage histograms and pushes the finished request's span
    /// records into the worker's ring (slow-query funnel included).
    void finish_request_spans(WorkerSlot& slot, std::size_t slot_index,
                              const Task& task, Verb verb,
                              const RequestSpans& spans);
#endif

    ServerConfig config_;
    RequestRouter router_;
    LaneQueues<Task> queues_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};  ///< io-thread wakeup (read end polled)
    int stop_pipe_[2] = {-1, -1};  ///< wait_until_stop_requested wakeup
    std::uint16_t port_ = 0;

    std::thread io_thread_;
    std::vector<std::thread> workers_;
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::vector<std::shared_ptr<Connection>> connections_;  ///< io thread only

    std::unique_ptr<telemetry::PrometheusTextExporter> prom_exporter_;
    std::unique_ptr<telemetry::TelemetrySession> telemetry_;

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    std::unique_ptr<SpanHub> span_hub_;  ///< null when spans are inactive
    // File-backed sinks owned by the server (span_out / slow_query_log);
    // streams outlive their sinks (declaration order = reverse destruction).
    std::unique_ptr<std::ofstream> span_out_stream_;
    std::unique_ptr<std::ofstream> slow_log_stream_;
    std::unique_ptr<JsonlSpanSink> span_out_sink_;
    std::unique_ptr<JsonlSpanSink> slow_log_sink_;
#endif

    std::atomic<bool> stop_requested_{false};
    bool started_ = false;
    bool stopped_ = false;
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> overloaded_{0};
    std::atomic<std::uint64_t> bad_frames_{0};
};

}  // namespace swarmavail::serve
