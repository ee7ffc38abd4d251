#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "serve/json.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::serve {
namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Latency histogram shape shared by every per-worker slot (shapes must
/// match for the index-order merge): log2 bins from 100 ns to 10 s.
constexpr double kLatencyLo = 1.0e-7;
constexpr double kLatencyHi = 10.0;
constexpr std::size_t kLatencyBins = 27;

[[noreturn]] void throw_errno(const char* what) {
    throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void close_fd(int& fd) noexcept {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        throw_errno("fcntl(O_NONBLOCK)");
    }
}

/// Writes one byte; async-signal-safe, best-effort (a full pipe already
/// guarantees the reader will wake).
void poke(int fd) noexcept {
    if (fd >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
}

void drain_pipe(int fd) noexcept {
    std::array<char, 64> sink{};
    while (::read(fd, sink.data(), sink.size()) > 0) {
    }
}

std::string histogram_metric_name(Verb verb) {
    return "server.latency_s." + std::string(verb_label(verb));
}

std::string stage_metric_name(SpanStage stage) {
    return "server.stage_s." + std::string(span_stage_name(stage));
}

}  // namespace

/// One client connection. The io thread owns the read side; workers write
/// responses under write_mutex. The fd closes when the last reference
/// (io map or in-flight task) drops, so a write never races a close.
struct PlanningServer::Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::mutex write_mutex;
    std::uint64_t id = 0;  ///< accept-order id (spans correlate on it)
    bool broken = false;  ///< decoder poisoned or peer gone (io thread only)

    explicit Connection(int socket_fd, const ProtocolLimits& limits)
        : fd(socket_fd), decoder(limits) {}
    ~Connection() {
        if (fd >= 0) {
            ::close(fd);
        }
    }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
};

PlanningServer::PlanningServer(ServerConfig config)
    : config_(std::move(config)),
      router_(config_.router),
      queues_(config_.max_inflight) {
    SWARMAVAIL_REQUIRE(config_.threads >= 1,
                       "PlanningServer: requires at least one worker thread");
    router_.set_stats_appender([this](std::string& out) { append_server_stats(out); });
}

PlanningServer::~PlanningServer() { stop(); }

void PlanningServer::start() {
    SWARMAVAIL_REQUIRE(!started_, "PlanningServer: start() called twice");

    if (::pipe(wake_pipe_) != 0 || ::pipe(stop_pipe_) != 0) {
        throw_errno("pipe");
    }
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(stop_pipe_[0]);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw_errno("socket");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback-only service
    addr.sin_port = htons(config_.port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        throw_errno("bind");
    }
    if (::listen(listen_fd_, 64) != 0) {
        throw_errno("listen");
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
        throw_errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    set_nonblocking(listen_fd_);

    if (!config_.prom_out.empty()) {
        prom_exporter_ =
            std::make_unique<telemetry::PrometheusTextExporter>(config_.prom_out);
        telemetry::TelemetryConfig telemetry_config;
        telemetry_config.interval_s = config_.prom_interval_s;
        telemetry_config.exporters = {prom_exporter_.get()};
        telemetry_ = std::make_unique<telemetry::TelemetrySession>(telemetry_config);
        telemetry_->start();
    }

    // Lane plan: one worker prefers the model lane; with T >= 2 the pool
    // splits into max(1, T/2) sim-preferring workers and model-only ones,
    // so model-path queries never queue behind a simulation.
    const std::size_t threads = config_.threads;
    std::vector<PopMode> modes;
    if (threads == 1) {
        modes.push_back(PopMode::kPreferModel);
    } else {
        const std::size_t sim_workers = threads / 2 == 0 ? 1 : threads / 2;
        for (std::size_t i = 0; i < threads; ++i) {
            modes.push_back(i < sim_workers ? PopMode::kPreferSim
                                            : PopMode::kModelOnly);
        }
    }

    slots_.clear();
    slots_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        auto slot = std::make_unique<WorkerSlot>();
        for (std::size_t v = 0; v < kVerbCount; ++v) {
            slot->latency[v] = &slot->registry.histogram(
                histogram_metric_name(static_cast<Verb>(v)), kLatencyLo, kLatencyHi,
                kLatencyBins, HistogramScale::kLog2);
        }
        // Stage histograms exist in every build and run (all-zero when
        // spans are off) so the STATS exposition keeps one shape; kAccept
        // is a point event on the io thread and has no histogram.
        for (std::size_t s = 1; s < kSpanStageCount; ++s) {
            slot->stage[s] = &slot->registry.histogram(
                stage_metric_name(static_cast<SpanStage>(s)), kLatencyLo,
                kLatencyHi, kLatencyBins, HistogramScale::kLog2);
        }
        slots_.push_back(std::move(slot));
    }

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    const bool want_spans =
        config_.spans || config_.slow_query_seconds > 0.0 ||
        !config_.span_out.empty() || !config_.slow_query_log.empty() ||
        config_.span_sink != nullptr || config_.slow_query_sink != nullptr;
    if (want_spans) {
        if (!config_.span_out.empty() && config_.span_sink == nullptr) {
            span_out_stream_ = std::make_unique<std::ofstream>(config_.span_out);
            if (!*span_out_stream_) {
                throw std::runtime_error("PlanningServer: cannot open span log " +
                                         config_.span_out);
            }
            span_out_sink_ = std::make_unique<JsonlSpanSink>(*span_out_stream_);
        }
        SpanSink* slow = config_.slow_query_sink;
        if (slow == nullptr && !config_.slow_query_log.empty()) {
            slow_log_stream_ =
                std::make_unique<std::ofstream>(config_.slow_query_log);
            if (!*slow_log_stream_) {
                throw std::runtime_error(
                    "PlanningServer: cannot open slow-query log " +
                    config_.slow_query_log);
            }
            slow_log_sink_ = std::make_unique<JsonlSpanSink>(*slow_log_stream_);
            slow = slow_log_sink_.get();
        }
        SpanHubConfig hub_config;
        hub_config.rings = threads + 1;  // ring 0 = io thread
        hub_config.ring_capacity = config_.span_ring_capacity;
        hub_config.slow_threshold_s = config_.slow_query_seconds;
        span_hub_ = std::make_unique<SpanHub>(hub_config, slow);
        span_hub_->set_enabled(true);
    }
#endif

    started_ = true;
    stopped_ = false;
    io_thread_ = std::thread([this] { io_loop(); });
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this, i, mode = modes[i]] { worker_loop(i, mode); });
    }
}

void PlanningServer::request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_release);
    poke(wake_pipe_[1]);
    poke(stop_pipe_[1]);
}

void PlanningServer::wait_until_stop_requested() {
    while (!stop_requested_.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = stop_pipe_[0];
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, 500);
        if (rc > 0) {
            drain_pipe(stop_pipe_[0]);
        }
    }
}

void PlanningServer::stop() {
    if (!started_ || stopped_) {
        return;
    }
    stopped_ = true;

    // 1. Stop intake: wake the io thread, which closes the listening
    //    socket and stops reading connections, then join it.
    request_stop();
    if (io_thread_.joinable()) {
        io_thread_.join();
    }
    // 2. Finish in-flight work: close the queue (no more pushes, queued
    //    tasks keep draining) and join the workers.
    queues_.close();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    workers_.clear();
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    // Producers are quiesced: drain the span rings (index order) into the
    // configured sink, then release the file-backed sinks.
    if (span_hub_ != nullptr) {
        if (config_.span_sink != nullptr) {
            span_hub_->drain(*config_.span_sink);
        } else if (span_out_sink_ != nullptr) {
            span_hub_->drain(*span_out_sink_);
        }
        span_hub_.reset();
        span_out_sink_.reset();
        span_out_stream_.reset();
        slow_log_sink_.reset();
        slow_log_stream_.reset();
    }
#endif
    // 3. Flush exporters: the final snapshot rewrites --prom-out.
    if (telemetry_ != nullptr) {
        publish_telemetry();
        telemetry_->stop();
        telemetry_.reset();
        prom_exporter_.reset();
    }
    // 4. Close every socket (responses are all written by now).
    connections_.clear();
    close_fd(listen_fd_);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    close_fd(stop_pipe_[0]);
    close_fd(stop_pipe_[1]);
    started_ = false;
}

void PlanningServer::send_frame(Connection& connection, std::string_view payload) {
    const std::string frame = encode_frame(payload);
    std::unique_lock<std::mutex> lock(connection.write_mutex);
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = ::send(connection.fd, frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;  // peer vanished; nothing useful to do with the error
        }
        sent += static_cast<std::size_t>(n);
    }
}

void PlanningServer::handle_frames(const std::shared_ptr<Connection>& connection) {
    std::string payload;
    std::string decode_error;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    SpanHub* hub = (span_hub_ != nullptr && span_hub_->enabled())
                       ? span_hub_.get()
                       : nullptr;
#endif
    while (true) {
        [[maybe_unused]] double decode_t0 = 0.0;
        [[maybe_unused]] double decode_t1 = 0.0;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        if (hub != nullptr) {
            decode_t0 = hub->now();
        }
#endif
        const FrameDecoder::Status status =
            connection->decoder.next(payload, decode_error);
        if (status == FrameDecoder::Status::kNeedMore) {
            return;
        }
        if (status == FrameDecoder::Status::kError) {
            // Framing is unrecoverable: answer once, then drop the
            // connection (the decoder stays poisoned).
            bad_frames_.fetch_add(1, std::memory_order_relaxed);
            send_frame(*connection,
                       RequestRouter::error_response(error_code::kBadFrame,
                                                     decode_error));
            connection->broken = true;
            return;
        }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        if (hub != nullptr) {
            decode_t1 = hub->now();
        }
#endif
        const Lane lane = classify_lane(payload);
        Task task{connection, std::move(payload)};
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        if (hub != nullptr) {
            task.request_index = hub->next_request();
            task.connection_id = connection->id;
            task.decode_t0 = decode_t0;
            task.decode_t1 = decode_t1;
            task.enqueue_t = hub->now();
        }
#endif
        if (!queues_.try_push(lane, std::move(task))) {
            overloaded_.fetch_add(1, std::memory_order_relaxed);
            send_frame(*connection,
                       RequestRouter::error_response(
                           error_code::kOverloaded,
                           "request queue is full; retry after in-flight "
                           "requests drain"));
        }
        payload.clear();
        publish_telemetry();
    }
}

void PlanningServer::io_loop() {
    std::vector<pollfd> pollfds;
    std::array<char, kReadChunk> buffer{};

    while (!stop_requested_.load(std::memory_order_acquire)) {
        pollfds.clear();
        pollfds.push_back({wake_pipe_[0], POLLIN, 0});
        pollfds.push_back({listen_fd_, POLLIN, 0});
        for (const auto& connection : connections_) {
            pollfds.push_back({connection->fd, POLLIN, 0});
        }
        const int rc = ::poll(pollfds.data(), pollfds.size(), 1000);
        if (rc < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if ((pollfds[0].revents & POLLIN) != 0) {
            drain_pipe(wake_pipe_[0]);
            continue;  // re-check the stop flag
        }
        // Connections accepted below were not part of this round's poll;
        // only the first `polled` entries of connections_ have revents.
        const std::size_t polled = pollfds.size() - 2;
        if ((pollfds[1].revents & POLLIN) != 0) {
            while (true) {
                const int client = ::accept(listen_fd_, nullptr, nullptr);
                if (client < 0) {
                    break;  // EAGAIN: accepted everything pending
                }
                const std::uint64_t id =
                    accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
                auto connection =
                    std::make_shared<Connection>(client, config_.protocol);
                connection->id = id;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
                if (span_hub_ != nullptr && span_hub_->enabled()) {
                    SpanRecord record{};
                    record.connection = id;
                    record.stage =
                        static_cast<std::uint16_t>(SpanStage::kAccept);
                    record.t_start = span_hub_->now();
                    record.t_end = record.t_start;
                    span_hub_->emit(0, record);
                }
#endif
                connections_.push_back(std::move(connection));
            }
        }
        for (std::size_t i = 0; i < polled; ++i) {
            const short revents = pollfds[i + 2].revents;
            if (revents == 0) {
                continue;
            }
            const std::shared_ptr<Connection>& connection = connections_[i];
            if ((revents & POLLIN) != 0) {
                const ssize_t n = ::recv(connection->fd, buffer.data(),
                                         buffer.size(), 0);
                if (n > 0) {
                    connection->decoder.feed(
                        std::string_view(buffer.data(), static_cast<std::size_t>(n)));
                    handle_frames(connection);
                } else if (n == 0) {
                    // EOF. Bytes stuck mid-frame mean the client truncated a
                    // frame; it may still be reading (shutdown(SHUT_WR)), so
                    // answer before dropping the connection.
                    if (!connection->broken &&
                        connection->decoder.pending_bytes() > 0) {
                        bad_frames_.fetch_add(1, std::memory_order_relaxed);
                        send_frame(*connection,
                                   RequestRouter::error_response(
                                       error_code::kBadFrame,
                                       "connection closed inside a frame "
                                       "(truncated payload)"));
                    }
                    connection->broken = true;
                } else if (errno != EINTR && errno != EAGAIN) {
                    connection->broken = true;
                }
            }
            if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
                connection->broken = true;
            }
        }
        // Drop broken connections; in-flight tasks keep their Connection
        // alive until the response is written.
        std::size_t kept = 0;
        for (auto& connection : connections_) {
            if (!connection->broken) {
                connections_[kept++] = std::move(connection);
            }
        }
        connections_.resize(kept);
    }
    // Stop accepting immediately; established connections stay open until
    // stop() finished draining the queue.
    close_fd(listen_fd_);
}

void PlanningServer::worker_loop(std::size_t slot_index, PopMode mode) {
    WorkerSlot& slot = *slots_[slot_index];
    Task task;
    while (queues_.pop(mode, task)) {
        const auto started = std::chrono::steady_clock::now();
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        SpanHub* hub = (span_hub_ != nullptr && span_hub_->enabled() &&
                        task.request_index != 0)
                           ? span_hub_.get()
                           : nullptr;
        RequestSpans spans;
        RequestSpans* spans_ptr = nullptr;
        if (hub != nullptr) {
            spans.set_epoch(hub->epoch());
            spans.note(SpanStage::kDecode, task.decode_t0, task.decode_t1,
                       task.payload.size());
            spans.note(SpanStage::kQueueWait, task.enqueue_t, hub->now());
            spans_ptr = &spans;
        }
        const RouteResult result = router_.route(task.payload, spans_ptr);
#else
        const RouteResult result = router_.route(task.payload);
#endif
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count();
        {
            std::unique_lock<std::mutex> lock(slot.mutex);
            slot.latency[static_cast<std::size_t>(result.verb)]->add(seconds);
        }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        double write_t0 = 0.0;
        if (hub != nullptr) {
            write_t0 = hub->now();
        }
#endif
        send_frame(*task.connection, result.payload);
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        if (hub != nullptr) {
            spans.note(SpanStage::kWrite, write_t0, hub->now(),
                       result.payload.size());
            finish_request_spans(slot, slot_index, task, result.verb, spans);
        }
#endif
        task.connection.reset();
        publish_telemetry();
    }
}

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
void PlanningServer::finish_request_spans(WorkerSlot& slot, std::size_t slot_index,
                                          const Task& task, Verb verb,
                                          const RequestSpans& spans) {
    const auto worker = static_cast<std::uint16_t>(slot_index + 1);
    const auto verb_id = static_cast<std::uint16_t>(verb);
    const auto lane_id = static_cast<std::uint16_t>(lane_of(verb));

    SpanRecord records[kSpanStageCount];
    std::size_t count = 0;
    for (std::size_t s = 0; s < kSpanStageCount; ++s) {
        const auto stage = static_cast<SpanStage>(s);
        if (!spans.has(stage)) {
            continue;
        }
        SpanRecord& record = records[count++];
        record = SpanRecord{};
        record.request = task.request_index;
        record.connection = task.connection_id;
        record.t_start = spans.t0[s];
        record.t_end = spans.t1[s];
        record.bytes = spans.stage_bytes[s];
        record.stage = static_cast<std::uint16_t>(s);
        record.verb = verb_id;
        record.lane = lane_id;
        record.worker = worker;
        record.cache = spans.cache;
    }

    // Feed the per-stage histograms; the cache probe excludes the compute
    // it brackets, so probe cost and compute cost separate cleanly.
    {
        std::unique_lock<std::mutex> lock(slot.mutex);
        for (std::size_t i = 0; i < count; ++i) {
            const SpanRecord& record = records[i];
            HistogramMetric* histogram = slot.stage[record.stage];
            if (histogram == nullptr) {
                continue;
            }
            double duration = record.t_end - record.t_start;
            if (record.stage == static_cast<std::uint16_t>(SpanStage::kCache)) {
                duration -= spans.duration(SpanStage::kCompute);
            }
            histogram->add(duration < 0.0 ? 0.0 : duration);
        }
    }

    // End-to-end latency (decode start -> write end) drives the
    // slow-query funnel.
    const double total = spans.has(SpanStage::kDecode)
                             ? spans.t1[static_cast<std::size_t>(
                                   SpanStage::kWrite)] -
                                   spans.t0[static_cast<std::size_t>(
                                       SpanStage::kDecode)]
                             : 0.0;
    span_hub_->finish_request(worker, records, count, total);
}
#endif

void PlanningServer::publish_telemetry() {
    if (telemetry_ == nullptr) {
        return;
    }
    telemetry::RunCounters& counters = telemetry_->counters();
    std::uint64_t handled = 0;
    for (std::size_t v = 0; v < kVerbCount; ++v) {
        handled += router_.requests(static_cast<Verb>(v));
    }
    counters.events_dispatched.store(handled, std::memory_order_relaxed);
    counters.queue_depth.store(
        static_cast<double>(queues_.depth(Lane::kModel) + queues_.depth(Lane::kSim)),
        std::memory_order_relaxed);
    counters.fingerprint_xor.store(router_.refine_fingerprint_xor(),
                                   std::memory_order_relaxed);
}

void PlanningServer::append_server_stats(std::string& out) {
    out += "# HELP swarmavail_server_connections_accepted_total Connections "
           "accepted since start.\n";
    out += "# TYPE swarmavail_server_connections_accepted_total counter\n";
    out += "swarmavail_server_connections_accepted_total " +
           std::to_string(connections_accepted()) + "\n";
    out += "# HELP swarmavail_server_overloaded_total Requests rejected because "
           "a lane was at --max-inflight.\n";
    out += "# TYPE swarmavail_server_overloaded_total counter\n";
    out += "swarmavail_server_overloaded_total " + std::to_string(overloaded()) + "\n";
    out += "# HELP swarmavail_server_bad_frames_total Connections dropped for "
           "unrecoverable framing.\n";
    out += "# TYPE swarmavail_server_bad_frames_total counter\n";
    out += "swarmavail_server_bad_frames_total " +
           std::to_string(bad_frames_.load(std::memory_order_relaxed)) + "\n";

    out += "# HELP swarmavail_server_queue_depth Queued requests, by lane.\n";
    out += "# TYPE swarmavail_server_queue_depth gauge\n";
    out += "swarmavail_server_queue_depth{lane=\"model\"} " +
           std::to_string(queues_.depth(Lane::kModel)) + "\n";
    out += "swarmavail_server_queue_depth{lane=\"sim\"} " +
           std::to_string(queues_.depth(Lane::kSim)) + "\n";

    // Per-verb latency histograms, merged over the single-owner worker
    // slots in index order (the registry merge discipline).
    for (std::size_t v = 0; v < kVerbCount; ++v) {
        HistogramMetric merged(kLatencyLo, kLatencyHi, kLatencyBins,
                               HistogramScale::kLog2);
        for (const auto& slot : slots_) {
            std::unique_lock<std::mutex> lock(slot->mutex);
            merged.merge(*slot->latency[v]);
        }
        const std::string family = "swarmavail_server_latency_seconds_" +
                                   std::string(verb_label(static_cast<Verb>(v)));
        out += "# HELP " + family + " Request latency, seconds.\n";
        out += "# TYPE " + family + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t bin = 0; bin < merged.bins(); ++bin) {
            cumulative += merged.bin_count(bin);
            out += family + "_bucket{le=\"" + format_double_exact(merged.bin_hi(bin)) +
                   "\"} " + std::to_string(cumulative) + "\n";
        }
        out += family + "_bucket{le=\"+Inf\"} " + std::to_string(merged.total()) +
               "\n";
        out += family + "_sum " + format_double_exact(merged.stats().sum()) + "\n";
        out += family + "_count " + std::to_string(merged.total()) + "\n";
    }

    // Per-stage latency histograms, same merge discipline. Fed by request
    // spans; present (all-zero) even when spans are off or compiled out,
    // so the exposition's shape never depends on the observer.
    for (std::size_t s = 1; s < kSpanStageCount; ++s) {
        HistogramMetric merged(kLatencyLo, kLatencyHi, kLatencyBins,
                               HistogramScale::kLog2);
        for (const auto& slot : slots_) {
            std::unique_lock<std::mutex> lock(slot->mutex);
            merged.merge(*slot->stage[s]);
        }
        const std::string family =
            "swarmavail_server_stage_seconds_" +
            std::string(span_stage_name(static_cast<SpanStage>(s)));
        out += "# HELP " + family + " Request stage latency, seconds.\n";
        out += "# TYPE " + family + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t bin = 0; bin < merged.bins(); ++bin) {
            cumulative += merged.bin_count(bin);
            out += family + "_bucket{le=\"" + format_double_exact(merged.bin_hi(bin)) +
                   "\"} " + std::to_string(cumulative) + "\n";
        }
        out += family + "_bucket{le=\"+Inf\"} " + std::to_string(merged.total()) +
               "\n";
        out += family + "_sum " + format_double_exact(merged.stats().sum()) + "\n";
        out += family + "_count " + std::to_string(merged.total()) + "\n";
    }

    // Span bookkeeping counters (zeros whenever no hub is running).
    std::uint64_t span_records = 0;
    std::uint64_t span_dropped = 0;
    std::uint64_t span_slow = 0;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (span_hub_ != nullptr) {
        span_records = span_hub_->records_emitted();
        span_dropped = span_hub_->records_dropped();
        span_slow = span_hub_->slow_requests();
    }
#endif
    out += "# HELP swarmavail_server_span_records_total Span records emitted "
           "into the per-thread rings.\n";
    out += "# TYPE swarmavail_server_span_records_total counter\n";
    out += "swarmavail_server_span_records_total " + std::to_string(span_records) +
           "\n";
    out += "# HELP swarmavail_server_span_records_dropped_total Span records "
           "overwritten before a drain (ring capacity).\n";
    out += "# TYPE swarmavail_server_span_records_dropped_total counter\n";
    out += "swarmavail_server_span_records_dropped_total " +
           std::to_string(span_dropped) + "\n";
    out += "# HELP swarmavail_server_slow_queries_total Requests at or above "
           "the --slow-ms threshold.\n";
    out += "# TYPE swarmavail_server_slow_queries_total counter\n";
    out += "swarmavail_server_slow_queries_total " + std::to_string(span_slow) +
           "\n";
}

}  // namespace swarmavail::serve
