// PlanningServer end-to-end over loopback TCP: the wire protocol, the
// concurrent-correctness satellite (identical query streams must receive
// bit-identical answers — refinement fingerprints included — at every
// worker count), frame-error handling, and graceful drain.
//
// Test names carry "Planning" so the tsan CI leg's name filter picks the
// suite up alongside the engine concurrency suites.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/telemetry.hpp"

namespace serve = swarmavail::serve;
using serve::FrameDecoder;
using serve::PlanningServer;
using serve::ServerConfig;

namespace {

/// Minimal blocking loopback client for the frame protocol.
class TestClient {
 public:
    explicit TestClient(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0) << std::strerror(errno);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                  0)
            << std::strerror(errno);
    }
    ~TestClient() {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }
    TestClient(const TestClient&) = delete;
    TestClient& operator=(const TestClient&) = delete;

    void send_raw(std::string_view bytes) {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + sent,
                                     bytes.size() - sent, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << std::strerror(errno);
            sent += static_cast<std::size_t>(n);
        }
    }

    void send_request(std::string_view payload) {
        send_raw(serve::encode_frame(payload));
    }

    /// Half-closes the write side, signalling EOF to the server.
    void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

    /// Reads one response frame (empty string on connection close).
    std::string read_response() {
        std::string payload;
        std::string error;
        while (true) {
            switch (decoder_.next(payload, error)) {
                case FrameDecoder::Status::kFrame:
                    return payload;
                case FrameDecoder::Status::kError:
                    ADD_FAILURE() << "malformed response frame: " << error;
                    return {};
                case FrameDecoder::Status::kNeedMore:
                    break;
            }
            char buffer[4096];
            const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
            if (n <= 0) {
                return {};
            }
            decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        }
    }

    std::string round_trip(std::string_view payload) {
        send_request(payload);
        return read_response();
    }

 private:
    int fd_ = -1;
    FrameDecoder decoder_;
};

ServerConfig small_config(std::size_t threads) {
    ServerConfig config;
    config.threads = threads;
    // Small default catalog so uncached REFINEs stay fast in tests.
    config.router.policy.default_catalog.num_files = 4;
    return config;
}

const std::string kPing = "{\"verb\":\"PING\",\"id\":1}";
const std::string kEval =
    "{\"verb\":\"EVAL\",\"id\":2,\"lambda\":2,\"size\":1,\"mu\":1.25,"
    "\"r\":0.05,\"u\":300}";
const std::string kPlan =
    "{\"verb\":\"PLAN\",\"id\":3,\"lambda\":2,\"size\":1,\"mu\":1.25,"
    "\"r\":0.05,\"u\":300,\"variable\":\"k\",\"target\":0.01}";
const std::string kRefine =
    "{\"verb\":\"REFINE\",\"id\":4,\"catalog\":{\"files\":4},\"k\":2,"
    "\"horizon\":2000,\"seed\":3}";

TEST(PlanningServerTest, SequentialConnectionsAlternatingLanesAreServed) {
    // Regression: with one model-only and one sim-preferring worker both
    // blocked on the queue, a sim push whose single notify_one landed on
    // the model-only worker was swallowed — the worker re-waited, the
    // sim-capable one slept on, and a lone REFINE after an EVAL hung
    // until the next push. try_push must wake every waiter.
    PlanningServer server(small_config(2));
    server.start();
    for (int round = 0; round < 3; ++round) {
        TestClient eval_client(server.port());
        EXPECT_NE(eval_client.round_trip(kEval).find("\"ok\":true"),
                  std::string::npos);
        TestClient refine_client(server.port());
        EXPECT_NE(refine_client.round_trip(kRefine).find("\"ok\":true"),
                  std::string::npos);
    }
    server.stop();
}

TEST(PlanningServerTest, AnswersPingOverLoopback) {
    PlanningServer server(small_config(2));
    server.start();
    ASSERT_TRUE(server.running());
    ASSERT_NE(server.port(), 0);

    TestClient client(server.port());
    const std::string response = client.round_trip(kPing);
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    EXPECT_NE(response.find("\"id\":1"), std::string::npos);
    EXPECT_NE(response.find("swarmavail-planning"), std::string::npos);
    server.stop();
    EXPECT_EQ(server.connections_accepted(), 1U);
}

// The concurrent-correctness satellite: N concurrent clients replay one
// identical mixed query stream against servers at --threads 1, 2, and 4;
// every client at every thread count must read bit-identical response
// bytes, refinement fingerprints included.
TEST(PlanningServerTest, IdenticalStreamsGetBitIdenticalAnswersAcrossThreadCounts) {
    const std::vector<std::string> stream = {kPing,   kEval, kRefine, kPlan,
                                             kRefine, kEval, kPing};
    constexpr std::size_t kClients = 4;

    std::vector<std::vector<std::string>> per_thread_count;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        PlanningServer server(small_config(threads));
        server.start();

        std::vector<std::vector<std::string>> replies(kClients);
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                TestClient client(server.port());
                for (const std::string& request : stream) {
                    replies[c].push_back(client.round_trip(request));
                }
            });
        }
        for (std::thread& t : clients) {
            t.join();
        }
        server.stop();

        for (std::size_t c = 1; c < kClients; ++c) {
            EXPECT_EQ(replies[c], replies[0])
                << "client " << c << " diverged at threads=" << threads;
        }
        ASSERT_FALSE(replies[0].empty());
        per_thread_count.push_back(replies[0]);
    }
    ASSERT_EQ(per_thread_count.size(), 3U);
    EXPECT_EQ(per_thread_count[1], per_thread_count[0])
        << "threads=2 diverged from threads=1";
    EXPECT_EQ(per_thread_count[2], per_thread_count[0])
        << "threads=4 diverged from threads=1";

    // And the refinement answer really carries a fingerprint.
    const std::string& refine_reply = per_thread_count[0][2];
    EXPECT_NE(refine_reply.find("\"fingerprint\":\""), std::string::npos)
        << refine_reply;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    EXPECT_EQ(refine_reply.find("\"fingerprint\":\"0000000000000000\""),
              std::string::npos);
#endif
}

TEST(PlanningServerTest, MalformedFrameGetsStructuredErrorBeforeClose) {
    PlanningServer server(small_config(1));
    server.start();

    TestClient client(server.port());
    client.send_raw("123456789\nnot a frame\n");  // 9-digit length prefix
    const std::string response = client.read_response();
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("bad-frame"), std::string::npos) << response;
    // The connection is dropped afterwards.
    EXPECT_EQ(client.read_response(), "");
    server.stop();
}

TEST(PlanningServerTest, TruncatedFrameAtEofGetsStructuredError) {
    PlanningServer server(small_config(1));
    server.start();

    TestClient client(server.port());
    client.send_raw("64\n{\"verb\":\"PING\"}");  // promises 64 bytes, sends 15
    client.shutdown_write();
    const std::string response = client.read_response();
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("bad-frame"), std::string::npos) << response;
    server.stop();
}

TEST(PlanningServerTest, PipelinedRequestsAllAnsweredAcrossLanes) {
    PlanningServer server(small_config(2));
    server.start();

    TestClient client(server.port());
    // Pipeline without reading: two sim-lane and two model-lane requests.
    client.send_request(kRefine);
    client.send_request(kEval);
    client.send_request(kRefine);
    client.send_request(kPing);

    // Responses may interleave across lanes; collect ids.
    std::vector<std::string> responses;
    for (int i = 0; i < 4; ++i) {
        responses.push_back(client.read_response());
        ASSERT_FALSE(responses.back().empty()) << "response " << i << " missing";
    }
    int pings = 0;
    int evals = 0;
    int refines = 0;
    for (const std::string& r : responses) {
        EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
        pings += r.find("\"verb\":\"PING\"") != std::string::npos ? 1 : 0;
        evals += r.find("\"verb\":\"EVAL\"") != std::string::npos ? 1 : 0;
        refines += r.find("\"verb\":\"REFINE\"") != std::string::npos ? 1 : 0;
    }
    EXPECT_EQ(pings, 1);
    EXPECT_EQ(evals, 1);
    EXPECT_EQ(refines, 2);
    server.stop();
}

TEST(PlanningServerTest, GracefulStopAnswersQueuedRequests) {
    PlanningServer server(small_config(2));
    server.start();

    TestClient client(server.port());
    // Pipeline a batch, then stop the server before reading anything:
    // the drain contract says every accepted frame still gets its answer.
    client.send_request(kEval);
    client.send_request(kRefine);
    client.send_request(kPing);
    // Give the io thread a moment to decode and enqueue the frames; stop()
    // closes the read side immediately, so unread bytes would be dropped.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    server.stop();
    EXPECT_FALSE(server.running());

    std::vector<std::string> responses;
    for (int i = 0; i < 3; ++i) {
        const std::string r = client.read_response();
        if (r.empty()) {
            break;
        }
        responses.push_back(r);
    }
    ASSERT_EQ(responses.size(), 3U);
    for (const std::string& r : responses) {
        EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    }
    // After the drain the socket is closed.
    EXPECT_EQ(client.read_response(), "");
}

TEST(PlanningServerTest, StatsExposesServerSeries) {
    PlanningServer server(small_config(2));
    server.start();

    TestClient client(server.port());
    static_cast<void>(client.round_trip(kEval));
    const std::string response = client.round_trip("{\"verb\":\"STATS\",\"id\":9}");
    server.stop();

    serve::JsonValue value;
    std::string error;
    ASSERT_TRUE(serve::parse_json(response, value, &error)) << error;
    const serve::JsonValue* result = value.find("result");
    ASSERT_NE(result, nullptr) << response;
    const std::string text = result->find("prometheus")->as_string();

    std::string why;
    EXPECT_TRUE(swarmavail::telemetry::validate_prometheus_text(text, &why)) << why;
    EXPECT_NE(text.find("swarmavail_server_connections_accepted_total"),
              std::string::npos);
    EXPECT_NE(text.find("swarmavail_server_queue_depth{lane=\"model\"}"),
              std::string::npos);
    EXPECT_NE(text.find("swarmavail_server_latency_seconds_eval_count"),
              std::string::npos)
        << text;
}

// ---- request-lifecycle spans: observer neutrality ---------------------

// Spans must never change a response byte: the same sequential stream at
// --threads 1/2/4 with spans off and spans on (in-memory sink) must read
// identical reply bytes everywhere.
TEST(PlanningServerTest, SpansDoNotChangeResponseBytesAtAnyThreadCount) {
    const std::vector<std::string> stream = {kPing,   kEval, kEval, kRefine,
                                             kRefine, kPlan};
    std::vector<std::string> baseline;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        for (const bool spans_on : {false, true}) {
            serve::MemorySpanSink sink;
            ServerConfig config = small_config(threads);
            if (spans_on) {
                config.spans = true;
                config.span_sink = &sink;
            }
            PlanningServer server(config);
            server.start();
            TestClient client(server.port());
            std::vector<std::string> replies;
            for (const std::string& request : stream) {
                replies.push_back(client.round_trip(request));
            }
            server.stop();

            if (baseline.empty()) {
                baseline = replies;
            } else {
                EXPECT_EQ(replies, baseline)
                    << "threads=" << threads << " spans=" << spans_on;
            }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
            if (spans_on) {
                // The drain at stop() delivered the rings to our sink.
                EXPECT_FALSE(sink.records().empty());
            }
#endif
        }
    }
}

/// Masks the load-dependent values (histogram buckets/sums/counts and the
/// span bookkeeping counters) while keeping every series name, label set,
/// bucket edge, help/type line, and deterministic counter verbatim.
std::string normalized_stats(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    std::string out;
    const auto ends_with = [](const std::string& s, std::string_view suffix) {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') {
            const std::size_t space = line.rfind(' ');
            if (space != std::string::npos) {
                const std::string head = line.substr(0, space);
                if (head.find("_bucket{") != std::string::npos ||
                    ends_with(head, "_sum") || ends_with(head, "_count") ||
                    head.rfind("swarmavail_server_span_", 0) == 0 ||
                    head == "swarmavail_server_slow_queries_total") {
                    out += head + " V\n";
                    continue;
                }
            }
        }
        out += line;
        out += '\n';
    }
    return out;
}

// The STATS merge-ordering satellite: per-worker registries merged in
// slot-index order must produce one exposition shape — same series, same
// order, same bucket edges, same deterministic counters — at --threads
// 1/2/4, with and without spans. Only the latency/stage sample values and
// span bookkeeping may differ, and those are masked.
TEST(PlanningServerTest, StatsMergeIsShapeIdenticalAcrossThreadsAndSpans) {
    const std::vector<std::string> stream = {kPing,   kEval, kEval, kRefine,
                                             kRefine, kPlan};
    std::vector<std::string> normalized;
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
        for (const bool spans_on : {false, true}) {
            serve::MemorySpanSink sink;
            ServerConfig config = small_config(threads);
            if (spans_on) {
                config.spans = true;
                config.span_sink = &sink;
            }
            PlanningServer server(config);
            server.start();
            TestClient client(server.port());
            for (const std::string& request : stream) {
                ASSERT_FALSE(client.round_trip(request).empty());
            }
            const std::string response =
                client.round_trip("{\"verb\":\"STATS\",\"id\":9}");
            server.stop();

            serve::JsonValue value;
            std::string error;
            ASSERT_TRUE(serve::parse_json(response, value, &error)) << error;
            const std::string text =
                value.find("result")->find("prometheus")->as_string();
            // The stage families are part of the shape in every build and
            // mode, spans or not.
            EXPECT_NE(text.find("swarmavail_server_stage_seconds_queue_wait"),
                      std::string::npos);
            EXPECT_NE(text.find("swarmavail_server_stage_seconds_compute"),
                      std::string::npos);
            EXPECT_NE(text.find("swarmavail_server_model_cache_evictions_total"),
                      std::string::npos);
            EXPECT_NE(text.find("swarmavail_server_refine_cache_coalesced_total"),
                      std::string::npos);
            normalized.push_back(normalized_stats(text));
        }
    }
    ASSERT_EQ(normalized.size(), 6U);
    for (std::size_t i = 1; i < normalized.size(); ++i) {
        EXPECT_EQ(normalized[i], normalized[0])
            << "STATS shape diverged (run " << i << ")";
    }
}

#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
// A request over the slow threshold must arrive at the slow sink as one
// contiguous block that reconstructs the full stage breakdown.
TEST(PlanningServerTest, SlowQueryLogReconstructsPerRequestBreakdown) {
    serve::MemorySpanSink slow;
    ServerConfig config = small_config(1);
    config.spans = true;
    config.slow_query_seconds = 1.0e-9;  // every request is "slow"
    config.slow_query_sink = &slow;
    PlanningServer server(config);
    server.start();
    TestClient client(server.port());
    EXPECT_NE(client.round_trip(kEval).find("\"ok\":true"), std::string::npos);
    server.stop();

    ASSERT_FALSE(slow.records().empty());
    const std::uint64_t request = slow.records().front().request;
    EXPECT_GT(request, 0U);
    std::uint32_t seen = 0;
    for (const serve::SpanRecord& record : slow.records()) {
        EXPECT_EQ(record.request, request);  // one request, one block
        EXPECT_EQ(record.verb, 1U);          // EVAL
        EXPECT_EQ(record.lane, 0U);          // model lane
        EXPECT_EQ(record.worker, 1U);        // worker 0's ring
        EXPECT_EQ(record.cache,
                  static_cast<std::uint32_t>(serve::SpanCacheOutcome::kMiss));
        EXPECT_GE(record.t_end, record.t_start);
        seen |= 1u << record.stage;
    }
    for (const serve::SpanStage stage :
         {serve::SpanStage::kDecode, serve::SpanStage::kParse,
          serve::SpanStage::kCache, serve::SpanStage::kQueueWait,
          serve::SpanStage::kCompute, serve::SpanStage::kSerialize,
          serve::SpanStage::kWrite}) {
        EXPECT_NE(seen & (1u << static_cast<std::uint32_t>(stage)), 0U)
            << "missing stage " << serve::span_stage_name(stage);
    }
}

// The drained span stream carries the io thread's records first (ring 0:
// accept spans) and correlates them with worker records by connection id.
TEST(PlanningServerTest, DrainedSpansCorrelateAcceptWithWorkerStages) {
    serve::MemorySpanSink sink;
    ServerConfig config = small_config(2);
    config.spans = true;
    config.span_sink = &sink;
    PlanningServer server(config);
    server.start();
    TestClient client(server.port());
    EXPECT_NE(client.round_trip(kPing).find("\"ok\":true"), std::string::npos);
    server.stop();

    ASSERT_FALSE(sink.records().empty());
    const serve::SpanRecord& accept = sink.records().front();
    EXPECT_EQ(accept.stage, static_cast<std::uint16_t>(serve::SpanStage::kAccept));
    EXPECT_EQ(accept.worker, 0U);  // ring 0 = io thread, merged first
    EXPECT_EQ(accept.t_start, accept.t_end);  // point event
    bool found_write = false;
    for (const serve::SpanRecord& record : sink.records()) {
        if (record.stage == static_cast<std::uint16_t>(serve::SpanStage::kWrite)) {
            EXPECT_EQ(record.connection, accept.connection);
            EXPECT_GT(record.bytes, 0U);
            found_write = true;
        }
    }
    EXPECT_TRUE(found_write);
}
#endif

TEST(PlanningServerTest, StopIsIdempotentAndRestartableAcrossInstances) {
    auto config = small_config(1);
    std::uint16_t port = 0;
    {
        PlanningServer server(config);
        server.start();
        port = server.port();
        server.stop();
        server.stop();  // idempotent
    }
    // The port is released; a new instance can bind it right away
    // (SO_REUSEADDR covers the TIME_WAIT case).
    config.port = port;
    PlanningServer second(config);
    second.start();
    TestClient client(second.port());
    EXPECT_NE(client.round_trip(kPing).find("\"ok\":true"), std::string::npos);
    second.stop();
}

TEST(PlanningServerTest, RequestStopUnblocksWaiter) {
    PlanningServer server(small_config(1));
    server.start();
    std::thread waiter([&server] { server.wait_until_stop_requested(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.request_stop();
    waiter.join();  // would hang forever if the self-pipe wakeup failed
    server.stop();
}

}  // namespace
