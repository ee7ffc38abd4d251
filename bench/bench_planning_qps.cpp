// Planning-service throughput: queries/s through the RequestRouter
// (in-process, socket-free — the acceptance floor is the warm model-path
// row at >= 1e5 queries/s) plus one loopback round-trip row through a
// live PlanningServer as the informational end-to-end number. Items/s is
// queries answered per second; the /threads:N variants drive one shared
// warm router from concurrent benchmark threads, so the row measures
// cache + envelope contention, not model evaluation. Engineering numbers
// for the perf trajectory, not paper results.
#include <benchmark/benchmark.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace {

namespace serve = swarmavail::serve;

// u = 30 keeps the closed-form evaluation in the cheap regime (hump ~ 60
// terms); the canonical-key cache makes repeats sub-microsecond anyway.
const std::string kEval =
    "{\"verb\":\"EVAL\",\"id\":1,\"lambda\":2,\"size\":1,\"mu\":1.25,"
    "\"r\":0.05,\"u\":30}";
const std::string kPlan =
    "{\"verb\":\"PLAN\",\"id\":2,\"lambda\":2,\"size\":1,\"mu\":1.25,"
    "\"r\":0.05,\"u\":30,\"variable\":\"k\",\"target\":0.001,\"max_k\":64}";

/// Warm cached EVAL: parse + canonical key + fragment hit + envelope.
/// This is the acceptance row — queries/s must clear 1e5.
void BM_PlanningRouterEvalWarm(benchmark::State& state) {
    static serve::RequestRouter router;  // shared: stays warm across variants
    if (state.thread_index() == 0) {
        benchmark::DoNotOptimize(router.route(kEval).payload);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(router.route(kEval).payload);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["srv_queries_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlanningRouterEvalWarm)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

/// Cold EVAL: every iteration carries a fresh u, so each request pays the
/// full parse + closed-form model evaluation and inserts a new cache
/// entry (FIFO eviction churn included once the cache fills).
void BM_PlanningRouterEvalCold(benchmark::State& state) {
    serve::RequestRouter router;
    std::uint64_t tick = 0;
    for (auto _ : state) {
        std::string payload =
            "{\"verb\":\"EVAL\",\"lambda\":2,\"size\":1,\"mu\":1.25,"
            "\"r\":0.05,\"u\":30.";
        payload += std::to_string(tick++);
        payload += "}";
        benchmark::DoNotOptimize(router.route(payload).payload);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["srv_queries_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlanningRouterEvalCold);

/// Warm inverse plan (bisect K to a target): fragment hit + envelope,
/// same shape as the dashboard-refresh pattern the cache exists for.
void BM_PlanningRouterPlanWarm(benchmark::State& state) {
    serve::RequestRouter router;
    benchmark::DoNotOptimize(router.route(kPlan).payload);
    for (auto _ : state) {
        benchmark::DoNotOptimize(router.route(kPlan).payload);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["srv_queries_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlanningRouterPlanWarm);

/// One blocking round trip (encode frame, write, read, decode) against a
/// live PlanningServer on loopback — informational: the delta over the
/// warm router row is the socket + framing + queue-hop cost.
void BM_PlanningServerLoopback(benchmark::State& state) {
    serve::ServerConfig config;
    config.threads = 2;
    auto server = std::make_unique<serve::PlanningServer>(config);
    server->start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
        state.SkipWithError("loopback connect failed");
        if (fd >= 0) {
            ::close(fd);
        }
        return;
    }

    const std::string frame = serve::encode_frame(kEval);
    serve::FrameDecoder decoder;
    char buffer[4096];
    bool failed = false;
    for (auto _ : state) {
        if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(frame.size())) {
            failed = true;
            break;
        }
        std::string payload;
        std::string error;
        while (decoder.next(payload, error) != serve::FrameDecoder::Status::kFrame) {
            if (decoder.poisoned()) {
                failed = true;
                break;
            }
            const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
            if (got <= 0) {
                failed = true;
                break;
            }
            decoder.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
        }
        if (failed) {
            break;
        }
        benchmark::DoNotOptimize(payload.data());
    }
    ::close(fd);
    server->stop();
    if (failed) {
        state.SkipWithError("loopback round trip failed");
        return;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["srv_queries_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlanningServerLoopback)->UseRealTime();

}  // namespace
