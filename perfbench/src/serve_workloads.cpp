// model-cold: a live PlanningServer on loopback, loaded by one client
// thread. Threads in use: the server's io thread, its two
// workers, and the client thread, which is the host's four cores.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "loopback.hpp"
#include "model/availability.hpp"
#include "requests.hpp"
#include "serve/json.hpp"
#include "serve/planning.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "util/profile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = swarmavail::serve;

constexpr std::size_t kServerWorkers = 2;
/// Set-ups per run; setup_s is their median (one set-up takes tens of ms).
constexpr std::size_t kSetupRepeats = 9;
/// A drain that takes longer than this means the server lost requests.
constexpr std::int64_t kDrainTimeoutNs = 60'000'000'000;

double ms_between(std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) * 1.0e-6;
}

std::unique_ptr<serve::PlanningServer> start_server(bool traced) {
    serve::ServerConfig config;
    config.threads = kServerWorkers;
    config.spans = traced;
    auto server = std::make_unique<serve::PlanningServer>(config);
    server->start();
    return server;
}

/// model-cold's "ready": the server has answered 8 cold EVALs (lambda 1.5,
/// outside the pass grid), so lazy set-up is done before the window.
void cold_warm_up(LoopbackClient& client) {
    for (std::size_t i = 0; i < 8; ++i) {
        client.send(i % client.connections(),
                    "{\"verb\":\"EVAL\",\"id\":0,\"lambda\":1.5,\"size\":1,\"mu\":1.25,"
                    "\"r\":0.05,\"k\":2,\"u\":" +
                        std::to_string(100 + i) + "}");
    }
    std::size_t answered = 0;
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (answered < 8 && now_ns() < deadline) {
        answered += client.poll_until(deadline, [](std::size_t, std::string&, std::int64_t) {});
    }
    if (answered < 8) {
        throw std::runtime_error("server did not answer the warm-up");
    }
}

bool is_ok(const std::string& payload) {
    return payload.find("\"ok\":true") != std::string::npos;
}

/// Upper bin edge (seconds) at which a STATS stage histogram reaches
/// quantile q; 0 when the histogram is empty.
double stage_quantile(const std::string& stats, const std::string& stage, double q) {
    const std::string family = "swarmavail_server_stage_seconds_" + stage + "_bucket{le=\"";
    std::vector<std::pair<double, double>> buckets;  // (edge, cumulative)
    std::size_t pos = 0;
    while ((pos = stats.find(family, pos)) != std::string::npos) {
        pos += family.size();
        const std::size_t quote = stats.find('"', pos);
        const std::string edge = stats.substr(pos, quote - pos);
        const std::size_t space = stats.find(' ', quote);
        const double count = std::strtod(stats.c_str() + space + 1, nullptr);
        buckets.emplace_back(edge == "+Inf" ? INFINITY : std::strtod(edge.c_str(), nullptr),
                             count);
    }
    if (buckets.empty() || buckets.back().second <= 0.0) {
        return 0.0;
    }
    const double need = q * buckets.back().second;
    for (const auto& [edge, cumulative] : buckets) {
        if (cumulative >= need) {
            return edge;
        }
    }
    return buckets.back().first;
}

/// Total seconds recorded by a STATS stage histogram (its _sum line).
double stage_seconds(const std::string& stats, const std::string& stage) {
    const std::string line = "swarmavail_server_stage_seconds_" + stage + "_sum ";
    const std::size_t pos = stats.find(line);
    return pos == std::string::npos ? 0.0 : std::strtod(stats.c_str() + pos + line.size(), nullptr);
}

/// In-process costs of the model layer on a set of EVAL/PLAN payloads.
struct ModelProbe {
    std::vector<double> parse_us;
    std::vector<double> key_us;
    std::vector<double> eval_us;
    std::uint64_t plan_evaluations = 0;
    std::uint64_t terms = 0;
    std::uint64_t unconverged = 0;
};

ModelProbe probe_model(const std::vector<std::string>& payloads) {
    ModelProbe probe;
    const serve::RouterConfig config;
    for (const std::string& payload : payloads) {
        std::int64_t t0 = now_ns();
        serve::JsonValue value;
        serve::Request request;
        serve::ServeError error;
        const bool parsed = serve::validate_utf8(payload) &&
                            serve::parse_json(payload, value, nullptr, config.json_limits) &&
                            serve::parse_request(value, config.policy, request, error);
        probe.parse_us.push_back(static_cast<double>(now_ns() - t0) * 1.0e-3);
        if (!parsed) {
            throw std::runtime_error("probe payload does not parse: " + payload);
        }
        t0 = now_ns();
        const std::string key = request.verb == serve::Verb::kPlan
                                    ? serve::canonical_plan_key(request.plan)
                                    : serve::canonical_eval_key(request.eval);
        probe.key_us.push_back(static_cast<double>(now_ns() - t0) * 1.0e-3);
        t0 = now_ns();
        if (request.verb == serve::Verb::kPlan) {
            probe.plan_evaluations += serve::run_plan(request.plan).evaluations;
        } else {
            static_cast<void>(serve::evaluate_model(request.eval));
        }
        probe.eval_us.push_back(static_cast<double>(now_ns() - t0) * 1.0e-3);
        if (request.verb == serve::Verb::kEval &&
            request.eval.model == serve::AvailabilityModel::kImpatient) {
            const auto busy = swarmavail::model::mixed_busy_period(
                swarmavail::model::make_bundle(request.eval.params, request.eval.bundle,
                                               request.eval.scaling));
            probe.terms += busy.terms;
            probe.unconverged += busy.converged ? 0 : 1;
        }
    }
    return probe;
}

void report_model_probe(Report& report, const ModelProbe& probe) {
    const LatencySummary eval = summarize(probe.eval_us);
    report.set("model.eval_us_p50", eval.p50, "us");
    report.set("model.eval_us_p99", eval.tail.value, "us");
    report.set("model.plan_evaluations", static_cast<double>(probe.plan_evaluations),
               "count");
    report.set("queueing.terms", static_cast<double>(probe.terms), "count");
    report.set("queueing.unconverged", static_cast<double>(probe.unconverged), "count");
    report.set("serve.parse_us_p50", median(probe.parse_us), "us");
    report.set("serve.key_us_p50", median(probe.key_us), "us");
}

/// Routes `payloads` through `router` one by one: per-call time (us) and
/// the heap allocations the calls made.
struct RouteProbe {
    std::vector<double> route_us;
    std::uint64_t allocations = 0;
};

RouteProbe probe_route(serve::RequestRouter& router, const std::vector<std::string>& payloads) {
    RouteProbe probe;
    probe.route_us.reserve(payloads.size());
    AllocScope allocs;
    for (const std::string& payload : payloads) {
        const std::int64_t t0 = now_ns();
        static_cast<void>(router.route(payload));
        probe.route_us.push_back(static_cast<double>(now_ns() - t0) * 1.0e-3);
    }
    probe.allocations = allocs.count();
    return probe;
}

/// Routes `payloads` through one fresh router from `threads` threads.
std::vector<std::string> route_parallel(const std::vector<std::string>& payloads,
                                        std::size_t threads) {
    serve::RequestRouter router;
    std::vector<std::string> out(payloads.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < payloads.size(); i += threads) {
                out[i] = router.route(payloads[i]).payload;
            }
        });
    }
    for (std::thread& thread : pool) {
        thread.join();
    }
    return out;
}

void report_cache_counters(Report& report, serve::PlanningServer& server) {
    auto& model = server.router().model_cache();
    const double hits = static_cast<double>(model.hits());
    const double misses = static_cast<double>(model.misses());
    report.set("serve.model_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio");
    report.set("serve.model_cache.evictions", static_cast<double>(model.evictions()), "count");
    report.set("serve.overloaded", static_cast<double>(server.overloaded()), "count");
    const std::string stats = server.router().render_stats();
    report.set("serve.queue_wait_us_p99", stage_quantile(stats, "queue_wait", 0.99) * 1.0e6,
               "us");
    report.set("serve.write_us_p99", stage_quantile(stats, "write", 0.99) * 1.0e6, "us");
}

// ---------------------------------------------------------------- model-cold

struct ColdSent {
    std::size_t pass = 0;
    std::size_t index = 0;
    std::int64_t send_ns = 0;
    std::int64_t done_ns = -1;
};

struct ColdSegment {
    std::vector<double> lat_ms;  ///< requests completed inside the window
    std::size_t completed_in_window = 0;
    double window_s = 0.0;
    double peak_rss_bytes = 0.0;
    std::vector<ColdSent> sent;
    std::vector<std::string> pass0_responses;  ///< by pass-0 index
    std::size_t passes_completed = 0;
    std::uint64_t failed = 0;
    double compute_s = 0.0;  ///< server compute-stage seconds (traced only)
};

ColdSegment cold_segment(const Options& options, double seconds, bool traced,
                         Report& report, bool repeat_setup) {
    std::unique_ptr<serve::PlanningServer> server;
    std::unique_ptr<LoopbackClient> client;
    const double setup_s = median_setup_seconds(repeat_setup ? kSetupRepeats : 1, [&] {
        client.reset();
        server.reset();
        server = start_server(traced);
        client = std::make_unique<LoopbackClient>(server->port(), 2);
        cold_warm_up(*client);
    });
    if (repeat_setup) {
        report.set("setup_s", setup_s, "s");
    }
    swarmavail::prof::Profiler::set_enabled(traced);
    const double compute0 =
        traced ? stage_seconds(server->router().render_stats(), "compute") : 0.0;

    ColdSegment seg;
    std::vector<std::vector<RequestTemplate>> passes;
    passes.push_back(cold_pass(options.seed, 0));
    const std::size_t pass_len = passes[0].size();
    seg.pass0_responses.resize(pass_len);
    std::size_t cursor = 0;  // requests issued so far (over all passes)
    std::size_t outstanding = 0;
    std::size_t inflight[2] = {0, 0};  // id outstanding on each connection

    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    auto issue = [&](std::size_t conn) {
        const std::size_t pass = cursor / pass_len;
        const std::size_t index = cursor % pass_len;
        while (passes.size() <= pass) {
            passes.push_back(cold_pass(options.seed, passes.size()));
        }
        ++cursor;
        seg.sent.push_back({pass, index, now_ns(), -1});
        inflight[conn] = seg.sent.size();
        client->send(conn, with_id(passes[pass][index], seg.sent.size()));
        ++outstanding;
    };
    auto on_reply = [&](std::size_t conn, std::string& payload, std::int64_t received) {
        const ReplyInfo info = classify_reply(payload);
        const std::uint64_t id = closed_loop_answer(info, inflight[conn]);
        if (id == 0 || seg.sent[id - 1].done_ns >= 0) {
            report.check(false, "model-cold: unexpected reply " + payload.substr(0, 120));
            return;
        }
        ColdSent& sent = seg.sent[id - 1];
        sent.done_ns = received;
        --outstanding;
        const bool ok = !info.refused && is_ok(payload);
        if (info.refused) {
            ++seg.failed;
        } else if (!ok) {
            ++seg.failed;
            report.check(false, "model-cold: error reply " + payload.substr(0, 200));
        }
        if (received <= end) {
            // A refused request misses every latency limit.
            seg.lat_ms.push_back(ok ? ms_between(sent.send_ns, received) : INFINITY);
            seg.completed_in_window += ok ? 1 : 0;
        }
        if (sent.pass == 0 && !info.refused) {
            seg.pass0_responses[sent.index] = payload;
        }
        if (received < end) {
            issue(conn);
        }
    };
    issue(0);
    issue(1);
    while (now_ns() < end) {
        client->poll_until(end, on_reply);
    }
    seg.window_s = static_cast<double>(end - t0) * 1.0e-9;
    seg.peak_rss_bytes = peak_rss_bytes();
    const std::int64_t drain_deadline = now_ns() + kDrainTimeoutNs;
    while (outstanding > 0 && now_ns() < drain_deadline) {
        client->poll_until(drain_deadline, on_reply);
    }
    report.check(outstanding == 0, "model-cold: replies missing after the drain");
    swarmavail::prof::Profiler::set_enabled(false);

    // Completed passes: every request of pass p answered.
    std::vector<std::size_t> answered;
    for (const ColdSent& sent : seg.sent) {
        if (sent.done_ns >= 0) {
            if (answered.size() <= sent.pass) {
                answered.resize(sent.pass + 1, 0);
            }
            ++answered[sent.pass];
        }
    }
    while (seg.passes_completed < answered.size() &&
           answered[seg.passes_completed] == pass_len) {
        ++seg.passes_completed;
    }
    const auto& model_cache = server->router().model_cache();
    report.check(model_cache.hits() == 0,
                 "model-cold: a canonical key repeated (model-cache hits " +
                     std::to_string(model_cache.hits()) + ")");
    if (traced) {
        report_cache_counters(report, *server);
        seg.compute_s = stage_seconds(server->router().render_stats(), "compute") - compute0;
    }
    client.reset();
    server->stop();
    return seg;
}

/// Output checks: at least two whole passes, and pass 0 answered byte for
/// byte as a fresh router answers it.
void check_pass0(Report& report, const std::vector<std::string>& payloads,
                 const ColdSegment& seg) {
    report.check(seg.passes_completed >= 2, "model-cold: the run covered fewer than two passes");
    if (seg.passes_completed == 0) {
        return;
    }
    const std::vector<std::string> expected =
        route_parallel(payloads, host_cores() > 1 ? host_cores() - 1 : 1);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const std::string& got = seg.pass0_responses[i];
        mismatches += got.empty() || expected[i] == got ? 0 : 1;  // empty: refused
    }
    report.check(mismatches == 0, "model-cold: " + std::to_string(mismatches) +
                                      " responses differ from a fresh router");
    report.info["responses_checked"] = std::to_string(expected.size()) + " per segment";
}

}  // namespace

Report run_model_cold(const Options& options) {
    Report report;
    report.info["threads"] = "server io 1 + workers 2 + client 1";
    report.info["connections"] = "2 (closed loop, 1 outstanding each)";
    const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
    ColdSegment seg = cold_segment(options, seconds, false, report, !options.trace);
    const LatencySummary lat = summarize(seg.lat_ms);
    report.attempted = seg.sent.size();
    report.failed = seg.failed;
    report.info["passes_completed"] = std::to_string(seg.passes_completed);
    report.info["requests_in_window"] = std::to_string(seg.completed_in_window);
    report.info["tail_percentile"] = std::to_string(lat.tail.percentile);
    // Pass 0 is issued first, so its request i carries id i + 1.
    const std::vector<RequestTemplate> pass0 = cold_pass(options.seed, 0);
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < pass0.size(); ++i) {
        payloads.push_back(with_id(pass0[i], i + 1));
    }
    check_pass0(report, payloads, seg);

    if (!options.trace) {
        report.set("lat_p50_ms", lat.p50, "ms");
        report.set("lat_tail_ms", lat.tail.value, "ms");
        report.set("throughput_per_s",
                   static_cast<double>(seg.completed_in_window) / seg.window_s, "1/s");
        report.set("peak_rss_mb", seg.peak_rss_bytes / (1024.0 * 1024.0), "MB");
        return report;
    }

    ColdSegment traced = cold_segment(options, seconds, true, report, false);
    check_pass0(report, payloads, traced);
    report.attempted += traced.sent.size();
    report.failed += traced.failed;
    const LatencySummary traced_lat = summarize(traced.lat_ms);
    report.set("harness.trace_overhead_pct", overhead_pct(lat.p50, traced_lat.p50), "%");

    // Layer probes on pass 0: the model layer alone, then the router.
    const ModelProbe model = probe_model(payloads);
    report_model_probe(report, model);
    serve::RequestRouter router;
    const RouteProbe route = probe_route(router, payloads);
    report.set("serve.route_us_p50", median(route.route_us), "us");
    report.set("serve.allocs_per_request",
               static_cast<double>(route.allocations) / static_cast<double>(payloads.size()),
               "count");
    // Share of the traced round trips the server spent computing, both
    // taken over the same requests, so host speed cancels out.
    double rtt_s = 0.0;
    for (const ColdSent& sent : traced.sent) {
        if (sent.done_ns >= 0) {
            rtt_s += static_cast<double>(sent.done_ns - sent.send_ns) * 1.0e-9;
        }
    }
    const double eval_share = rtt_s > 0 ? traced.compute_s / rtt_s : 0.0;
    report.set("model.eval_share", eval_share, "ratio");
    report.check(eval_share > 0.5, "model-cold: the model layer took less than half of the "
                                   "round-trip time");
    report.set("serve.wire_us_p50", traced_lat.p50 * 1.0e3 - median(route.route_us), "us");
    report.set("harness.error_rate",
               static_cast<double>(report.failed) / static_cast<double>(report.attempted),
               "ratio");
    return report;
}

void print_cold_costs(std::uint64_t seed) {
    const std::vector<RequestTemplate> pass = cold_pass(seed, 0);
    serve::RequestRouter router;
    std::map<int, std::size_t> decades;
    double total_ms = 0.0;
    double max_ms = 0.0;
    for (std::size_t i = 0; i < pass.size(); ++i) {
        const std::string payload = with_id(pass[i], i + 1);
        const std::int64_t t0 = now_ns();
        static_cast<void>(router.route(payload));
        const double ms = static_cast<double>(now_ns() - t0) * 1.0e-6;
        total_ms += ms;
        max_ms = std::max(max_ms, ms);
        decades[static_cast<int>(std::floor(std::log10(ms * 1.0e3)))] += 1;
        std::printf("%10.3f ms  %s\n", ms, payload.c_str());
    }
    std::printf("# %zu requests, %.1f ms per pass, max %.1f ms\n", pass.size(), total_ms,
                max_ms);
    for (const auto& [decade, count] : decades) {
        std::printf("# [1e%d, 1e%d) us: %zu\n", decade, decade + 1, count);
    }
}

}  // namespace perfbench
