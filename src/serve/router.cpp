#include "serve/router.hpp"

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "serve/json.hpp"
#include "serve/planning.hpp"
#include "sim/fingerprint.hpp"
#include "util/observe.hpp"
#include "util/telemetry.hpp"

namespace swarmavail::serve {
namespace {

void append_uint(std::uint64_t value, std::string& out) {
    out += std::to_string(value);
}

void append_bool(bool value, std::string& out) { out += value ? "true" : "false"; }

/// Result fragment of an EVAL answer. Member order is fixed (not sorted):
/// response fragments are presentation, not cache keys, and a stable
/// schema-order read is friendlier to humans tailing the wire.
std::string eval_fragment(const model::AvailabilityResult& result) {
    std::string out;
    out.reserve(160);
    out += "{\"busy_period\":";
    append_json_number(result.busy_period, out);
    out += ",\"idle_period\":";
    append_json_number(result.idle_period, out);
    out += ",\"unavailability\":";
    append_json_number(result.unavailability, out);
    out += ",\"log_unavailability\":";
    append_json_number(result.log_unavailability, out);
    out += ",\"peers_per_busy_period\":";
    append_json_number(result.peers_per_busy_period, out);
    out += "}";
    return out;
}

const char* variable_word(PlanRequest::Variable variable) {
    switch (variable) {
        case PlanRequest::Variable::kSeedUptime:
            return "u";
        case PlanRequest::Variable::kPublisherBudget:
            return "r";
        case PlanRequest::Variable::kBundleSize:
            break;
    }
    return "k";
}

std::string plan_fragment(const PlanRequest& request, const PlanOutcome& outcome) {
    std::string out;
    out.reserve(256);
    out += "{\"variable\":\"";
    out += variable_word(request.variable);
    out += "\",\"feasible\":";
    append_bool(outcome.feasible, out);
    out += ",\"k\":";
    append_uint(outcome.bundle, out);
    out += ",\"value\":";
    // For a K plan the planned value IS the bundle size; publishing it under
    // "value" too gives clients one field to read regardless of variable.
    append_json_number(request.variable == PlanRequest::Variable::kBundleSize
                           ? static_cast<double>(outcome.bundle)
                           : outcome.value,
                       out);
    out += ",\"unavailability\":";
    append_json_number(outcome.achieved.unavailability, out);
    out += ",\"log_unavailability\":";
    append_json_number(outcome.achieved.log_unavailability, out);
    out += ",\"evaluations\":";
    append_uint(outcome.evaluations, out);
    out += "}";
    return out;
}

std::string refine_fragment(const RefineOutcome& outcome) {
    std::string out;
    out.reserve(512);
    out += "{\"arrivals\":";
    append_uint(outcome.arrivals, out);
    out += ",\"served\":";
    append_uint(outcome.served, out);
    out += ",\"lost\":";
    append_uint(outcome.lost, out);
    out += ",\"stranded\":";
    append_uint(outcome.stranded, out);
    out += ",\"demand_weighted_unavailability\":";
    append_json_number(outcome.demand_weighted_unavailability, out);
    out += ",\"mean_download_time\":";
    append_json_number(outcome.mean_download_time, out);
    out += ",\"demand_weighted_unavailable_time\":";
    append_json_number(outcome.demand_weighted_unavailable_time, out);
    out += ",\"mean_publisher_online_fraction\":";
    append_json_number(outcome.mean_publisher_online_fraction, out);
    out += ",\"expected_publisher_load\":";
    append_json_number(outcome.expected_publisher_load, out);
    out += ",\"publisher_up_transitions\":";
    append_uint(outcome.publisher_up_transitions, out);
    out += ",\"fingerprint\":\"";
    out += sim::fingerprint_hex(outcome.fingerprint);
    out += "\",\"swarms\":";
    append_uint(outcome.swarms, out);
    out += ",\"swarms_planned\":";
    append_uint(outcome.swarms_planned, out);
    out += ",\"stopped_early\":";
    append_bool(outcome.stopped_early, out);
    out += "}";
    return out;
}

/// Runs one catalog refinement: the deterministic sharded engine with the
/// fingerprint observer on. A StopRule forces serial execution so the
/// covered swarm prefix — and with it the cached outcome — is a pure
/// function of the request.
RefineOutcome run_refine(const RefineRequest& request, std::size_t refine_threads) {
    const catalog::Catalog cat = catalog::build_catalog(request.catalog);
    const auto policy = catalog::make_policy(request.policy, request.bundle);
    catalog::CatalogEngineConfig config;
    config.horizon = request.horizon;
    config.seed = request.seed;
    config.coverage_threshold = request.coverage_threshold;
    config.patient_peers = request.patient_peers;
    config.linger_time = request.linger_time;
    config.policy.threads = refine_threads == 0 ? 1 : refine_threads;
    if (request.stop_ci > 0.0) {
        config.stop_rule =
            telemetry::StopRule{request.stop_ci, request.stop_min_observations};
        config.policy = sim::ParallelPolicy::serial();
    }
    config.fingerprint = true;
    const catalog::CatalogReport report = run_catalog(cat, *policy, config);

    RefineOutcome outcome;
    outcome.arrivals = report.arrivals;
    outcome.served = report.served;
    outcome.lost = report.lost;
    outcome.stranded = report.stranded;
    outcome.demand_weighted_unavailability = report.demand_weighted_unavailability;
    outcome.mean_download_time = report.mean_download_time;
    outcome.demand_weighted_unavailable_time = report.demand_weighted_unavailable_time;
    outcome.mean_publisher_online_fraction = report.mean_publisher_online_fraction;
    outcome.expected_publisher_load = report.expected_publisher_load;
    outcome.publisher_up_transitions = report.publisher_up_transitions;
    outcome.fingerprint = report.fingerprint;
    outcome.swarms = report.swarms.size();
    outcome.swarms_planned = report.swarms_planned;
    outcome.stopped_early = report.stopped_early;
    return outcome;
}

/// {"id":N,}"ok":true,"verb":"...","result":<fragment>} — the id is
/// assembled per request around the shared cached fragment.
std::string success_response(const Request& request, const std::string& fragment) {
    std::string out;
    out.reserve(fragment.size() + 64);
    out += "{";
    if (request.has_id) {
        out += "\"id\":";
        append_uint(request.id, out);
        out += ",";
    }
    out += "\"ok\":true,\"verb\":\"";
    out += verb_name(request.verb);
    out += "\",\"result\":";
    out += fragment;
    out += "}";
    return out;
}

std::string error_payload(bool has_id, std::uint64_t id, std::string_view code,
                          std::string_view message) {
    std::string out;
    out.reserve(message.size() + 80);
    out += "{";
    if (has_id) {
        out += "\"id\":";
        append_uint(id, out);
        out += ",";
    }
    out += "\"ok\":false,\"error\":{\"code\":";
    append_json_string(code, out);
    out += ",\"message\":";
    append_json_string(message, out);
    out += "}}";
    return out;
}

/// Maps the cache's lookup report onto the span vocabulary. Unused when
/// spans are compiled out (the macro erases its one call site).
[[maybe_unused]] SpanCacheOutcome span_outcome(CacheLookup lookup) {
    switch (lookup) {
        case CacheLookup::kMiss:
            return SpanCacheOutcome::kMiss;
        case CacheLookup::kCoalesced:
            return SpanCacheOutcome::kCoalesced;
        case CacheLookup::kHit:
            break;
    }
    return SpanCacheOutcome::kHit;
}

void append_counter(std::string& out, std::string_view name, std::string_view help,
                    std::uint64_t value) {
    out += "# HELP ";
    out += name;
    out += " ";
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += " ";
    append_uint(value, out);
    out += "\n";
}

}  // namespace

RequestRouter::RequestRouter(RouterConfig config)
    : config_(std::move(config)),
      model_cache_(config_.model_cache_entries),
      refine_cache_(config_.refine_cache_entries) {}

std::string RequestRouter::error_response(std::string_view code,
                                          std::string_view message) {
    return error_payload(false, 0, code, message);
}

std::uint64_t RequestRouter::requests(Verb verb) const noexcept {
    return requests_[static_cast<std::size_t>(verb)].load(std::memory_order_relaxed);
}

std::uint64_t RequestRouter::errors() const noexcept {
    return errors_.load(std::memory_order_relaxed);
}

void RequestRouter::set_stats_appender(std::function<void(std::string&)> appender) {
    stats_appender_ = std::move(appender);
}

std::string RequestRouter::handle(const Request& request, ServeError& error,
                                  bool& ok,
                                  [[maybe_unused]] RequestSpans* spans) {
    ok = true;
    switch (request.verb) {
        case Verb::kPing:
            return "{\"service\":\"swarmavail-planning\",\"protocol\":1}";
        case Verb::kEval: {
            SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kCache));
            const std::string key = canonical_eval_key(request.eval);
            CacheLookup lookup = CacheLookup::kHit;
            std::string fragment = model_cache_.get_or_compute(
                key,
                [&] {
                    SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kCompute));
                    std::string out = eval_fragment(evaluate_model(request.eval));
                    SWARMAVAIL_OBSERVE(spans, end(SpanStage::kCompute));
                    return out;
                },
                &lookup);
            SWARMAVAIL_OBSERVE(spans, end(SpanStage::kCache));
            SWARMAVAIL_OBSERVE(spans, set_cache(span_outcome(lookup)));
            return fragment;
        }
        case Verb::kPlan: {
            SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kCache));
            const std::string key = canonical_plan_key(request.plan);
            CacheLookup lookup = CacheLookup::kHit;
            std::string fragment = model_cache_.get_or_compute(
                key,
                [&] {
                    SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kCompute));
                    std::string out =
                        plan_fragment(request.plan, run_plan(request.plan));
                    SWARMAVAIL_OBSERVE(spans, end(SpanStage::kCompute));
                    return out;
                },
                &lookup);
            SWARMAVAIL_OBSERVE(spans, end(SpanStage::kCache));
            SWARMAVAIL_OBSERVE(spans, set_cache(span_outcome(lookup)));
            return fragment;
        }
        case Verb::kRefine: {
            SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kCache));
            const std::string key = canonical_refine_key(request.refine);
            const std::size_t threads = config_.refine_threads;
            CacheLookup lookup = CacheLookup::kHit;
            const RefineOutcome outcome = refine_cache_.get_or_compute(
                key,
                [&] {
                    SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kCompute));
                    RefineOutcome computed = run_refine(request.refine, threads);
                    refine_fingerprint_xor_.fetch_xor(computed.fingerprint,
                                                      std::memory_order_relaxed);
                    SWARMAVAIL_OBSERVE(spans, end(SpanStage::kCompute));
                    return computed;
                },
                &lookup);
            SWARMAVAIL_OBSERVE(spans, end(SpanStage::kCache));
            SWARMAVAIL_OBSERVE(spans, set_cache(span_outcome(lookup)));
            return refine_fragment(outcome);
        }
        case Verb::kStats: {
            std::string text = "{\"prometheus\":";
            append_json_string(render_stats(), text);
            text += "}";
            return text;
        }
    }
    ok = false;
    error = {std::string(error_code::kInternal), "unhandled verb"};
    return {};
}

RouteResult RequestRouter::route(std::string_view payload) {
    return route(payload, nullptr);
}

RouteResult RequestRouter::route(std::string_view payload, RequestSpans* spans) {
    RouteResult result;
    ServeError error;
    Request request;
    bool parsed = false;

    SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kParse));
    if (!validate_utf8(payload)) {
        error = {std::string(error_code::kBadUtf8),
                 "request payload is not valid UTF-8"};
    } else {
        JsonValue value;
        std::string json_error;
        if (!parse_json(payload, value, &json_error, config_.json_limits)) {
            error = {std::string(error_code::kBadJson), json_error};
        } else if (parse_request(value, config_.policy, request, error)) {
            parsed = true;
        }
        // parse_request reads "id" before the per-verb members, so even a
        // failed parse echoes the id when one was present and in range.
    }
    SWARMAVAIL_OBSERVE(spans, end(SpanStage::kParse, payload.size()));

    if (parsed) {
        requests_[static_cast<std::size_t>(request.verb)].fetch_add(
            1, std::memory_order_relaxed);
        result.verb = request.verb;
        try {
            bool ok = true;
            std::string fragment = handle(request, error, ok, spans);
            if (ok) {
                result.ok = true;
                SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kSerialize));
                result.payload = success_response(request, fragment);
                SWARMAVAIL_OBSERVE(spans,
                                   end(SpanStage::kSerialize, result.payload.size()));
                return result;
            }
        } catch (const std::invalid_argument& e) {
            // Engine-layer contract violation the request checks let through
            // (e.g. a parameter combination the model rejects).
            error = {std::string(error_code::kOutOfRange), e.what()};
        } catch (const std::exception& e) {
            error = {std::string(error_code::kInternal), e.what()};
        }
    }

    errors_.fetch_add(1, std::memory_order_relaxed);
    result.ok = false;
    SWARMAVAIL_OBSERVE(spans, begin(SpanStage::kSerialize));
    result.payload = error_payload(request.has_id, request.id, error.code,
                                   error.message);
    SWARMAVAIL_OBSERVE(spans, end(SpanStage::kSerialize, result.payload.size()));
    return result;
}

std::string RequestRouter::render_stats() const {
    std::string out;
    out.reserve(2048);

    out += "# HELP swarmavail_server_requests_total Requests routed, by verb.\n";
    out += "# TYPE swarmavail_server_requests_total counter\n";
    for (std::size_t i = 0; i < kVerbCount; ++i) {
        out += "swarmavail_server_requests_total{verb=\"";
        out += verb_label(static_cast<Verb>(i));
        out += "\"} ";
        append_uint(requests_[i].load(std::memory_order_relaxed), out);
        out += "\n";
    }
    append_counter(out, "swarmavail_server_errors_total",
                   "Requests answered with a structured error.", errors());
    append_counter(out, "swarmavail_server_model_cache_hits_total",
                   "EVAL/PLAN answers served from the warm fragment cache.",
                   model_cache_.hits());
    append_counter(out, "swarmavail_server_model_cache_misses_total",
                   "EVAL/PLAN answers computed from the closed-form models.",
                   model_cache_.misses());
    append_counter(out, "swarmavail_server_model_cache_evictions_total",
                   "Model fragments dropped by the FIFO capacity bound.",
                   model_cache_.evictions());
    append_counter(out, "swarmavail_server_model_cache_coalesced_total",
                   "EVAL/PLAN requests that joined an in-flight computation "
                   "(single-flight).",
                   model_cache_.coalesced());
    append_counter(out, "swarmavail_server_refine_cache_hits_total",
                   "REFINE answers served from the catalog cache.",
                   refine_cache_.hits());
    append_counter(out, "swarmavail_server_refine_cache_misses_total",
                   "REFINE answers computed by the catalog engine.",
                   refine_cache_.misses());
    append_counter(out, "swarmavail_server_refine_cache_evictions_total",
                   "Refine outcomes dropped by the FIFO capacity bound.",
                   refine_cache_.evictions());
    append_counter(out, "swarmavail_server_refine_cache_coalesced_total",
                   "REFINE requests that joined an in-flight simulation "
                   "(single-flight).",
                   refine_cache_.coalesced());

    out += "# HELP swarmavail_server_model_cache_entries Entries held by the "
           "model fragment cache.\n";
    out += "# TYPE swarmavail_server_model_cache_entries gauge\n";
    out += "swarmavail_server_model_cache_entries ";
    append_uint(model_cache_.size(), out);
    out += "\n";
    out += "# HELP swarmavail_server_refine_cache_entries Entries held by the "
           "catalog cache.\n";
    out += "# TYPE swarmavail_server_refine_cache_entries gauge\n";
    out += "swarmavail_server_refine_cache_entries ";
    append_uint(refine_cache_.size(), out);
    out += "\n";

    if (stats_appender_) {
        stats_appender_(out);
    }
    return out;
}

}  // namespace swarmavail::serve
