#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

namespace swarmavail::serve {
namespace {

using std::string_view;

/// Largest integer window doubles represent exactly; integral wire fields
/// (ids, seeds, counts) are confined to it so parse -> serialize round-trips
/// bit-exactly.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

void fail(ServeError& error, string_view code, std::string message) {
    if (error.code.empty()) {
        error.code = std::string(code);
        error.message = std::move(message);
    }
}

/// Rejects members outside `allowed` so a typo'd parameter cannot silently
/// fall back to its default.
bool check_members(const JsonValue& obj, std::initializer_list<string_view> allowed,
                   ServeError& error) {
    for (const JsonMember& member : obj.members()) {
        bool known = false;
        for (const string_view name : allowed) {
            if (member.key == name) {
                known = true;
                break;
            }
        }
        if (!known) {
            fail(error, error_code::kBadRequest,
                 "unknown member \"" + member.key + "\"");
            return false;
        }
    }
    return true;
}

std::string format_range(double lo, double hi);

/// Optional finite double in [lo, hi] (lo exclusive when lo_exclusive).
bool read_number(const JsonValue& obj, string_view key, double lo, bool lo_exclusive,
                 double hi, double fallback, double& out, ServeError& error) {
    const JsonValue* field = obj.find(key);
    if (field == nullptr) {
        out = fallback;
        return true;
    }
    if (!field->is_number()) {
        fail(error, error_code::kBadRequest,
             "member \"" + std::string(key) + "\" must be a number");
        return false;
    }
    const double value = field->as_number();
    const bool above_lo = lo_exclusive ? value > lo : value >= lo;
    if (!std::isfinite(value) || !above_lo || value > hi) {
        std::string bound = lo_exclusive ? "(" : "[";
        bound += format_range(lo, hi);
        fail(error, error_code::kOutOfRange,
             "member \"" + std::string(key) + "\" = " + std::to_string(value) +
                 " outside " + bound + "]");
        return false;
    }
    out = value;
    return true;
}

/// Optional whole number in [lo, hi], exactly representable.
bool read_integer(const JsonValue& obj, string_view key, std::uint64_t lo,
                  std::uint64_t hi, std::uint64_t fallback, std::uint64_t& out,
                  ServeError& error) {
    const JsonValue* field = obj.find(key);
    if (field == nullptr) {
        out = fallback;
        return true;
    }
    if (!field->is_number()) {
        fail(error, error_code::kBadRequest,
             "member \"" + std::string(key) + "\" must be a number");
        return false;
    }
    const double value = field->as_number();
    if (!std::isfinite(value) || value < 0.0 || value > kMaxExactInteger ||
        std::floor(value) != value) {
        fail(error, error_code::kOutOfRange,
             "member \"" + std::string(key) + "\" must be a whole number in the "
             "exact-double window");
        return false;
    }
    const std::uint64_t integral = static_cast<std::uint64_t>(value);
    if (integral < lo || integral > hi) {
        fail(error, error_code::kOutOfRange,
             "member \"" + std::string(key) + "\" = " + std::to_string(integral) +
                 " outside [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
        return false;
    }
    out = integral;
    return true;
}

bool read_flag(const JsonValue& obj, string_view key, bool fallback, bool& out,
               ServeError& error) {
    const JsonValue* field = obj.find(key);
    if (field == nullptr) {
        out = fallback;
        return true;
    }
    if (!field->is_bool()) {
        fail(error, error_code::kBadRequest,
             "member \"" + std::string(key) + "\" must be a boolean");
        return false;
    }
    out = field->as_bool();
    return true;
}

/// Optional enumerated string; `mapping` pairs wire words with values.
template <typename Enum>
bool read_word(const JsonValue& obj, string_view key,
               std::initializer_list<std::pair<string_view, Enum>> mapping,
               Enum fallback, Enum& out, ServeError& error) {
    const JsonValue* field = obj.find(key);
    if (field == nullptr) {
        out = fallback;
        return true;
    }
    if (!field->is_string()) {
        fail(error, error_code::kBadRequest,
             "member \"" + std::string(key) + "\" must be a string");
        return false;
    }
    for (const auto& [word, value] : mapping) {
        if (field->as_string() == word) {
            out = value;
            return true;
        }
    }
    std::string options;
    for (const auto& [word, value] : mapping) {
        static_cast<void>(value);
        if (!options.empty()) {
            options += ", ";
        }
        options += '"';
        options += word;
        options += '"';
    }
    std::string message = "member \"";
    message += key;
    message += "\" must be one of ";
    message += options;
    fail(error, error_code::kBadRequest, std::move(message));
    return false;
}

std::string format_range(double lo, double hi) {
    std::string out;
    append_json_number(lo, out);
    out += ", ";
    append_json_number(hi, out);
    return out;
}

/// Shared swarm-parameter block of EVAL/PLAN (lambda, size, mu, r, u, k,
/// scaling, model). The parameters have no defaults except k/scaling/model:
/// a point query must state its swarm.
bool read_eval_fields(const JsonValue& obj, const RequestPolicy& policy,
                      EvalRequest& out, ServeError& error) {
    struct Field {
        string_view key;
        double* slot;
    };
    const Field fields[] = {
        {"lambda", &out.params.peer_arrival_rate},
        {"size", &out.params.content_size},
        {"mu", &out.params.download_rate},
        {"r", &out.params.publisher_arrival_rate},
        {"u", &out.params.publisher_residence},
    };
    for (const Field& field : fields) {
        if (obj.find(field.key) == nullptr) {
            fail(error, error_code::kBadRequest,
                 "missing required member \"" + std::string(field.key) + "\"");
            return false;
        }
        if (!read_number(obj, field.key, 0.0, true, policy.max_rate, 0.0,
                         *field.slot, error)) {
            return false;
        }
    }
    std::uint64_t bundle = 1;
    if (!read_integer(obj, "k", 1, policy.max_bundle, 1, bundle, error)) {
        return false;
    }
    out.bundle = static_cast<std::size_t>(bundle);
    if (!read_word<model::PublisherScaling>(
            obj, "scaling",
            {{"constant", model::PublisherScaling::kConstant},
             {"proportional", model::PublisherScaling::kProportional}},
            model::PublisherScaling::kConstant, out.scaling, error)) {
        return false;
    }
    return read_word<AvailabilityModel>(
        obj, "model",
        {{"impatient", AvailabilityModel::kImpatient},
         {"publishers_only", AvailabilityModel::kPublishersOnly},
         {"peers_publishers", AvailabilityModel::kPeersPublishers}},
        AvailabilityModel::kImpatient, out.model, error);
}

bool parse_eval(const JsonValue& obj, const RequestPolicy& policy, Request& out,
                ServeError& error) {
    if (!check_members(obj,
                       {"verb", "id", "lambda", "size", "mu", "r", "u", "k",
                        "scaling", "model"},
                       error)) {
        return false;
    }
    return read_eval_fields(obj, policy, out.eval, error);
}

bool parse_plan(const JsonValue& obj, const RequestPolicy& policy, Request& out,
                ServeError& error) {
    if (!check_members(obj,
                       {"verb", "id", "lambda", "size", "mu", "r", "u", "k",
                        "scaling", "model", "variable", "target", "max_k", "lo",
                        "hi"},
                       error)) {
        return false;
    }
    PlanRequest& plan = out.plan;
    if (!read_eval_fields(obj, policy, plan.base, error)) {
        return false;
    }
    if (obj.find("variable") == nullptr || obj.find("target") == nullptr) {
        fail(error, error_code::kBadRequest,
             "PLAN requires members \"variable\" and \"target\"");
        return false;
    }
    if (!read_word<PlanRequest::Variable>(
            obj, "variable",
            {{"k", PlanRequest::Variable::kBundleSize},
             {"u", PlanRequest::Variable::kSeedUptime},
             {"r", PlanRequest::Variable::kPublisherBudget}},
            PlanRequest::Variable::kBundleSize, plan.variable, error)) {
        return false;
    }
    // target in (0, 1): an exact-zero or exact-one unavailability target is
    // unreachable / trivial respectively.
    if (!read_number(obj, "target", 0.0, true, 1.0, 0.5, plan.target_unavailability,
                     error)) {
        return false;
    }
    if (plan.target_unavailability >= 1.0) {
        fail(error, error_code::kOutOfRange, "member \"target\" must be below 1");
        return false;
    }
    std::uint64_t max_bundle = 4096;
    if (!read_integer(obj, "max_k", 1,
                      static_cast<std::uint64_t>(policy.max_bundle), 4096,
                      max_bundle, error)) {
        return false;
    }
    plan.max_bundle = static_cast<std::size_t>(max_bundle);
    // Bisection brackets, only meaningful for the u / r plans. Defaults
    // span the physically plausible decades and are clamped to the policy
    // ceiling. The u ceiling is deliberately modest: the mixed busy-period
    // series costs O(hump^2) with hump ~ lambda*K*u, so an evaluation at
    // u = 1e6 already takes minutes — a larger bracket must be requested
    // explicitly (and priced in) via "hi".
    const bool uptime = plan.variable == PlanRequest::Variable::kSeedUptime;
    const double default_lo = uptime ? 1.0e-3 : 1.0e-9;
    const double default_hi = std::min(uptime ? 1.0e5 : 1.0e3, policy.max_rate);
    if (!read_number(obj, "lo", 0.0, true, policy.max_rate, default_lo, plan.lo,
                     error) ||
        !read_number(obj, "hi", 0.0, true, policy.max_rate, default_hi, plan.hi,
                     error)) {
        return false;
    }
    if (plan.variable != PlanRequest::Variable::kBundleSize && plan.lo >= plan.hi) {
        fail(error, error_code::kOutOfRange,
             "PLAN bisection requires lo < hi");
        return false;
    }
    if (plan.variable == PlanRequest::Variable::kSeedUptime &&
        plan.base.model == AvailabilityModel::kPeersPublishers) {
        fail(error, error_code::kBadRequest,
             "model \"peers_publishers\" ignores u (publishers stay s/mu); "
             "planning u under it is meaningless");
        return false;
    }
    return true;
}

bool parse_refine(const JsonValue& obj, const RequestPolicy& policy, Request& out,
                  ServeError& error) {
    if (!check_members(obj,
                       {"verb", "id", "catalog", "policy", "k", "horizon", "seed",
                        "coverage", "patient", "linger", "stop_ci",
                        "stop_min_obs"},
                       error)) {
        return false;
    }
    RefineRequest& refine = out.refine;
    refine.catalog = policy.default_catalog;

    const JsonValue* cat = obj.find("catalog");
    if (cat != nullptr) {
        if (!cat->is_object()) {
            fail(error, error_code::kBadRequest,
                 "member \"catalog\" must be an object");
            return false;
        }
        if (!check_members(*cat,
                           {"files", "alpha", "demand", "size", "mu", "r", "u",
                            "assignment"},
                           error)) {
            return false;
        }
        catalog::CatalogConfig& cc = refine.catalog;
        std::uint64_t files = cc.num_files;
        if (!read_integer(*cat, "files", 1,
                          static_cast<std::uint64_t>(policy.max_files),
                          static_cast<std::uint64_t>(cc.num_files), files,
                          error)) {
            return false;
        }
        cc.num_files = static_cast<std::size_t>(files);
        if (!read_number(*cat, "alpha", 0.0, false, 16.0, cc.zipf_exponent,
                         cc.zipf_exponent, error) ||
            !read_number(*cat, "demand", 0.0, true, policy.max_rate,
                         cc.aggregate_demand, cc.aggregate_demand, error) ||
            !read_number(*cat, "size", 0.0, true, policy.max_rate, cc.file_size,
                         cc.file_size, error) ||
            !read_number(*cat, "mu", 0.0, true, policy.max_rate, cc.download_rate,
                         cc.download_rate, error) ||
            !read_number(*cat, "r", 0.0, true, policy.max_rate,
                         cc.publisher_arrival_rate, cc.publisher_arrival_rate,
                         error) ||
            !read_number(*cat, "u", 0.0, true, policy.max_rate,
                         cc.publisher_residence, cc.publisher_residence, error)) {
            return false;
        }
        if (!read_word<catalog::PublisherAssignment>(
                *cat, "assignment",
                {{"dedicated", catalog::PublisherAssignment::kDedicated},
                 {"partitioned", catalog::PublisherAssignment::kPartitionedBudget}},
                cc.publishers, cc.publishers, error)) {
            return false;
        }
    }

    const JsonValue* pol = obj.find("policy");
    if (pol != nullptr) {
        if (!pol->is_string()) {
            fail(error, error_code::kBadRequest,
                 "member \"policy\" must be a string");
            return false;
        }
        const std::string& name = pol->as_string();
        if (name != "none" && name != "fixedk" && name != "greedy") {
            fail(error, error_code::kBadRequest,
                 "member \"policy\" must be one of \"none\", \"fixedk\", "
                 "\"greedy\"");
            return false;
        }
        refine.policy = name;
    }

    std::uint64_t bundle = refine.bundle;
    if (!read_integer(obj, "k", 1,
                      static_cast<std::uint64_t>(refine.catalog.num_files),
                      static_cast<std::uint64_t>(refine.bundle), bundle, error)) {
        return false;
    }
    refine.bundle = static_cast<std::size_t>(bundle);
    if (!read_number(obj, "horizon", 0.0, true, policy.max_horizon, refine.horizon,
                     refine.horizon, error)) {
        return false;
    }
    if (!read_integer(obj, "seed", 0, static_cast<std::uint64_t>(kMaxExactInteger),
                      refine.seed, refine.seed, error)) {
        return false;
    }
    std::uint64_t coverage = refine.coverage_threshold;
    if (!read_integer(obj, "coverage", 1, 1000,
                      static_cast<std::uint64_t>(refine.coverage_threshold),
                      coverage, error)) {
        return false;
    }
    refine.coverage_threshold = static_cast<std::size_t>(coverage);
    if (!read_flag(obj, "patient", refine.patient_peers, refine.patient_peers,
                   error)) {
        return false;
    }
    if (!read_number(obj, "linger", 0.0, false, policy.max_rate, refine.linger_time,
                     refine.linger_time, error)) {
        return false;
    }
    if (!read_number(obj, "stop_ci", 0.0, false, 1.0, refine.stop_ci,
                     refine.stop_ci, error)) {
        return false;
    }
    std::uint64_t min_obs = refine.stop_min_observations;
    if (!read_integer(obj, "stop_min_obs", 2, 1000000,
                      static_cast<std::uint64_t>(refine.stop_min_observations),
                      min_obs, error)) {
        return false;
    }
    refine.stop_min_observations = static_cast<std::size_t>(min_obs);
    return true;
}

}  // namespace

RequestPolicy::RequestPolicy() {
    // Service-default catalog: a small Zipf catalog under a partitioned
    // publisher budget — the bundling-planning configuration of Section
    // 3.3; REFINE requests override any subset of it.
    default_catalog.num_files = 64;
    default_catalog.zipf_exponent = 1.0;
    default_catalog.aggregate_demand = 10.0;
    default_catalog.file_size = 1.0;
    default_catalog.download_rate = 1.25;
    default_catalog.publisher_arrival_rate = 0.05;
    default_catalog.publisher_residence = 1000.0;
    default_catalog.publishers = catalog::PublisherAssignment::kPartitionedBudget;
}

std::string_view verb_name(Verb verb) noexcept {
    switch (verb) {
        case Verb::kPing: return "PING";
        case Verb::kEval: return "EVAL";
        case Verb::kPlan: return "PLAN";
        case Verb::kRefine: return "REFINE";
        case Verb::kStats: return "STATS";
    }
    return "PING";
}

std::string_view verb_label(Verb verb) noexcept {
    switch (verb) {
        case Verb::kPing: return "ping";
        case Verb::kEval: return "eval";
        case Verb::kPlan: return "plan";
        case Verb::kRefine: return "refine";
        case Verb::kStats: return "stats";
    }
    return "ping";
}

Lane lane_of(Verb verb) noexcept {
    return verb == Verb::kRefine ? Lane::kSim : Lane::kModel;
}

Lane classify_lane(std::string_view payload) noexcept {
    // Cheap scan: find the "verb" member and check whether its value
    // starts with REFINE. Anything unparseable stays on the model lane so
    // its error response is produced without queueing behind simulations.
    const std::size_t at = payload.find("\"verb\"");
    if (at == std::string_view::npos) {
        return Lane::kModel;
    }
    std::size_t p = at + 6;
    while (p < payload.size() &&
           (payload[p] == ' ' || payload[p] == '\t' || payload[p] == '\n' ||
            payload[p] == '\r')) {
        ++p;
    }
    if (p >= payload.size() || payload[p] != ':') {
        return Lane::kModel;
    }
    ++p;
    while (p < payload.size() &&
           (payload[p] == ' ' || payload[p] == '\t' || payload[p] == '\n' ||
            payload[p] == '\r')) {
        ++p;
    }
    return payload.compare(p, 8, "\"REFINE\"") == 0 ? Lane::kSim : Lane::kModel;
}

bool parse_request(const JsonValue& payload, const RequestPolicy& policy,
                   Request& out, ServeError& error) {
    out = Request{};
    if (!payload.is_object()) {
        fail(error, error_code::kBadRequest, "request payload must be a JSON object");
        return false;
    }
    // The id is read first so every later failure — unknown verb included —
    // still echoes it in the structured error response.
    std::uint64_t id = 0;
    const bool has_id = payload.find("id") != nullptr;
    if (!read_integer(payload, "id", 0, static_cast<std::uint64_t>(kMaxExactInteger),
                      0, id, error)) {
        return false;
    }
    out.has_id = has_id;
    out.id = id;

    const JsonValue* verb = payload.find("verb");
    if (verb == nullptr || !verb->is_string()) {
        fail(error, error_code::kBadRequest,
             "request must carry a string member \"verb\"");
        return false;
    }
    const std::string& name = verb->as_string();
    if (name == "PING") {
        out.verb = Verb::kPing;
    } else if (name == "EVAL") {
        out.verb = Verb::kEval;
    } else if (name == "PLAN") {
        out.verb = Verb::kPlan;
    } else if (name == "REFINE") {
        out.verb = Verb::kRefine;
    } else if (name == "STATS") {
        out.verb = Verb::kStats;
    } else {
        fail(error, error_code::kUnknownVerb,
             "unknown verb \"" + name + "\" (expected PING, EVAL, PLAN, REFINE, "
             "or STATS)");
        return false;
    }

    switch (out.verb) {
        case Verb::kPing:
        case Verb::kStats:
            return check_members(payload, {"verb", "id"}, error);
        case Verb::kEval:
            return parse_eval(payload, policy, out, error);
        case Verb::kPlan:
            return parse_plan(payload, policy, out, error);
        case Verb::kRefine:
            return parse_refine(payload, policy, out, error);
    }
    return false;
}

namespace {

const char* scaling_word(model::PublisherScaling scaling) {
    return scaling == model::PublisherScaling::kProportional ? "proportional"
                                                             : "constant";
}

const char* model_word(AvailabilityModel model) {
    switch (model) {
        case AvailabilityModel::kImpatient: return "impatient";
        case AvailabilityModel::kPublishersOnly: return "publishers_only";
        case AvailabilityModel::kPeersPublishers: return "peers_publishers";
    }
    return "impatient";
}

JsonValue eval_semantics(const EvalRequest& request) {
    JsonValue obj = JsonValue::make_object();
    obj.insert("verb", JsonValue::make_string("EVAL"));
    obj.insert("lambda", JsonValue::make_number(request.params.peer_arrival_rate));
    obj.insert("size", JsonValue::make_number(request.params.content_size));
    obj.insert("mu", JsonValue::make_number(request.params.download_rate));
    obj.insert("r", JsonValue::make_number(request.params.publisher_arrival_rate));
    obj.insert("u", JsonValue::make_number(request.params.publisher_residence));
    obj.insert("k", JsonValue::make_number(static_cast<double>(request.bundle)));
    obj.insert("scaling", JsonValue::make_string(scaling_word(request.scaling)));
    obj.insert("model", JsonValue::make_string(model_word(request.model)));
    return obj;
}

}  // namespace

std::string canonical_eval_key(const EvalRequest& request) {
    return canonical_json(eval_semantics(request));
}

std::string canonical_plan_key(const PlanRequest& request) {
    JsonValue obj = eval_semantics(request.base);
    // Rewrite the verb: a PLAN shares the eval block but is its own key
    // space (insert() on a fresh object keeps keys unique; here we know
    // "verb" exists, so rebuild it via a dedicated member list).
    JsonValue out = JsonValue::make_object();
    for (const JsonMember& member : obj.members()) {
        if (member.key == "verb") {
            out.insert("verb", JsonValue::make_string("PLAN"));
        } else {
            out.insert(member.key, member.value);
        }
    }
    const char* variable = "k";
    if (request.variable == PlanRequest::Variable::kSeedUptime) {
        variable = "u";
    } else if (request.variable == PlanRequest::Variable::kPublisherBudget) {
        variable = "r";
    }
    out.insert("variable", JsonValue::make_string(variable));
    out.insert("target", JsonValue::make_number(request.target_unavailability));
    out.insert("max_k", JsonValue::make_number(static_cast<double>(request.max_bundle)));
    out.insert("lo", JsonValue::make_number(request.lo));
    out.insert("hi", JsonValue::make_number(request.hi));
    return canonical_json(out);
}

std::string canonical_refine_key(const RefineRequest& request) {
    JsonValue cat = JsonValue::make_object();
    cat.insert("files",
               JsonValue::make_number(static_cast<double>(request.catalog.num_files)));
    cat.insert("alpha", JsonValue::make_number(request.catalog.zipf_exponent));
    cat.insert("demand", JsonValue::make_number(request.catalog.aggregate_demand));
    cat.insert("size", JsonValue::make_number(request.catalog.file_size));
    cat.insert("mu", JsonValue::make_number(request.catalog.download_rate));
    cat.insert("r",
               JsonValue::make_number(request.catalog.publisher_arrival_rate));
    cat.insert("u", JsonValue::make_number(request.catalog.publisher_residence));
    cat.insert("assignment",
               JsonValue::make_string(
                   request.catalog.publishers ==
                           catalog::PublisherAssignment::kPartitionedBudget
                       ? "partitioned"
                       : "dedicated"));

    JsonValue obj = JsonValue::make_object();
    obj.insert("verb", JsonValue::make_string("REFINE"));
    obj.insert("catalog", std::move(cat));
    obj.insert("policy", JsonValue::make_string(request.policy));
    obj.insert("k", JsonValue::make_number(static_cast<double>(request.bundle)));
    obj.insert("horizon", JsonValue::make_number(request.horizon));
    obj.insert("seed", JsonValue::make_number(static_cast<double>(request.seed)));
    obj.insert("coverage", JsonValue::make_number(
                               static_cast<double>(request.coverage_threshold)));
    obj.insert("patient", JsonValue::make_bool(request.patient_peers));
    obj.insert("linger", JsonValue::make_number(request.linger_time));
    obj.insert("stop_ci", JsonValue::make_number(request.stop_ci));
    obj.insert("stop_min_obs",
               JsonValue::make_number(
                   static_cast<double>(request.stop_min_observations)));
    return canonical_json(obj);
}

}  // namespace swarmavail::serve
