#include "rules.hpp"

#include <algorithm>
#include <array>
#include <string_view>

namespace swarmlint {
namespace {

using std::string_view;

bool starts_with(string_view text, string_view prefix) {
    return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(string_view text, string_view suffix) {
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

bool is_header(string_view path) { return ends_with(path, ".hpp"); }

/// The engine headers an observer must never include: anything that can
/// mutate simulation state. sim/trace.hpp, sim/fingerprint.hpp, and
/// sim/flight_recorder.hpp are the sim/ headers that are themselves
/// observers.
bool is_engine_header_include(string_view target) {
    if (target == "sim/trace.hpp" || target == "sim/fingerprint.hpp" ||
        target == "sim/flight_recorder.hpp") {
        return false;
    }
    static constexpr std::array<string_view, 6> kEnginePrefixes = {
        "sim/", "swarm/", "catalog/", "measurement/", "model/", "queueing/",
    };
    return std::any_of(kEnginePrefixes.begin(), kEnginePrefixes.end(),
                       [&](string_view p) { return starts_with(target, p); });
}

/// Extracts the target of an `#include "..."` directive line, or empty.
/// Callers must pass the RAW line: the blanked code erases string literal
/// contents, and an include path is exactly that.
string_view quoted_include_target(string_view line) {
    const std::size_t hash = skip_space(line, 0);
    if (hash >= line.size() || line[hash] != '#') {
        return {};
    }
    std::size_t p = skip_space(line, hash + 1);
    if (!starts_with(line.substr(p), "include")) {
        return {};
    }
    p = line.find('"', p);
    if (p == string_view::npos) {
        return {};
    }
    const std::size_t end = line.find('"', p + 1);
    if (end == string_view::npos) {
        return {};
    }
    return line.substr(p + 1, end - p - 1);
}

// ---------------------------------------------------------------------------
// determinism family
// ---------------------------------------------------------------------------

void check_det_rand(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer == Layer::kRandom || layer == Layer::kOther) {
        return;
    }
    static constexpr std::array<string_view, 13> kBanned = {
        "rand",          "srand",       "rand_r",      "drand48",
        "lrand48",       "mrand48",     "mt19937",     "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "ranlux24_base", "ranlux48_base",
    };
    for_each_identifier(ctx.file.code(), [&](string_view name, std::size_t off) {
        if (std::find(kBanned.begin(), kBanned.end(), name) == kBanned.end()) {
            return;
        }
        const int line = ctx.file.line_of_offset(off);
        if (ctx.file.is_directive_line(line)) {
            return;
        }
        std::string message = "'";
        message += name;
        message +=
            "' bypasses the seeded Rng stream; draw randomness through "
            "util/random (swarmavail::Rng) so one 64-bit seed fully determines a run";
        ctx.report("det-rand", line, std::move(message));
    });
}

void check_det_random_device(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer == Layer::kRandom || layer == Layer::kOther) {
        return;
    }
    for_each_identifier(ctx.file.code(), [&](string_view name, std::size_t off) {
        if (name != "random_device") {
            return;
        }
        const int line = ctx.file.line_of_offset(off);
        if (ctx.file.is_directive_line(line)) {
            return;
        }
        ctx.report("det-random-device", line,
                   "std::random_device injects hardware entropy; seeds must be "
                   "explicit so results are reproducible (use util/random)");
    });
}

void check_det_wall_clock(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    // kService measures request latency; wall clocks are its purpose.
    if (layer == Layer::kOther || layer == Layer::kRandom ||
        layer == Layer::kService) {
        return;
    }
    if (is_wall_clock_whitelisted(ctx.file.path())) {
        return;
    }
    static constexpr std::array<string_view, 9> kClocks = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "localtime",     "gmtime",        "mktime",
    };
    const string_view code = ctx.file.code();
    for_each_identifier(code, [&](string_view name, std::size_t off) {
        const bool named_clock =
            std::find(kClocks.begin(), kClocks.end(), name) != kClocks.end();
        bool c_call = false;
        if (!named_clock && (name == "time" || name == "clock")) {
            // Only the C library calls `time(...)` / `clock()`; member
            // functions and locals of the same name are fine.
            const char prev = off > 0 ? prev_nonspace(code, off) : '\0';
            const char next = next_nonspace(code, off + name.size());
            c_call = next == '(' && prev != '.' && prev != '>';
        }
        if (!named_clock && !c_call) {
            return;
        }
        const int line = ctx.file.line_of_offset(off);
        if (ctx.file.is_directive_line(line)) {
            return;
        }
        ctx.report("det-wall-clock", line,
                   "wall-clock read ('" + std::string(name) +
                       "') in a result-producing layer; simulation output must "
                       "depend only on (config, seed). Wall time belongs in "
                       "util/telemetry or util/profile");
    });
}

void check_det_unordered_iter(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer != Layer::kEngine) {
        return;
    }
    const string_view code = ctx.file.code();

    // Pass 1: names declared in this file with an unordered container type
    // (members, locals, and reference/pointer parameters all match).
    std::set<std::string> containers;
    for_each_identifier(code, [&](string_view name, std::size_t off) {
        if (name != "unordered_map" && name != "unordered_set" &&
            name != "unordered_multimap" && name != "unordered_multiset") {
            return;
        }
        std::size_t p = skip_space(code, off + name.size());
        if (p >= code.size() || code[p] != '<') {
            return;
        }
        p = skip_template_args(code, p);
        if (p == string_view::npos) {
            return;
        }
        p = skip_space(code, p);
        while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
            p = skip_space(code, p + 1);
        }
        std::size_t end = p;
        while (end < code.size() && is_ident_char(code[end])) {
            ++end;
        }
        if (end == p) {
            return;  // e.g. ...>::iterator — not a declaration
        }
        if (next_nonspace(code, end) == '(') {
            return;  // function returning a container, not a variable
        }
        containers.insert(std::string(code.substr(p, end - p)));
    });
    if (containers.empty()) {
        return;
    }

    // Pass 2a: range-for whose range expression names such a container.
    for_each_identifier(code, [&](string_view name, std::size_t off) {
        if (name != "for") {
            return;
        }
        std::size_t open = skip_space(code, off + name.size());
        if (open >= code.size() || code[open] != '(') {
            return;
        }
        const std::size_t close = skip_balanced(code, open);
        if (close == string_view::npos) {
            return;
        }
        const string_view inner = code.substr(open + 1, close - open - 2);
        // Find the range-for ':' (skip '::').
        std::size_t colon = string_view::npos;
        for (std::size_t i = 0; i < inner.size(); ++i) {
            if (inner[i] != ':') {
                continue;
            }
            if (i + 1 < inner.size() && inner[i + 1] == ':') {
                ++i;
                continue;
            }
            if (i > 0 && inner[i - 1] == ':') {
                continue;
            }
            colon = i;
            break;
        }
        if (colon == string_view::npos) {
            return;
        }
        const string_view range_expr = inner.substr(colon + 1);
        bool hit = false;
        std::string hit_name;
        for_each_identifier(range_expr, [&](string_view id, std::size_t) {
            if (!hit && containers.count(std::string(id)) != 0) {
                hit = true;
                hit_name.assign(id);
            }
        });
        if (hit) {
            ctx.report("det-unordered-iter", ctx.file.line_of_offset(open),
                       "range-for over unordered container '" + hit_name +
                           "': hash order is implementation-defined and can leak "
                           "into results. Iterate a sorted/indexed copy, or "
                           "justify why order cannot reach any output");
        }
    });

    // Pass 2b: explicit iterator traversal (`c.begin()` and friends), which
    // also covers bulk copies like `v.assign(c.begin(), c.end())`.
    for_each_identifier(code, [&](string_view name, std::size_t off) {
        if (containers.count(std::string(name)) == 0) {
            return;
        }
        std::size_t p = skip_space(code, off + name.size());
        if (p < code.size() && code[p] == '.') {
            ++p;
        } else if (p + 1 < code.size() && code[p] == '-' && code[p + 1] == '>') {
            p += 2;
        } else {
            return;
        }
        p = skip_space(code, p);
        std::size_t end = p;
        while (end < code.size() && is_ident_char(code[end])) {
            ++end;
        }
        const string_view member = code.substr(p, end - p);
        if (member != "begin" && member != "cbegin" && member != "rbegin" &&
            member != "crbegin") {
            return;
        }
        ctx.report("det-unordered-iter", ctx.file.line_of_offset(off),
                   "iterator traversal of unordered container '" + std::string(name) +
                       "': hash order is implementation-defined and can leak into "
                       "results. Copy into a sorted container first, or justify "
                       "why order cannot reach any output");
    });
}

void check_det_env(RuleContext& ctx) {
    if (classify_path(ctx.file.path()) != Layer::kEngine) {
        return;
    }
    static constexpr std::array<string_view, 5> kBanned = {
        "getenv", "secure_getenv", "hardware_concurrency", "get_id", "pthread_self",
    };
    for_each_identifier(ctx.file.code(), [&](string_view name, std::size_t off) {
        if (std::find(kBanned.begin(), kBanned.end(), name) == kBanned.end()) {
            return;
        }
        const int line = ctx.file.line_of_offset(off);
        if (ctx.file.is_directive_line(line)) {
            return;
        }
        std::string message = "'";
        message += name;
        message +=
            "' makes results depend on the host environment or thread identity; "
            "engine output must be a function of (config, seed) only";
        ctx.report("det-env", line, std::move(message));
    });
}

void check_det_static_state(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer != Layer::kEngine && layer != Layer::kSupport) {
        return;
    }
    for (int line = 1; line <= ctx.file.line_count(); ++line) {
        if (ctx.file.is_directive_line(line)) {
            continue;
        }
        const string_view text = ctx.file.code_line(line);
        std::size_t p = skip_space(text, 0);
        // Accept `inline` / `friend` before the storage keyword.
        for (string_view lead : {string_view{"inline"}, string_view{"friend"}}) {
            if (starts_with(text.substr(p), lead) &&
                !is_ident_char(p + lead.size() < text.size() ? text[p + lead.size()]
                                                             : ' ')) {
                p = skip_space(text, p + lead.size());
            }
        }
        string_view keyword;
        for (string_view k : {string_view{"static"}, string_view{"thread_local"}}) {
            if (starts_with(text.substr(p), k) &&
                (p + k.size() >= text.size() || !is_ident_char(text[p + k.size()]))) {
                keyword = k;
                break;
            }
        }
        if (keyword.empty()) {
            continue;
        }
        const string_view rest = text.substr(p + keyword.size());
        const std::size_t stop = rest.find_first_of("(=;");
        const string_view head = rest.substr(0, stop);
        if (stop != string_view::npos && rest[stop] == '(') {
            continue;  // static member/free function declaration
        }
        auto head_has = [&](string_view word) {
            std::size_t q = head.find(word);
            while (q != string_view::npos) {
                const bool left_ok = q == 0 || !is_ident_char(head[q - 1]);
                const bool right_ok = q + word.size() >= head.size() ||
                                      !is_ident_char(head[q + word.size()]);
                if (left_ok && right_ok) {
                    return true;
                }
                q = head.find(word, q + 1);
            }
            return false;
        };
        if (head_has("const") || head_has("constexpr") || head_has("constinit")) {
            continue;
        }
        if (stop == string_view::npos) {
            continue;  // `static` alone on a line: keyword split from decl; rare
        }
        ctx.report("det-static-state", line,
                   "mutable '" + std::string(keyword) +
                       "' state in a result-producing layer: hidden cross-run "
                       "(and cross-thread) coupling breaks replay determinism; "
                       "thread state through explicit parameters instead");
    }
}

// ---------------------------------------------------------------------------
// observer-neutrality family
// ---------------------------------------------------------------------------

void check_obs_no_engine_include(RuleContext& ctx) {
    if (classify_path(ctx.file.path()) != Layer::kObserver) {
        return;
    }
    for (int line = 1; line <= ctx.file.line_count(); ++line) {
        const string_view target = quoted_include_target(ctx.file.raw_line(line));
        if (target.empty() || !is_engine_header_include(target)) {
            continue;
        }
        ctx.report("obs-no-engine-include", line,
                   "observer file includes engine header \"" + std::string(target) +
                       "\"; observers must stay one-way (engine -> observer) so "
                       "attaching them cannot perturb simulation state");
    }
}

/// The one compile-time gate every observer touch keys on.
constexpr string_view kObserveGuard = "SWARMAVAIL_OBSERVE_DISABLED";

/// What counts as an observer touch in engine and service files. A pointer
/// name is touched when it is dereferenced (`name->`); copying the pointer
/// around or testing a runtime bool of the same name is not a touch, since
/// those survive the trace-off build as dead data.
struct ObserverTouch {
    string_view name;
    string_view observer;
    bool any_use;         ///< every mention is a touch (a type name)
    bool namespace_call;  ///< `name::fn(` is a touch too (a namespace)
};

constexpr std::array<ObserverTouch, 9> kObserverTouches = {{
    {"telemetry", "telemetry", false, true},
    {"fingerprint", "fingerprint", false, false},
    {"fingerprint_", "fingerprint", false, false},
    {"Fingerprint", "fingerprint", true, false},
    {"spans", "span", false, false},
    {"spans_", "span", false, false},
    {"span_hub_", "span", false, false},
    {"tracer", "tracer", false, false},
    {"tracer_", "tracer", false, false},
}};

void check_obs_guarded(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer != Layer::kEngine && layer != Layer::kService) {
        return;
    }
    const string_view code = ctx.file.code();
    for_each_identifier(code, [&](string_view name, std::size_t off) {
        const auto touch_it =
            std::find_if(kObserverTouches.begin(), kObserverTouches.end(),
                         [&](const ObserverTouch& t) { return t.name == name; });
        if (touch_it == kObserverTouches.end()) {
            return;
        }
        const int line = ctx.file.line_of_offset(off);
        if (ctx.file.is_directive_line(line)) {
            return;
        }
        const std::size_t p = skip_space(code, off + name.size());
        bool touch = touch_it->any_use ||
                     (p + 1 < code.size() && code[p] == '-' && code[p + 1] == '>');
        if (!touch && touch_it->namespace_call && p + 1 < code.size() &&
            code[p] == ':' && code[p + 1] == ':') {
            // A *call* into the namespace is a touch; a type mention
            // (telemetry::RunCounters* x) is not.
            std::size_t q = skip_space(code, p + 2);
            while (q < code.size() && is_ident_char(code[q])) {
                ++q;
            }
            touch = next_nonspace(code, q) == '(';
        }
        if (!touch || ctx.file.guard_mentions(line, kObserveGuard)) {
            return;
        }
        const string_view line_code = ctx.file.code_line(line);
        for (const std::string& macro : ctx.options.compile_out_macros) {
            if (line_code.find(macro) != string_view::npos) {
                return;  // routed through a compile-out-able macro
            }
        }
        std::string message(touch_it->observer);
        message += " touch ('";
        message += name;
        message +=
            "') outside an #if/#ifndef region keyed on SWARMAVAIL_OBSERVE_DISABLED "
            "(and not via SWARMAVAIL_OBSERVE); the trace-off preset must erase "
            "every observer call site from the engines and the service";
        ctx.report("obs-guarded", line, std::move(message));
    });
}

void check_obs_macro_compile_out(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer != Layer::kEngine && layer != Layer::kService) {
        return;
    }
    static constexpr std::array<string_view, 6> kObserverWords = {
        "OBSERVE", "PROF", "TRACE", "TELEMETRY", "FPRINT", "SPAN",
    };
    for_each_identifier(ctx.file.code(), [&](string_view name, std::size_t off) {
        if (!starts_with(name, "SWARMAVAIL_")) {
            return;
        }
        const string_view tail = name.substr(string_view{"SWARMAVAIL_"}.size());
        const bool observability =
            std::any_of(kObserverWords.begin(), kObserverWords.end(),
                        [&](string_view word) { return starts_with(tail, word); });
        if (!observability || ends_with(name, "_DISABLED")) {
            return;
        }
        if (ctx.options.compile_out_macros.count(std::string(name)) != 0) {
            return;
        }
        const int line = ctx.file.line_of_offset(off);
        if (ctx.file.is_directive_line(line)) {
            return;
        }
        ctx.report("obs-macro-compile-out", line,
                   "observability macro '" + std::string(name) +
                       "' is not in the compile-out-able set (SWARMAVAIL_OBSERVE, "
                       "SWARMAVAIL_PROF_SCOPE) derived from the observer headers; "
                       "every observer call site must vanish under "
                       "SWARMAVAIL_OBSERVE_DISABLED");
    });
}

// ---------------------------------------------------------------------------
// contract-hygiene family
// ---------------------------------------------------------------------------

constexpr std::array<string_view, 14> kNonFunctionNames = {
    "if",     "for",     "while",  "switch",        "return", "sizeof", "decltype",
    "defined", "alignof", "static_assert", "catch", "new",    "delete", "operator",
};

/// True when the parenthesized parameter list (without the outer parens)
/// contains a raw `double`/`float` parameter declaration.
bool has_raw_float_param(string_view params) {
    bool found = false;
    for_each_identifier(params, [&](string_view id, std::size_t off) {
        if (found || (id != "double" && id != "float")) {
            return;
        }
        const char next = next_nonspace(params, off + id.size());
        // `double x`, `double&`, `double,`, `double)` are parameters;
        // `double>` is a template argument (vector<double>, cast).
        if (next == '>' || next == '(') {
            return;
        }
        found = true;
    });
    return found;
}

/// Starting just past a definition's parameter list, skips qualifiers,
/// noexcept-specifiers and a constructor initializer list. Returns the
/// offset of the body's '{', or npos when this is not a definition.
std::size_t find_body_brace(string_view code, std::size_t p) {
    for (;;) {
        p = skip_space(code, p);
        if (p >= code.size()) {
            return string_view::npos;
        }
        const char c = code[p];
        if (c == '{') {
            return p;
        }
        if (c == ';') {
            return string_view::npos;  // declaration only
        }
        if (c == ':' && p + 1 < code.size() && code[p + 1] != ':') {
            // Constructor initializer list: `ident(...)` or `ident{...}`
            // entries separated by commas, then the body brace.
            p = skip_space(code, p + 1);
            for (;;) {
                while (p < code.size() &&
                       (is_ident_char(code[p]) || code[p] == ':' || code[p] == '<' ||
                        code[p] == '>')) {
                    ++p;
                }
                p = skip_space(code, p);
                if (p >= code.size() || (code[p] != '(' && code[p] != '{')) {
                    return string_view::npos;
                }
                p = skip_balanced(code, p);
                if (p == string_view::npos) {
                    return string_view::npos;
                }
                p = skip_space(code, p);
                if (p < code.size() && code[p] == ',') {
                    p = skip_space(code, p + 1);
                    continue;
                }
                break;
            }
            continue;
        }
        if (is_ident_char(c)) {
            std::size_t end = p;
            while (end < code.size() && is_ident_char(code[end])) {
                ++end;
            }
            const string_view word = code.substr(p, end - p);
            if (word == "const" || word == "noexcept" || word == "override" ||
                word == "final" || word == "mutable") {
                p = end;
                if (word == "noexcept" && next_nonspace(code, end) == '(') {
                    p = skip_balanced(code, skip_space(code, end));
                    if (p == string_view::npos) {
                        return string_view::npos;
                    }
                }
                continue;
            }
            return string_view::npos;  // something else: not a definition
        }
        return string_view::npos;
    }
}

bool body_has_contract_check(string_view body) {
    for (string_view check : {string_view{"SWARMAVAIL_REQUIRE"},
                              string_view{"SWARMAVAIL_INVARIANT"},
                              string_view{"SWARMAVAIL_ASSERT"},
                              string_view{"require"}, string_view{"ensure"}}) {
        std::size_t q = body.find(check);
        while (q != string_view::npos) {
            const bool left_ok = q == 0 || !is_ident_char(body[q - 1]);
            const bool right_ok = q + check.size() >= body.size() ||
                                  !is_ident_char(body[q + check.size()]);
            if (left_ok && right_ok) {
                return true;
            }
            q = body.find(check, q + 1);
        }
    }
    return false;
}

void check_contract_require_numeric(RuleContext& ctx) {
    const Layer layer = classify_path(ctx.file.path());
    if (layer != Layer::kEngine) {
        return;
    }
    const string_view code = ctx.file.code();
    for (const NumericDeclaration& decl : ctx.options.numeric_declarations) {
        for_each_identifier(code, [&](string_view name, std::size_t off) {
            if (name != decl.name) {
                return;
            }
            std::size_t open = skip_space(code, off + name.size());
            if (open >= code.size() || code[open] != '(') {
                return;
            }
            // A definition's name is preceded by a return type, `::`, or a
            // statement boundary — never by `.`/`->` (member call) or by
            // `(`/`,`/operators (argument position / call in expression).
            const char prev = off > 0 ? prev_nonspace(code, off) : '\0';
            if (prev == '.' || prev == '(' || prev == ',' || prev == '=' ||
                prev == '+' || prev == '-' || prev == '!' || prev == '<' ||
                prev == '?' || prev == '|') {
                return;
            }
            const std::size_t close = skip_balanced(code, open);
            if (close == string_view::npos) {
                return;
            }
            if (!has_raw_float_param(code.substr(open + 1, close - open - 2))) {
                return;  // a different overload, or no raw numeric params here
            }
            const std::size_t brace = find_body_brace(code, close);
            if (brace == string_view::npos) {
                return;  // declaration or call, not a definition
            }
            const std::size_t body_end = skip_balanced(code, brace);
            if (body_end == string_view::npos) {
                return;
            }
            if (body_has_contract_check(code.substr(brace, body_end - brace))) {
                return;
            }
            ctx.report("contract-require-numeric", ctx.file.line_of_offset(off),
                       "definition of '" + decl.name + "' (declared in " +
                           decl.header + ":" + std::to_string(decl.line) +
                           ") takes raw double/float parameters but performs no "
                           "SWARMAVAIL_REQUIRE/INVARIANT/ASSERT domain check");
        });
    }
}

// ---------------------------------------------------------------------------
// hygiene family
// ---------------------------------------------------------------------------

void check_hygiene_pragma_once(RuleContext& ctx) {
    if (!is_header(ctx.file.path()) || classify_path(ctx.file.path()) == Layer::kOther) {
        return;
    }
    for (int line = 1; line <= ctx.file.line_count(); ++line) {
        const string_view text = ctx.file.code_line(line);
        const std::size_t p = skip_space(text, 0);
        if (p < text.size() && text[p] == '#' &&
            text.find("pragma", p) != string_view::npos &&
            text.find("once", p) != string_view::npos) {
            return;
        }
    }
    ctx.report("hygiene-pragma-once", 1,
               "header lacks '#pragma once'; every public header must be "
               "include-guarded (double inclusion is also exercised by the "
               "header self-sufficiency ctest cases)");
}

void check_hygiene_check_include(RuleContext& ctx) {
    const string_view path = ctx.file.path();
    if (classify_path(path) == Layer::kOther || ends_with(path, "util/check.hpp") ||
        ends_with(path, "util/check.cpp") || ends_with(path, "util/error.hpp")) {
        return;
    }
    int first_use = 0;
    for_each_identifier(ctx.file.code(), [&](string_view name, std::size_t off) {
        if (first_use != 0) {
            return;
        }
        if (name == "SWARMAVAIL_REQUIRE" || name == "SWARMAVAIL_INVARIANT" ||
            name == "SWARMAVAIL_ASSERT") {
            const int line = ctx.file.line_of_offset(off);
            if (!ctx.file.is_directive_line(line)) {
                first_use = line;
            }
        }
    });
    if (first_use == 0) {
        return;
    }
    for (int line = 1; line <= ctx.file.line_count(); ++line) {
        const string_view target = quoted_include_target(ctx.file.raw_line(line));
        if (target == "util/check.hpp" || target == "util/error.hpp") {
            return;
        }
    }
    ctx.report("hygiene-check-include", first_use,
               "uses SWARMAVAIL_REQUIRE-family macros without directly including "
               "util/check.hpp (or util/error.hpp); relying on transitive "
               "includes makes contract checks fragile to refactors");
}

void check_hygiene_suppression(RuleContext&) {
    // Meta-rule: malformed / unknown-rule / stale suppressions are emitted by
    // the driver after suppression matching, so it can see which suppressions
    // were actually consumed. Registered here so the rule is listable,
    // documentable, and testable like any other.
}

}  // namespace

void RuleContext::report(std::string rule, int line, std::string message) {
    Finding f;
    f.rule = std::move(rule);
    f.path = file.path();
    f.line = line;
    f.message = std::move(message);
    out.push_back(std::move(f));
}

Layer classify_path(std::string_view path) {
    if (starts_with(path, "src/util/observe.") || starts_with(path, "src/util/metrics.") ||
        starts_with(path, "src/util/telemetry.") ||
        starts_with(path, "src/util/profile.") || starts_with(path, "src/sim/trace.") ||
        starts_with(path, "src/sim/fingerprint.") ||
        starts_with(path, "src/sim/flight_recorder.") ||
        starts_with(path, "src/serve/span.")) {
        return Layer::kObserver;
    }
    if (starts_with(path, "src/util/random.")) {
        return Layer::kRandom;
    }
    if (starts_with(path, "src/serve/")) {
        return Layer::kService;
    }
    for (string_view prefix : {string_view{"src/sim/"}, string_view{"src/swarm/"},
                               string_view{"src/catalog/"}, string_view{"src/model/"},
                               string_view{"src/queueing/"},
                               string_view{"src/measurement/"}}) {
        if (starts_with(path, prefix)) {
            return Layer::kEngine;
        }
    }
    if (starts_with(path, "src/util/")) {
        return Layer::kSupport;
    }
    return Layer::kOther;
}

bool is_wall_clock_whitelisted(std::string_view path) {
    return starts_with(path, "src/util/telemetry.") ||
           starts_with(path, "src/util/profile.") ||
           starts_with(path, "src/serve/span.");
}

const std::vector<Rule>& all_rules() {
    static const std::vector<Rule> kRules = {
        {"det-rand",
         "No C/std PRNG primitives (rand, srand, mt19937, ...) outside "
         "util/random; all randomness flows from the seeded Rng.",
         &check_det_rand},
        {"det-random-device",
         "No std::random_device anywhere in src/; hardware entropy breaks "
         "seed-reproducibility.",
         &check_det_random_device},
        {"det-wall-clock",
         "No wall-clock reads (system/steady/high_resolution_clock, time(), "
         "clock(), ...) in result-producing layers; util/telemetry, "
         "util/profile and serve/span are the whitelisted exceptions.",
         &check_det_wall_clock},
        {"det-unordered-iter",
         "No range-for or iterator traversal of std::unordered_{map,set} in "
         "result-producing layers, where hash order can leak into merged "
         "output; iterate sorted/indexed copies instead.",
         &check_det_unordered_iter},
        {"det-env",
         "No environment or thread-identity reads (getenv, "
         "hardware_concurrency, this_thread::get_id) in engine layers.",
         &check_det_env},
        {"det-static-state",
         "No mutable static/thread_local state in result-producing layers; "
         "hidden globals couple runs and threads.",
         &check_det_static_state},
        {"obs-no-engine-include",
         "Observer files (util/observe, util/metrics, util/telemetry, "
         "util/profile, sim/trace, sim/fingerprint, sim/flight_recorder, "
         "serve/span) must not include engine headers; observation is one-way.",
         &check_obs_no_engine_include},
        {"obs-guarded",
         "Every observer touch in an engine or service file (telemetry, "
         "fingerprint, span or tracer dereference; telemetry namespace call; "
         "Fingerprint type use) must sit behind SWARMAVAIL_OBSERVE_DISABLED "
         "guards or the SWARMAVAIL_OBSERVE macro, so the trace-off preset "
         "erases it.",
         &check_obs_guarded},
        {"obs-macro-compile-out",
         "Observability macros used by engines and the service must come from "
         "the compile-out-able set defined by the observer headers "
         "(SWARMAVAIL_OBSERVE and SWARMAVAIL_PROF_SCOPE).",
         &check_obs_macro_compile_out},
        {"contract-require-numeric",
         "Public functions declared in src/ headers that take raw "
         "double/float parameters must contain a SWARMAVAIL_REQUIRE-family "
         "domain check in their definition.",
         &check_contract_require_numeric},
        {"hygiene-pragma-once",
         "Every header carries '#pragma once'.",
         &check_hygiene_pragma_once},
        {"hygiene-check-include",
         "Files using SWARMAVAIL_REQUIRE-family macros include util/check.hpp "
         "(or util/error.hpp) directly.",
         &check_hygiene_check_include},
        {"hygiene-suppression",
         "swarmlint-allow comments must be well-formed, name a known rule, "
         "carry a written justification, and actually suppress something. "
         "This meta-rule is not itself suppressible.",
         &check_hygiene_suppression},
    };
    return kRules;
}

void collect_numeric_declarations(const SourceFile& header,
                                  std::vector<NumericDeclaration>& out) {
    if (!is_header(header.path()) || classify_path(header.path()) != Layer::kEngine) {
        return;
    }
    const string_view code = header.code();
    for_each_identifier(code, [&](string_view name, std::size_t off) {
        if (std::find(kNonFunctionNames.begin(), kNonFunctionNames.end(), name) !=
            kNonFunctionNames.end()) {
            return;
        }
        if (starts_with(name, "SWARMAVAIL_")) {
            return;
        }
        const std::size_t open = skip_space(code, off + name.size());
        if (open >= code.size() || code[open] != '(') {
            return;
        }
        const char prev = off > 0 ? prev_nonspace(code, off) : '\0';
        if (prev == '.' || prev == '(' || prev == ',' || prev == '=' || prev == '+' ||
            prev == '-' || prev == '!' || prev == '<' || prev == '?' || prev == '|') {
            return;
        }
        const std::size_t close = skip_balanced(code, open);
        if (close == string_view::npos) {
            return;
        }
        if (!has_raw_float_param(code.substr(open + 1, close - open - 2))) {
            return;
        }
        // Declaration (`;`), inline definition (`{`), or defaulted: all
        // declare the contract surface. Anything else is an expression.
        std::size_t p = close;
        const std::size_t brace = find_body_brace(code, p);
        bool declares = brace != string_view::npos;
        if (!declares) {
            p = skip_space(code, p);
            while (p < code.size() && is_ident_char(code[p])) {
                // const / noexcept / override before the ';'
                std::size_t end = p;
                while (end < code.size() && is_ident_char(code[end])) {
                    ++end;
                }
                p = skip_space(code, end);
                if (p < code.size() && code[p] == '(') {
                    p = skip_balanced(code, p);
                    if (p == string_view::npos) {
                        return;
                    }
                    p = skip_space(code, p);
                }
            }
            declares = p < code.size() && code[p] == ';';
        }
        if (!declares) {
            return;
        }
        NumericDeclaration decl;
        decl.name.assign(name);
        decl.header = header.path();
        decl.line = header.line_of_offset(off);
        out.push_back(std::move(decl));
    });
}

void collect_compile_out_macros(const SourceFile& header, std::set<std::string>& out) {
    for (int line = 1; line <= header.line_count(); ++line) {
        if (!header.is_directive_line(line)) {
            continue;
        }
        const string_view text = header.code_line(line);
        std::size_t p = skip_space(text, 0);
        if (p >= text.size() || text[p] != '#') {
            continue;
        }
        p = skip_space(text, p + 1);
        if (!starts_with(text.substr(p), "define")) {
            continue;
        }
        p = skip_space(text, p + 6);
        std::size_t end = p;
        while (end < text.size() && is_ident_char(text[end])) {
            ++end;
        }
        const string_view name = text.substr(p, end - p);
        if (!starts_with(name, "SWARMAVAIL_") || ends_with(name, "_DISABLED")) {
            continue;
        }
        // Compile-out-able := defined inside a region whose guard condition
        // names SWARMAVAIL_OBSERVE_DISABLED (both branches of such a region
        // define the macro; one of them as a no-op).
        if (header.guard_mentions(line, kObserveGuard)) {
            out.insert(std::string(name));
        }
    }
}

}  // namespace swarmlint
