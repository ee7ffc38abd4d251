// swarmlint rule registry.
//
// Every project invariant is a named, individually-suppressible rule. A
// rule sees one parsed SourceFile at a time plus the LintOptions (which
// carry cross-file knowledge such as the compile-out-able observability
// macro set and the header-declared function index), and emits findings
// with file/line diagnostics. Suppression handling happens in the driver,
// not in the rules.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "source.hpp"

namespace swarmlint {

/// One diagnostic. Sorted by (path, line, rule, message) everywhere so
/// console output and the JSON report are deterministic byte-for-byte.
struct Finding {
    std::string rule;
    std::string path;
    int line = 0;
    std::string message;
    bool suppressed = false;
    std::string justification;  ///< the suppression's reason, when suppressed

    friend bool operator<(const Finding& a, const Finding& b) {
        if (a.path != b.path) return a.path < b.path;
        if (a.line != b.line) return a.line < b.line;
        if (a.rule != b.rule) return a.rule < b.rule;
        return a.message < b.message;
    }
};

/// A public function declared in some header with raw floating-point
/// parameters; contract-require-numeric checks its definition.
struct NumericDeclaration {
    std::string name;         ///< unqualified function name
    std::string header;       ///< repo-relative path of the declaring header
    int line = 0;             ///< declaration line
};

struct LintOptions {
    /// Observability macros proven compile-out-able (defined as no-ops under
    /// a SWARMAVAIL_OBSERVE_DISABLED branch of their home header). Engine and
    /// service call sites may only use these. Defaults cover the trace-off
    /// preset's macro set; lint_sources re-derives the set from the real
    /// headers when linting a repo.
    std::set<std::string> compile_out_macros = {
        "SWARMAVAIL_OBSERVE",
        "SWARMAVAIL_PROF_SCOPE",
    };

    /// Header-declared functions with raw double/float parameters, indexed
    /// across the whole run before per-file rule checks execute.
    std::vector<NumericDeclaration> numeric_declarations;

    /// When false, the hygiene-suppression rule skips the stale-suppression
    /// check (used when running a filtered subset of rules, where unused
    /// suppressions are expected).
    bool all_rules_active = true;
};

/// Path-based layer classification; the repo-relative path decides which
/// rule families apply.
enum class Layer {
    kEngine,    ///< result-producing: sim/swarm/catalog/model/queueing/measurement
    kObserver,  ///< util/observe, util/metrics, util/telemetry, util/profile,
                ///< sim/trace, sim/fingerprint, sim/flight_recorder, serve/span
    kRandom,    ///< util/random — the one home for entropy primitives
    kSupport,   ///< remaining util/ (stats, check, ...) — result-adjacent
    kService,   ///< src/serve/ — the planning daemon. Wall clocks are its
                ///< job (latency histograms), so the engine-determinism
                ///< clock rules stand down; entropy hygiene still applies
                ///< (response bytes must be a function of the request).
    kOther,     ///< outside src/
};

[[nodiscard]] Layer classify_path(std::string_view path);

/// True for the observer files allowed to read wall clocks (telemetry
/// sampling, phase profiling, and request-latency spans are wall-time by
/// definition).
[[nodiscard]] bool is_wall_clock_whitelisted(std::string_view path);

struct RuleContext {
    SourceFile& file;
    const LintOptions& options;
    std::vector<Finding>& out;

    void report(std::string rule, int line, std::string message);
};

struct Rule {
    std::string name;
    std::string description;
    void (*check)(RuleContext&);
};

/// All rules, in stable registration order.
[[nodiscard]] const std::vector<Rule>& all_rules();

/// Scans a header SourceFile for public function declarations carrying raw
/// double/float parameters (for contract-require-numeric).
void collect_numeric_declarations(const SourceFile& header,
                                  std::vector<NumericDeclaration>& out);

/// Scans an observability header for SWARMAVAIL_* macros defined as no-ops
/// under a SWARMAVAIL_OBSERVE_DISABLED preprocessor branch, adding them to
/// `out`.
void collect_compile_out_macros(const SourceFile& header, std::set<std::string>& out);

}  // namespace swarmlint
