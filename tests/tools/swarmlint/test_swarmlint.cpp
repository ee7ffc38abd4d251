// Fixture-driven tests for swarmlint. Every rule has at least one failing
// and one passing fixture under fixtures/; each fixture file declares its
// virtual repo paths and expected diagnostics via directive comments:
//
//   // swarmlint-fixture-path: src/sim/example.cpp   (starts a virtual file)
//   // swarmlint-expect: rule-name                   (one active finding)
//   // swarmlint-expect-suppressed: rule-name        (one silenced finding)
//
// Directive lines are stripped before linting; everything else is the
// virtual file's content, byte for byte. The suite also lints the repo's
// real src/ tree in-process: it must be clean, and two runs must produce
// byte-identical JSON reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "swarmlint.hpp"

namespace {

namespace fs = std::filesystem;
using swarmlint::LintInput;
using swarmlint::LintResult;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string console_dump(const LintResult& result) {
    std::ostringstream os;
    swarmlint::write_console(result, os);
    return os.str();
}

struct Fixture {
    std::vector<LintInput> inputs;
    std::multiset<std::string> expect_active;
    std::multiset<std::string> expect_suppressed;
};

/// Extracts `<value>` from a `// <marker> <value>` directive line.
bool directive_value(const std::string& line, std::string_view marker,
                     std::string* value) {
    const std::size_t pos = line.find(marker);
    if (pos == std::string::npos) {
        return false;
    }
    std::size_t begin = pos + marker.size();
    while (begin < line.size() && (line[begin] == ' ' || line[begin] == '\t')) {
        ++begin;
    }
    std::size_t end = line.size();
    while (end > begin &&
           (line[end - 1] == ' ' || line[end - 1] == '\t' || line[end - 1] == '\r')) {
        --end;
    }
    value->assign(line, begin, end - begin);
    return true;
}

Fixture load_fixture(const std::string& name) {
    Fixture fx;
    std::istringstream in(read_file(fs::path{SWARMLINT_FIXTURE_DIR} / name));
    std::string line;
    std::string value;
    while (std::getline(in, line)) {
        if (directive_value(line, "swarmlint-fixture-path:", &value)) {
            fx.inputs.push_back(LintInput{value, ""});
        } else if (directive_value(line, "swarmlint-expect-suppressed:", &value)) {
            fx.expect_suppressed.insert(value);
        } else if (directive_value(line, "swarmlint-expect:", &value)) {
            fx.expect_active.insert(value);
        } else if (!fx.inputs.empty()) {
            fx.inputs.back().content += line;
            fx.inputs.back().content += '\n';
        }
    }
    return fx;
}

void expect_fixture(const std::string& name) {
    const Fixture fx = load_fixture(name);
    ASSERT_FALSE(fx.inputs.empty())
        << name << " has no swarmlint-fixture-path directive";
    const LintResult result = swarmlint::lint_sources(fx.inputs, {});
    std::multiset<std::string> active;
    for (const auto& finding : result.findings) {
        active.insert(finding.rule);
    }
    std::multiset<std::string> suppressed;
    for (const auto& finding : result.suppressed) {
        suppressed.insert(finding.rule);
    }
    EXPECT_EQ(active, fx.expect_active) << console_dump(result);
    EXPECT_EQ(suppressed, fx.expect_suppressed) << console_dump(result);
}

/// The repo's real src/ tree, repo-relative paths, sorted — the same input
/// set `swarmlint src` builds from the command line.
std::vector<LintInput> load_src_tree() {
    const fs::path root{SWARMAVAIL_SOURCE_DIR};
    std::vector<std::string> rel_paths;
    for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
        if (!entry.is_regular_file()) {
            continue;
        }
        const std::string ext = entry.path().extension().string();
        if (ext != ".hpp" && ext != ".cpp") {
            continue;
        }
        rel_paths.push_back(fs::relative(entry.path(), root).generic_string());
    }
    std::sort(rel_paths.begin(), rel_paths.end());
    std::vector<LintInput> inputs;
    inputs.reserve(rel_paths.size());
    for (const std::string& rel : rel_paths) {
        inputs.push_back(LintInput{rel, read_file(root / rel)});
    }
    return inputs;
}

// --- determinism family ----------------------------------------------------

TEST(SwarmlintFixtures, DetRandBad) { expect_fixture("det_rand_bad.cpp"); }
TEST(SwarmlintFixtures, DetRandGood) { expect_fixture("det_rand_good.cpp"); }
TEST(SwarmlintFixtures, DetRandomDeviceBad) {
    expect_fixture("det_random_device_bad.cpp");
}
TEST(SwarmlintFixtures, DetRandomDeviceGood) {
    expect_fixture("det_random_device_good.cpp");
}
TEST(SwarmlintFixtures, DetWallClockBad) { expect_fixture("det_wall_clock_bad.cpp"); }
TEST(SwarmlintFixtures, DetWallClockGood) {
    expect_fixture("det_wall_clock_good.cpp");
}
TEST(SwarmlintFixtures, DetUnorderedIterBad) {
    expect_fixture("det_unordered_iter_bad.cpp");
}
TEST(SwarmlintFixtures, DetUnorderedIterGood) {
    expect_fixture("det_unordered_iter_good.cpp");
}
TEST(SwarmlintFixtures, DetEnvBad) { expect_fixture("det_env_bad.cpp"); }
TEST(SwarmlintFixtures, DetEnvGood) { expect_fixture("det_env_good.cpp"); }
TEST(SwarmlintFixtures, DetStaticStateBad) {
    expect_fixture("det_static_state_bad.cpp");
}
TEST(SwarmlintFixtures, DetStaticStateGood) {
    expect_fixture("det_static_state_good.cpp");
}
TEST(SwarmlintFixtures, ServiceLayerWallClockAllowed) {
    expect_fixture("service_layer_good.cpp");
}
TEST(SwarmlintFixtures, ServiceLayerEntropyStillBanned) {
    expect_fixture("service_layer_rand_bad.cpp");
}

// --- observer-neutrality family --------------------------------------------

TEST(SwarmlintFixtures, ObsNoEngineIncludeBad) {
    expect_fixture("obs_no_engine_include_bad.cpp");
}
TEST(SwarmlintFixtures, ObsNoEngineIncludeGood) {
    expect_fixture("obs_no_engine_include_good.cpp");
}
TEST(SwarmlintFixtures, ObsGuardedBad) { expect_fixture("obs_guarded_bad.cpp"); }
TEST(SwarmlintFixtures, ObsGuardedGood) { expect_fixture("obs_guarded_good.cpp"); }
TEST(SwarmlintFixtures, ObsGuardedTelemetryBad) {
    expect_fixture("obs_guarded_telemetry_bad.cpp");
}
TEST(SwarmlintFixtures, ObsGuardedTelemetryGood) {
    expect_fixture("obs_guarded_telemetry_good.cpp");
}
TEST(SwarmlintFixtures, ObsGuardedFingerprintBad) {
    expect_fixture("obs_guarded_fingerprint_bad.cpp");
}
TEST(SwarmlintFixtures, ObsGuardedFingerprintGood) {
    expect_fixture("obs_guarded_fingerprint_good.cpp");
}
TEST(SwarmlintFixtures, SvcGuardedSpanBad) { expect_fixture("svc_guarded_span_bad.cpp"); }
TEST(SwarmlintFixtures, SvcGuardedSpanGood) {
    expect_fixture("svc_guarded_span_good.cpp");
}
TEST(SwarmlintFixtures, ObsMacroCompileOutBad) {
    expect_fixture("obs_macro_compile_out_bad.cpp");
}
TEST(SwarmlintFixtures, ObsMacroCompileOutGood) {
    expect_fixture("obs_macro_compile_out_good.cpp");
}

// --- contract + hygiene families -------------------------------------------

TEST(SwarmlintFixtures, ContractRequireNumericBad) {
    expect_fixture("contract_require_numeric_bad.cpp");
}
TEST(SwarmlintFixtures, ContractRequireNumericGood) {
    expect_fixture("contract_require_numeric_good.cpp");
}
TEST(SwarmlintFixtures, HygienePragmaOnceBad) {
    expect_fixture("hygiene_pragma_once_bad.cpp");
}
TEST(SwarmlintFixtures, HygienePragmaOnceGood) {
    expect_fixture("hygiene_pragma_once_good.cpp");
}
TEST(SwarmlintFixtures, HygieneCheckIncludeBad) {
    expect_fixture("hygiene_check_include_bad.cpp");
}
TEST(SwarmlintFixtures, HygieneCheckIncludeGood) {
    expect_fixture("hygiene_check_include_good.cpp");
}
TEST(SwarmlintFixtures, HygieneSuppressionMalformed) {
    expect_fixture("hygiene_suppression_malformed.cpp");
}
TEST(SwarmlintFixtures, HygieneSuppressionUnknownRule) {
    expect_fixture("hygiene_suppression_unknown.cpp");
}
TEST(SwarmlintFixtures, HygieneSuppressionStale) {
    expect_fixture("hygiene_suppression_stale.cpp");
}
TEST(SwarmlintFixtures, HygieneSuppressionUsedIsSilent) {
    expect_fixture("hygiene_suppression_good.cpp");
}

// --- registry + driver behavior --------------------------------------------

TEST(SwarmlintRegistry, AtLeastTenNamedDocumentedRules) {
    const auto& rules = swarmlint::all_rules();
    EXPECT_GE(rules.size(), 10u);
    std::set<std::string> names;
    for (const auto& rule : rules) {
        EXPECT_FALSE(rule.name.empty());
        EXPECT_FALSE(rule.description.empty()) << rule.name;
        EXPECT_TRUE(names.insert(rule.name).second) << "duplicate rule " << rule.name;
    }
}

TEST(SwarmlintRegistry, ClassifiesLayersByPath) {
    using swarmlint::Layer;
    EXPECT_EQ(swarmlint::classify_path("src/swarm/swarm_sim.cpp"), Layer::kEngine);
    EXPECT_EQ(swarmlint::classify_path("src/util/telemetry.cpp"), Layer::kObserver);
    EXPECT_EQ(swarmlint::classify_path("src/sim/trace.hpp"), Layer::kObserver);
    EXPECT_EQ(swarmlint::classify_path("src/sim/fingerprint.hpp"), Layer::kObserver);
    EXPECT_EQ(swarmlint::classify_path("src/sim/flight_recorder.cpp"),
              Layer::kObserver);
    EXPECT_EQ(swarmlint::classify_path("src/util/random.hpp"), Layer::kRandom);
    EXPECT_EQ(swarmlint::classify_path("src/util/stats.hpp"), Layer::kSupport);
    EXPECT_EQ(swarmlint::classify_path("src/serve/server.cpp"), Layer::kService);
    EXPECT_EQ(swarmlint::classify_path("src/serve/router.hpp"), Layer::kService);
    EXPECT_EQ(swarmlint::classify_path("src/serve/span.hpp"), Layer::kObserver);
    EXPECT_EQ(swarmlint::classify_path("tools/swarmlint/main.cpp"), Layer::kOther);
}

TEST(SwarmlintFindings, AnchorFileAndLine) {
    const std::vector<LintInput> inputs{
        {"src/model/anchored.cpp",
         "namespace swarmavail::model {\n"
         "long stamp() {\n"
         "    return time(nullptr);\n"
         "}\n"
         "}  // namespace swarmavail::model\n"}};
    const LintResult result = swarmlint::lint_sources(inputs, {"det-wall-clock"});
    ASSERT_EQ(result.findings.size(), 1u) << console_dump(result);
    EXPECT_EQ(result.findings[0].path, "src/model/anchored.cpp");
    EXPECT_EQ(result.findings[0].line, 3);
}

TEST(SwarmlintSuppressions, FilteredRunsSkipStaleDetection) {
    // An unused suppression is only stale when every rule had a chance to
    // consume it; under --rule subsets it must not be reported.
    const std::vector<LintInput> inputs{
        {"src/sim/filtered.cpp",
         "// swarmlint-allow(det-env): excluded rule cannot consume this\n"
         "int fixture_filtered();\n"}};
    const LintResult all = swarmlint::lint_sources(inputs, {});
    ASSERT_EQ(all.findings.size(), 1u) << console_dump(all);
    EXPECT_EQ(all.findings[0].rule, "hygiene-suppression");
    const LintResult filtered =
        swarmlint::lint_sources(inputs, {"det-rand", "hygiene-suppression"});
    EXPECT_TRUE(filtered.findings.empty()) << console_dump(filtered);
}

TEST(SwarmlintSuppressions, JustificationLandsInReport) {
    const std::vector<LintInput> inputs{
        {"src/sim/justified.cpp",
         "#include <random>\n"
         "// swarmlint-allow(det-rand): reason text lands in the JSON artifact\n"
         "std::mt19937 fixture_engine;\n"}};
    const LintResult result = swarmlint::lint_sources(inputs, {});
    EXPECT_TRUE(result.findings.empty()) << console_dump(result);
    ASSERT_EQ(result.suppressed.size(), 1u) << console_dump(result);
    EXPECT_EQ(result.suppressed[0].justification,
              "reason text lands in the JSON artifact");
    std::ostringstream os;
    swarmlint::write_json(result, os);
    EXPECT_NE(os.str().find("reason text lands in the JSON artifact"),
              std::string::npos);
}

// --- the repo gate, in-process ---------------------------------------------

TEST(SwarmlintSrcTree, NoActiveFindings) {
    const LintResult result = swarmlint::lint_sources(load_src_tree(), {});
    EXPECT_TRUE(result.findings.empty()) << console_dump(result);
}

TEST(SwarmlintSrcTree, ReportIsByteIdentical) {
    const std::vector<LintInput> inputs = load_src_tree();
    std::ostringstream first;
    std::ostringstream second;
    swarmlint::write_json(swarmlint::lint_sources(inputs, {}), first);
    swarmlint::write_json(swarmlint::lint_sources(inputs, {}), second);
    EXPECT_EQ(first.str(), second.str());
    EXPECT_NE(first.str().find("\"schema_version\": 1"), std::string::npos);
}

}  // namespace
