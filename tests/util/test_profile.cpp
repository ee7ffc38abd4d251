// Phase profiler: registration, enable gating, accumulation, snapshot
// folding, and the JSON report shape.
#include "util/profile.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace swarmavail::prof {
namespace {

// The profiler is process-global; each test resets the accumulators (phase
// registrations persist, which is the intended call-site caching model).

std::uint64_t calls_of(const std::vector<PhaseTotal>& phases, const std::string& name) {
    for (const auto& phase : phases) {
        if (phase.name == name) {
            return phase.calls;
        }
    }
    return 0;
}

TEST(Profiler, RegisterPhaseIsIdempotent) {
    const std::size_t a = Profiler::register_phase("test.phase_a");
    EXPECT_EQ(Profiler::register_phase("test.phase_a"), a);
    const std::size_t b = Profiler::register_phase("test.phase_b");
    EXPECT_NE(a, b);
}

TEST(Profiler, DisabledScopesRecordNothing) {
    Profiler::reset();
    Profiler::set_enabled(false);
    const std::size_t id = Profiler::register_phase("test.disabled");
    for (int i = 0; i < 10; ++i) {
        const ProfScope scope{id};
    }
    EXPECT_EQ(calls_of(Profiler::snapshot(), "test.disabled"), 0u);
}

TEST(Profiler, EnabledScopesAccumulateCallsAndTime) {
    Profiler::reset();
    Profiler::set_enabled(true);
    const std::size_t id = Profiler::register_phase("test.enabled");
    for (int i = 0; i < 25; ++i) {
        const ProfScope scope{id};
    }
    Profiler::set_enabled(false);
    const auto phases = Profiler::snapshot();
    EXPECT_EQ(calls_of(phases, "test.enabled"), 25u);
    for (const auto& phase : phases) {
        EXPECT_GE(phase.seconds, 0.0) << phase.name;
    }
}

TEST(Profiler, MacroScopesAccumulateUnderTheirName) {
    Profiler::reset();
    Profiler::set_enabled(true);
    for (int i = 0; i < 3; ++i) {
        SWARMAVAIL_PROF_SCOPE("test.macro_scope");
    }
    Profiler::set_enabled(false);
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    EXPECT_EQ(calls_of(Profiler::snapshot(), "test.macro_scope"), 0u);
#else
    EXPECT_EQ(calls_of(Profiler::snapshot(), "test.macro_scope"), 3u);
#endif
}

TEST(Profiler, FoldsAcrossThreads) {
    Profiler::reset();
    Profiler::set_enabled(true);
    const std::size_t id = Profiler::register_phase("test.threads");
    auto work = [id] {
        for (int i = 0; i < 100; ++i) {
            const ProfScope scope{id};
        }
    };
    std::thread t1{work};
    std::thread t2{work};
    work();
    t1.join();
    t2.join();
    Profiler::set_enabled(false);
    EXPECT_EQ(calls_of(Profiler::snapshot(), "test.threads"), 300u);
}

TEST(Profiler, ResetZeroesAccumulatorsButKeepsNames) {
    Profiler::set_enabled(true);
    const std::size_t id = Profiler::register_phase("test.reset");
    { const ProfScope scope{id}; }
    Profiler::set_enabled(false);
    EXPECT_EQ(calls_of(Profiler::snapshot(), "test.reset"), 1u);
    Profiler::reset();
    EXPECT_EQ(calls_of(Profiler::snapshot(), "test.reset"), 0u);
    EXPECT_EQ(Profiler::register_phase("test.reset"), id);
}

TEST(Profiler, WriteJsonListsEveryRegisteredPhase) {
    Profiler::reset();
    Profiler::set_enabled(true);
    const std::size_t id = Profiler::register_phase("test.json");
    { const ProfScope scope{id}; }
    Profiler::set_enabled(false);
    std::ostringstream os;
    Profiler::write_json(os);
    const std::string json = os.str();
    EXPECT_EQ(json.find("{\"phases\":["), 0u);
    EXPECT_NE(json.find("\"name\":\"test.json\",\"calls\":1"), std::string::npos);
}

}  // namespace
}  // namespace swarmavail::prof
