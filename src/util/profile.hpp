// Phase-scoped wall-time profiling for the simulation engines.
//
// `SWARMAVAIL_PROF_SCOPE("sim.event_dispatch")` drops an RAII timer into a
// block; every scope with the same name accumulates into one process-wide
// phase (calls + wall seconds, inclusive of nested scopes). Accumulators
// are per-thread relaxed atomics, so scopes are safe inside sim::for_index
// threads and the tsan build stays clean; Profiler::snapshot() folds the
// per-thread slots on demand.
//
// Cost model: profiling is runtime-gated. Disabled (the default), a scope
// costs one relaxed atomic load and a branch — no clock reads. Compiling
// with SWARMAVAIL_OBSERVE_DISABLED (util/observe.hpp; CMake:
// -DSWARMAVAIL_ENABLE_OBSERVE=OFF) removes the call sites entirely.
//
// Profiling measures wall time only; it never touches simulator state or
// RNG draws, so enabling it cannot change any simulation result.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace swarmavail::prof {

namespace detail {
/// The runtime gate, read on every scope entry; defined in profile.cpp.
extern std::atomic<bool> g_profiling_enabled;
}  // namespace detail

/// Aggregated totals of one phase across all threads.
struct PhaseTotal {
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0.0;  ///< inclusive wall time (nested scopes double-count)
};

/// Process-wide phase registry and accumulator. All members are static:
/// phases are identified by the index register_phase hands out, and scope
/// call sites cache that index in a function-local static.
class Profiler {
 public:
    /// Registers (or looks up) a phase by name; returns its index.
    /// Throws std::invalid_argument beyond kMaxPhases distinct phases.
    static std::size_t register_phase(std::string_view name);

    static void set_enabled(bool on) noexcept {
        detail::g_profiling_enabled.store(on, std::memory_order_relaxed);
    }
    [[nodiscard]] static bool enabled() noexcept {
        return detail::g_profiling_enabled.load(std::memory_order_relaxed);
    }

    /// Adds one call of `ns` nanoseconds to `phase` on this thread's slot.
    static void record(std::size_t phase, std::uint64_t ns) noexcept;

    /// Folds every thread's accumulators; phases in registration order.
    /// Phases recorded concurrently with the snapshot may be partially
    /// counted — quiesce first for exact numbers.
    [[nodiscard]] static std::vector<PhaseTotal> snapshot();

    /// Zeroes all accumulators (registered names are kept).
    static void reset();

    /// Writes {"phases":[{"name":...,"calls":N,"seconds":S},...]} — the
    /// per-phase wall-time breakdown trace_inspect prints after its demo run.
    static void write_json(std::ostream& os);

    static constexpr std::size_t kMaxPhases = 64;
};

/// RAII timer for one phase. Reads the clock only while profiling is
/// enabled; the disabled path is a relaxed load plus a branch.
class ProfScope {
 public:
    explicit ProfScope(std::size_t phase) noexcept {
        if (Profiler::enabled()) {
            phase_ = phase;
            start_ns_ = now_ns();
            armed_ = true;
        }
    }
    ~ProfScope() {
        if (armed_) {
            Profiler::record(phase_, now_ns() - start_ns_);
        }
    }

    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;

 private:
    [[nodiscard]] static std::uint64_t now_ns() noexcept;

    std::size_t phase_ = 0;
    std::uint64_t start_ns_ = 0;
    bool armed_ = false;
};

}  // namespace swarmavail::prof

#define SWARMAVAIL_PROF_CAT2(a, b) a##b
#define SWARMAVAIL_PROF_CAT(a, b) SWARMAVAIL_PROF_CAT2(a, b)

#if defined(SWARMAVAIL_OBSERVE_DISABLED)
#define SWARMAVAIL_PROF_SCOPE(name) static_cast<void>(0)
#else
/// Times the enclosing block under phase `name` (a string literal). The
/// phase index is registered once per call site via a function-local static.
#define SWARMAVAIL_PROF_SCOPE(name)                                              \
    static const std::size_t SWARMAVAIL_PROF_CAT(swarmavail_prof_id_, __LINE__) = \
        ::swarmavail::prof::Profiler::register_phase(name);                       \
    const ::swarmavail::prof::ProfScope SWARMAVAIL_PROF_CAT(                      \
        swarmavail_prof_scope_, __LINE__) {                                       \
        SWARMAVAIL_PROF_CAT(swarmavail_prof_id_, __LINE__)                        \
    }
#endif
