// Allocation budget of the hot paths, pinned with a counting global
// operator new. This file is an executable of its own: replacing the global
// allocation functions affects every object linked into the program.
//
// A passing contract check must not allocate (its message becomes a string
// only on failure), so the swarm simulator's per-event cost and the eq.-9
// double sum stay free of heap traffic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "queueing/busy_period.hpp"
#include "swarm/capacity.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/error.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_allocate(std::size_t size, std::size_t alignment) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                       size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

/// Allocations made while `body` runs.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    body();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocate(size, alignof(std::max_align_t)); }
void* operator new[](std::size_t size) {
    return counted_allocate(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace swarmavail {
namespace {

// Read through a volatile so the checks below see a run-time condition.
volatile bool g_true = true;

TEST(AllocFree, PassingRequireAndEnsureDoNotAllocate) {
    // Longer than the 15 characters a std::string keeps inline.
    constexpr const char* kMessage = "a message longer than the small-string buffer";
    const std::uint64_t allocs = allocations_during([] {
        for (int i = 0; i < 100; ++i) {
            require(g_true, kMessage);
            ensure(g_true, kMessage);
        }
    });
    EXPECT_EQ(allocs, 0U);
}

TEST(AllocFree, SwarmSimAllocatesLessThanOncePerEvent) {
#if defined(SWARMAVAIL_OBSERVE_DISABLED)
    GTEST_SKIP() << "fingerprinting (the event count) is compiled out";
#else
    // Figure 6(a), shortened: homogeneous mu = 50 KBps, publisher 100 KBps
    // on/off 300 s / 900 s, lambda = 1/60 per file, K = 4.
    swarm::SwarmSimConfig config;
    config.bundle_size = 4;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<swarm::HomogeneousCapacity>(50.0 * swarm::kKBps);
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.publisher = swarm::PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 300.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 3.0;
    config.fingerprint = true;
    config.seed = 1;

    swarm::SwarmSimResult result;
    const std::uint64_t allocs =
        allocations_during([&] { result = swarm::run_swarm_sim(config); });
    ASSERT_GT(result.fingerprint_events, 500U);
    EXPECT_LT(allocs, result.fingerprint_events);
#endif
}

TEST(AllocFree, MixedBusyPeriodAllocationIsIndependentOfTermCount) {
    // hump = beta * max(alpha1, alpha2): about 50 and about 200.
    const queueing::MixedBusyPeriodParams small{0.5, 50.0, 0.6, 100.0, 40.0};
    const queueing::MixedBusyPeriodParams large{2.0, 50.0, 0.6, 100.0, 40.0};
    queueing::BusyPeriodResult small_result;
    queueing::BusyPeriodResult large_result;
    const std::uint64_t small_allocs =
        allocations_during([&] { small_result = queueing::busy_period_mixed(small); });
    const std::uint64_t large_allocs =
        allocations_during([&] { large_result = queueing::busy_period_mixed(large); });
    ASSERT_GT(large_result.terms, 200U);
    ASSERT_GT(large_result.terms, 2 * small_result.terms);
    EXPECT_LE(large_allocs, 2U);
    EXPECT_EQ(large_allocs, small_allocs);
}

}  // namespace
}  // namespace swarmavail
