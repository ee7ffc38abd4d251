// Event-queue microbenchmarks (google-benchmark): steady-state push/pop
// throughput and cancellation cost of the binary-heap EventQueue at
// different fill levels and horizon mixes. These isolate the scheduler from
// the simulators so a queue regression is visible before it washes out in
// whole-sim numbers.
//
// Horizon mixes model the two scheduling populations the simulators
// produce:
//   dense-transfer: every delta is a short transfer completion, uniform in
//     [0, 1) model time units.
//   sparse-churn: 1 in 8 deltas is a far-future churn event (peer/publisher
//     arrival or departure) up to 4096x further out, so far-future entries
//     sink deep in the heap while near-term ones cycle through the top.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/random.hpp"

namespace {

using namespace swarmavail;

enum HorizonMix : std::int64_t { kDenseTransfer = 0, kSparseChurn = 1 };

double next_delta(Rng& rng, std::int64_t mix) {
    const double base = rng.uniform();
    if (mix == kSparseChurn && (rng() & 7U) == 0) {
        return base * 4096.0;
    }
    return base;
}

void set_mix_label(benchmark::State& state) {
    state.SetLabel(state.range(1) == kDenseTransfer ? "dense-transfer" : "sparse-churn");
}

// Steady-state hold-at-fill workload: pre-fill to `fill` events, then each
// op pops the head and schedules a replacement. This is the simulators'
// dominant pattern (population roughly constant, one completion schedules
// the next), so items/s here is the scheduler's sustainable event rate.
void BM_EventQueuePushPop(benchmark::State& state) {
    const auto fill = static_cast<std::size_t>(state.range(0));
    const auto mix = state.range(1);
    sim::EventQueue queue;
    Rng rng{7};
    for (std::size_t i = 0; i < fill; ++i) {
        queue.schedule_at(next_delta(rng, mix), [] {});
    }
    for (auto _ : state) {
        queue.run_next();
        queue.schedule_at(queue.now() + next_delta(rng, mix), [] {});
        benchmark::DoNotOptimize(queue);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    set_mix_label(state);
}
BENCHMARK(BM_EventQueuePushPop)
    ->ArgNames({"fill", "mix"})
    ->Args({64, kDenseTransfer})
    ->Args({64, kSparseChurn})
    ->Args({1024, kDenseTransfer})
    ->Args({1024, kSparseChurn})
    ->Args({16384, kDenseTransfer})
    ->Args({16384, kSparseChurn});

// Cancellation-heavy workload: each op schedules two events, cancels one of
// the two (alternating old/new so both head-adjacent and deep cancels
// occur), and pops one. Exercises the lazy-drop path: cancel() flips slot
// liveness and the dead entry is pruned when it surfaces at the head.
void BM_EventQueueCancel(benchmark::State& state) {
    const auto fill = static_cast<std::size_t>(state.range(0));
    const auto mix = state.range(1);
    sim::EventQueue queue;
    Rng rng{11};
    std::vector<sim::EventId> pending;
    pending.reserve(fill + 2);
    for (std::size_t i = 0; i < fill; ++i) {
        pending.push_back(queue.schedule_at(next_delta(rng, mix), [] {}));
    }
    bool cancel_old = false;
    for (auto _ : state) {
        const double base = queue.now();
        pending.push_back(queue.schedule_at(base + next_delta(rng, mix), [] {}));
        pending.push_back(queue.schedule_at(base + next_delta(rng, mix), [] {}));
        const std::size_t victim =
            cancel_old ? static_cast<std::size_t>(rng.uniform_index(pending.size()))
                       : pending.size() - 1;
        cancel_old = !cancel_old;
        queue.cancel(pending[victim]);
        pending[victim] = pending.back();
        pending.pop_back();
        queue.run_next();
        benchmark::DoNotOptimize(queue);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    set_mix_label(state);
}
BENCHMARK(BM_EventQueueCancel)
    ->ArgNames({"fill", "mix"})
    ->Args({1024, kDenseTransfer})
    ->Args({1024, kSparseChurn});

// Drain workload: fill the queue cold, then pop everything. Measures
// pops from a full heap instead of steady state; time is per drained
// event.
void BM_EventQueueFillDrain(benchmark::State& state) {
    const auto fill = static_cast<std::size_t>(state.range(0));
    const auto mix = state.range(1);
    for (auto _ : state) {
        state.PauseTiming();
        sim::EventQueue queue;
        Rng rng{13};
        state.ResumeTiming();
        for (std::size_t i = 0; i < fill; ++i) {
            queue.schedule_at(next_delta(rng, mix), [] {});
        }
        while (queue.run_next()) {
        }
        benchmark::DoNotOptimize(queue);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(fill));
    set_mix_label(state);
}
BENCHMARK(BM_EventQueueFillDrain)
    ->ArgNames({"fill", "mix"})
    ->Args({16384, kDenseTransfer})
    ->Args({16384, kSparseChurn});

}  // namespace
