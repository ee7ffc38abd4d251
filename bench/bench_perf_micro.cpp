// Performance microbenchmarks (google-benchmark): cost of the closed-form
// evaluations and simulator throughput. These are engineering numbers (how
// cheap is the model to evaluate at scale), not paper results.
#include <benchmark/benchmark.h>

#include <memory>

#include "model/bundling.hpp"
#include "queueing/busy_period.hpp"
#include "sim/availability_sim.hpp"
#include "swarm/swarm_sim.hpp"

namespace {

using namespace swarmavail;

model::SwarmParams base_params() {
    model::SwarmParams params;
    params.peer_arrival_rate = 1.0 / 60.0;
    params.content_size = 80.0;
    params.download_rate = 1.0;
    params.publisher_arrival_rate = 1.0 / 900.0;
    params.publisher_residence = 300.0;
    return params;
}

void BM_BusyPeriodMixed(benchmark::State& state) {
    const auto k = static_cast<double>(state.range(0));
    const queueing::MixedBusyPeriodParams params{k / 60.0 + 1.0 / 900.0, 300.0,
                                                 (k / 60.0) / (k / 60.0 + 1.0 / 900.0),
                                                 80.0 * k, 300.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(queueing::busy_period_mixed(params));
    }
}
BENCHMARK(BM_BusyPeriodMixed)->Arg(1)->Arg(4)->Arg(8);

void BM_SteadyStateResidual(benchmark::State& state) {
    const auto k = static_cast<double>(state.range(0));
    const queueing::ResidualParams params{k / 60.0, 80.0 * k};
    for (auto _ : state) {
        benchmark::DoNotOptimize(queueing::steady_state_residual_busy_period(9, params));
    }
}
BENCHMARK(BM_SteadyStateResidual)->Arg(1)->Arg(4)->Arg(8);

void BM_DownloadTimeSweep(benchmark::State& state) {
    const auto params = base_params();
    model::BundleSweepConfig config;
    config.max_k = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(model::sweep_bundle_sizes(params, config));
    }
}
BENCHMARK(BM_DownloadTimeSweep)->Arg(4)->Arg(8);

void BM_AvailabilitySim(benchmark::State& state) {
    sim::AvailabilitySimConfig config;
    config.params = base_params();
    config.horizon = static_cast<double>(state.range(0));
    config.seed = 3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::run_availability_sim(config));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AvailabilitySim)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SwarmSim(benchmark::State& state) {
    swarm::SwarmSimConfig config;
    config.bundle_size = static_cast<std::size_t>(state.range(0));
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<swarm::HomogeneousCapacity>(50.0 * swarm::kKBps);
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.publisher = swarm::PublisherBehavior::kOnOff;
    config.horizon = 2400.0;
    config.seed = 4;
    for (auto _ : state) {
        benchmark::DoNotOptimize(swarm::run_swarm_sim(config));
    }
}
BENCHMARK(BM_SwarmSim)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
