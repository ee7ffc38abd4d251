// Catalog-engine scaling benchmark: whole-catalog simulation throughput
// (files/s) at 1k and 10k files, sweeping the thread count. Items/s is
// catalog files simulated per second. perfbench's catalog-sweep workload
// runs this catalog at 10^5 files. Engineering numbers, not paper results.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <thread>

#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"

namespace {

using namespace swarmavail;

/// Thread counts to sweep: serial, 2, 4, and (if wider) the full machine.
void scaling_args(benchmark::internal::Benchmark* bench) {
    for (long files : {1000L, 10000L}) {
        bench->Args({files, 1})->Args({files, 2})->Args({files, 4});
        const unsigned hardware = std::thread::hardware_concurrency();
        if (hardware > 4) {
            bench->Args({files, static_cast<long>(hardware)});
        }
    }
    bench->ArgNames({"files", "threads"})->UseRealTime()->Unit(benchmark::kMillisecond);
}

catalog::Catalog make_catalog(std::size_t files) {
    catalog::CatalogConfig config;
    config.num_files = files;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = 1.0;  // one request/s across the catalog
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return catalog::build_catalog(config);
}

catalog::CatalogEngineConfig engine_config(std::size_t threads) {
    catalog::CatalogEngineConfig config;
    config.horizon = 2000.0;
    config.seed = 17;
    config.policy.threads = threads;
    return config;
}

void BM_CatalogSharded(benchmark::State& state) {
    const auto files = static_cast<std::size_t>(state.range(0));
    const auto threads = static_cast<std::size_t>(state.range(1));
    const auto catalog = make_catalog(files);
    const catalog::FixedK policy{8};
    const auto config = engine_config(threads);
    for (auto _ : state) {
        const auto report = catalog::run_catalog(catalog, policy, config);
        benchmark::DoNotOptimize(report.arrivals);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(files));
    state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_CatalogSharded)->Apply(scaling_args);

}  // namespace
