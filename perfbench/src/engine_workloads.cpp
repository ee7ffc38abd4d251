// catalog-sweep and swarm-fig6: the simulation engines called in-process
// at a fixed thread count of 3, which leaves one of the host's four cores
// to the harness and the system.
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "catalog/bundling_policy.hpp"
#include "catalog/catalog.hpp"
#include "catalog/catalog_engine.hpp"
#include "catalog/report.hpp"
#include "loopback.hpp"
#include "requests.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/profile.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace catalog = swarmavail::catalog;
namespace swarm = swarmavail::swarm;
namespace prof = swarmavail::prof;

constexpr std::size_t kEngineThreads = 3;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kCatalogSetups = 25;
constexpr std::size_t kSwarmSetups = 101;

/// Timed calls of one engine workload.
struct Calls {
    std::vector<double> ms;
    double wall_s = 0.0;  ///< first call start -> last call end
    double peak_rss_bytes = 0.0;
};

/// Calls `call(i)` until `seconds` have passed; every call started in the
/// window is completed and counted.
template <typename Fn>
Calls timed_calls(double seconds, Fn&& call) {
    Calls calls;
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t last = t0;
    for (std::size_t i = 0; last < end; ++i) {
        call(i);
        const std::int64_t done = now_ns();
        calls.ms.push_back(static_cast<double>(done - last) * 1.0e-6);
        last = done;
    }
    calls.wall_s = static_cast<double>(last - t0) * 1.0e-9;
    calls.peak_rss_bytes = peak_rss_bytes();
    return calls;
}

void report_calls(Report& report, const Calls& calls, double items_per_call) {
    const LatencySummary lat = summarize(calls.ms);
    report.info["calls"] = std::to_string(calls.ms.size());
    report.info["tail_percentile"] = std::to_string(lat.tail.percentile);
    report.set("lat_p50_ms", lat.p50, "ms");
    report.set("lat_tail_ms", lat.tail.value, "ms");
    report.set("throughput_per_s",
               items_per_call * static_cast<double>(calls.ms.size()) / calls.wall_s, "1/s");
    report.set("peak_rss_mb", calls.peak_rss_bytes / (1024.0 * 1024.0), "MB");
}

/// Seconds per call of a phase of the util/profile phase profile.
double phase_seconds(const std::string& name, std::size_t calls) {
    for (const prof::PhaseTotal& phase : prof::Profiler::snapshot()) {
        if (phase.name == name) {
            return phase.seconds / static_cast<double>(calls);
        }
    }
    return 0.0;
}

// ------------------------------------------------------------- catalog-sweep

constexpr std::size_t kFiles = 100000;

/// The catalog of bench/bench_catalog_scaling.cpp (the repo's catalog-engine
/// scaling benchmark: one request/s across the catalog, a dedicated
/// publisher per swarm returning every 15 min for 5 min) at 10^5 files, the
/// largest catalog REFINE accepts.
catalog::CatalogConfig sweep_catalog() {
    catalog::CatalogConfig config;
    config.num_files = kFiles;
    config.zipf_exponent = 1.0;
    config.aggregate_demand = 1.0;
    config.file_size = 80.0;
    config.download_rate = 1.0;
    config.publisher_arrival_rate = 1.0 / 900.0;
    config.publisher_residence = 300.0;
    return config;
}

/// The horizon of the catalog-wide invariance test in
/// tests/sim/test_fingerprint.cpp (same catalog knobs). On a 4-core VM the
/// scaling benchmark's 2000 s gives ~20 ms sweeps that host noise swamps;
/// 2e4 s gives ~60 ms sweeps whose work hardly depends on the seed.
catalog::CatalogEngineConfig sweep_engine(std::uint64_t seed, std::size_t threads) {
    catalog::CatalogEngineConfig config;
    config.horizon = 2.0e4;
    config.seed = mix_seed(seed, 20) >> 11U;
    config.policy.threads = threads;
    config.fingerprint = true;
    return config;
}

std::uint64_t total_events(const catalog::CatalogReport& report) {
    std::uint64_t events = 0;
    for (const catalog::SwarmOutcome& swarm : report.swarms) {
        events += swarm.result.fingerprint_events;
    }
    return events;
}

}  // namespace

std::uint64_t catalog_digest(std::uint64_t seed) {
    const catalog::Catalog cat = catalog::build_catalog(sweep_catalog());
    return catalog::run_catalog(cat, catalog::FixedK{8}, sweep_engine(seed, 1)).fingerprint;
}

Report run_catalog_sweep(const Options& options) {
    Report report;
    report.info["threads"] = std::to_string(kEngineThreads) + " engine threads";
    report.info["files"] = std::to_string(kFiles) + ", FixedK(8), horizon 2e4";
    const catalog::FixedK policy{8};
    const catalog::CatalogEngineConfig engine = sweep_engine(options.seed, kEngineThreads);

    // Setup: build the catalog. One untimed warm-up sweep follows (thread
    // spawn, first-touch allocation); it gives the reference fingerprint
    // and the resident bytes a build and a sweep add per file.
    const double rss_before = current_rss_bytes();
    std::unique_ptr<catalog::Catalog> cat;
    const double setup_s = median_setup_seconds(kCatalogSetups, [&] {
        cat = std::make_unique<catalog::Catalog>(catalog::build_catalog(sweep_catalog()));
    });
    const std::uint64_t fingerprint = catalog::run_catalog(*cat, policy, engine).fingerprint;
    const double rss_per_file = (peak_rss_bytes() - rss_before) / static_cast<double>(kFiles);

    std::size_t mismatches = 0;
    auto sweep = [&](std::size_t) {
        mismatches += catalog::run_catalog(*cat, policy, engine).fingerprint == fingerprint ? 0 : 1;
    };
    const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
    const Calls calls = timed_calls(seconds, sweep);
    report.attempted = calls.ms.size();
    report.failed = mismatches;
    report.check(mismatches == 0, "catalog-sweep: a sweep's fingerprint changed");
    // Output check: a serial sweep must give the same fingerprint, and so
    // must the recorded digest of this seed.
    const std::uint64_t serial =
        catalog::run_catalog(*cat, policy, sweep_engine(options.seed, 1)).fingerprint;
    report.check(serial == fingerprint,
                 "catalog-sweep: the serial sweep's fingerprint differs from 3 threads");
    check_recorded(report, "catalog-sweep", options.seed, serial);

    if (!options.trace) {
        report.set("setup_s", setup_s, "s");
        report_calls(report, calls, static_cast<double>(kFiles));
        return report;
    }

    prof::Profiler::reset();
    prof::Profiler::set_enabled(true);
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
    std::size_t swarms = 0;
    const Calls traced = timed_calls(seconds, [&](std::size_t i) {
        if (i == 0) {
            AllocScope scope;
            const catalog::CatalogReport result = catalog::run_catalog(*cat, policy, engine);
            allocs = scope.count();
            events = total_events(result);
            swarms = result.swarms.size();
            mismatches += result.fingerprint == fingerprint ? 0 : 1;
        } else {
            sweep(i);
        }
    });
    prof::Profiler::set_enabled(false);
    report.attempted += traced.ms.size();
    report.failed = mismatches;
    report.check(mismatches == 0, "catalog-sweep: a traced sweep's fingerprint changed");

    const double run_ms = median(traced.ms);
    report.set("harness.trace_overhead_pct", overhead_pct(median(calls.ms), run_ms), "%");
    report.set("catalog.build_ms", setup_s * 1.0e3, "ms");
    report.set("catalog.run_ms", run_ms, "ms");
    report.set("sim.events", static_cast<double>(events), "count");
    report.set("sim.events_per_s", static_cast<double>(events) / (run_ms * 1.0e-3), "1/s");
    report.set("catalog.rss_bytes_per_file", rss_per_file, "B");
    report.set("catalog.allocs_per_swarm",
               static_cast<double>(allocs) / static_cast<double>(swarms), "count");
    report.set("sim.event_dispatch_s", phase_seconds("sim.event_dispatch", traced.ms.size()),
               "s");
    report.set("harness.error_rate",
               static_cast<double>(report.failed) / static_cast<double>(report.attempted),
               "ratio");
    return report;
}

// --------------------------------------------------------------- swarm-fig6

namespace {

/// Replications per call and distinct seed blocks a run cycles through:
/// 8 blocks of 72 replications average over 576 sample paths, so the work
/// of a run hardly depends on the seed. A call lasts ~0.3 s, and 24
/// replications per engine thread keep one long replication or one
/// descheduled thread from setting a call's time.
constexpr std::size_t kReplications = 72;
constexpr std::size_t kBlocks = 8;

/// Figure 6(a): homogeneous mu = 50 KBps, publisher 100 KBps on/off
/// 300 s / 900 s, lambda = 1/60 per file, K = 4, 1200 s of arrivals with a
/// bounded drain (bench/fig6_common.hpp).
swarm::SwarmSimConfig fig6_config(std::uint64_t seed, std::size_t block) {
    swarm::SwarmSimConfig config;
    config.bundle_size = 4;
    config.peer_arrival_rate = 1.0 / 60.0;
    config.peer_capacity = std::make_shared<swarm::HomogeneousCapacity>(50.0 * swarm::kKBps);
    config.publisher_capacity = 100.0 * swarm::kKBps;
    config.publisher = swarm::PublisherBehavior::kOnOff;
    config.publisher_on_mean = 300.0;
    config.publisher_off_mean = 900.0;
    config.horizon = 1200.0;
    config.drain_after_horizon = true;
    config.drain_deadline_factor = 3.0;
    config.seed = (mix_seed(seed, 30) >> 20U) + block * kReplications;
    return config;
}

std::vector<std::uint64_t> fingerprints(const std::vector<swarm::SwarmSimResult>& results) {
    std::vector<std::uint64_t> out;
    for (const swarm::SwarmSimResult& result : results) {
        out.push_back(result.fingerprint);
    }
    return out;
}

std::uint64_t digest_of(const std::vector<std::uint64_t>& prints) {
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::uint64_t print : prints) {
        digest = fnv1a(std::to_string(print), digest);
    }
    return digest;
}

}  // namespace

std::uint64_t swarm_digest(std::uint64_t seed) {
    return digest_of(fingerprints(swarm::run_swarm_replications(
        fig6_config(seed, 0), kReplications, swarmavail::sim::ParallelPolicy{1})));
}

Report run_swarm_fig6(const Options& options) {
    Report report;
    report.info["threads"] = std::to_string(kEngineThreads) + " engine threads";
    report.info["calls"] = std::to_string(kReplications) + " replications per call, " +
                           std::to_string(kBlocks) + " seed blocks";
    const swarmavail::sim::ParallelPolicy policy{kEngineThreads};
    std::vector<swarm::SwarmSimConfig> configs;
    // Setup: the configurations; the simulator has no build step. An
    // untimed warm-up of one replication per engine thread follows (thread
    // spawn, first-touch allocation).
    const double setup_s = median_setup_seconds(kSwarmSetups, [&] {
        configs.clear();
        for (std::size_t b = 0; b < kBlocks; ++b) {
            configs.push_back(fig6_config(options.seed, b));
        }
    });
    static_cast<void>(swarm::run_swarm_replications(configs[0], kEngineThreads, policy));

    std::vector<std::vector<std::uint64_t>> seen(kBlocks);
    std::size_t mismatches = 0;
    std::uint64_t events = 0;
    auto call = [&](std::size_t i) {
        const std::size_t block = i % kBlocks;
        const auto results = swarm::run_swarm_replications(configs[block], kReplications, policy);
        std::vector<std::uint64_t> prints = fingerprints(results);
        for (const swarm::SwarmSimResult& result : results) {
            events += result.fingerprint_events;
        }
        if (seen[block].empty()) {
            seen[block] = std::move(prints);
        } else {
            mismatches += prints == seen[block] ? 0 : 1;
        }
    };
    const double seconds = options.trace ? options.seconds / 2.0 : options.seconds;
    const Calls calls = timed_calls(seconds, call);
    report.attempted = calls.ms.size();

    // Output check: every block reached, recomputed on 2 threads, must give
    // the same per-replication fingerprints; block 0 must match the
    // recorded digest of this seed.
    const swarmavail::sim::ParallelPolicy reference_policy{2};
    for (std::size_t b = 0; b < kBlocks; ++b) {
        if (!seen[b].empty()) {
            mismatches += fingerprints(swarm::run_swarm_replications(
                              configs[b], kReplications, reference_policy)) == seen[b]
                              ? 0
                              : 1;
        }
    }
    report.failed = mismatches;
    report.check(mismatches == 0, "swarm-fig6: replication fingerprints changed");
    report.check(calls.ms.size() >= kBlocks, "swarm-fig6: the run covered fewer blocks than " +
                                                 std::to_string(kBlocks));
    check_recorded(report, "swarm-fig6", options.seed, digest_of(seen[0]));

    if (!options.trace) {
        report.set("setup_s", setup_s, "s");
        report_calls(report, calls, static_cast<double>(kReplications));
        return report;
    }

    prof::Profiler::reset();
    prof::Profiler::set_enabled(true);
    events = 0;
    const Calls traced = timed_calls(seconds, call);
    prof::Profiler::set_enabled(false);
    report.attempted += traced.ms.size();
    report.failed = mismatches;
    report.check(mismatches == 0, "swarm-fig6: traced replication fingerprints changed");

    // Allocations per event of one serial call (deterministic per seed).
    std::uint64_t allocs = 0;
    std::uint64_t serial_events = 0;
    {
        AllocScope scope;
        const auto results = swarm::run_swarm_replications(configs[0], kReplications,
                                                           swarmavail::sim::ParallelPolicy{1});
        allocs = scope.count();
        for (const swarm::SwarmSimResult& result : results) {
            serial_events += result.fingerprint_events;
        }
    }
    const std::size_t n = traced.ms.size();
    report.set("harness.trace_overhead_pct", overhead_pct(median(calls.ms), median(traced.ms)),
               "%");
    report.set("swarm.events", static_cast<double>(serial_events), "count");
    report.set("swarm.events_per_s", static_cast<double>(events) / traced.wall_s, "1/s");
    report.set("swarm.allocs_per_event",
               static_cast<double>(allocs) / static_cast<double>(serial_events), "count");
    report.set("swarm.piece_transfer_s", phase_seconds("swarm.piece_transfer", n), "s");
    report.set("swarm.choke_pump_s", phase_seconds("swarm.choke_pump", n), "s");
    report.set("sim.event_dispatch_s", phase_seconds("sim.event_dispatch", n), "s");
    report.set("harness.error_rate",
               static_cast<double>(report.failed) / static_cast<double>(report.attempted),
               "ratio");
    return report;
}

}  // namespace perfbench
