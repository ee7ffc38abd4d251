#include "catalog/catalog_engine.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/availability_process.hpp"
#include "sim/event_queue.hpp"
#include "sim/fingerprint.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"

namespace swarmavail::catalog {
namespace {

/// Telemetry name under which the engine tracks per-swarm arrival
/// unavailability (the estimate catalog stop rules target).
constexpr const char* kUnavailabilityTrack = "catalog.swarm_unavailability";

/// Announces a catalog run to an attached session: total swarm count and
/// the simulated seconds the run intends to execute.
void publish_run_shape([[maybe_unused]] const CatalogEngineConfig& config,
                       [[maybe_unused]] std::size_t swarms) {
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (config.telemetry != nullptr) {
        telemetry::RunCounters& counters = config.telemetry->counters();
        counters.swarms_total.fetch_add(swarms, std::memory_order_relaxed);
        telemetry::atomic_add(counters.sim_time_target,
                              config.horizon * static_cast<double>(swarms));
    }
#endif
}

/// The fan-out: the worker for swarm i builds its config, runs the swarm on
/// a private queue, and writes `report.swarms[i]` and its files' rows into
/// storage sized beforehand. Rows are disjoint, so writing them takes no
/// lock, and the report does not depend on the thread count. The worker
/// inlines run_availability_sim (same statements, same validation and
/// failure routing) so it can read the queue's dispatch count. A swarm's
/// file list moves out of `plan` into its row; a row whose list is still
/// empty afterwards is a swarm a stop rule skipped.
void run_swarms(const Catalog& catalog, SwarmPlan& plan,
                const CatalogEngineConfig& config, CatalogReport& report) {
    SWARMAVAIL_PROF_SCOPE("catalog.sharded");
    const bool stoppable =
        config.stop_rule.has_value() && config.stop_rule->ci95_target > 0.0;
    std::atomic<bool> stop{false};
    std::mutex observed_mutex;
    StreamingStats observed;  // completion-order; drives the stop decision only

    telemetry::RunCounters* counters = nullptr;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (config.telemetry != nullptr) {
        counters = &config.telemetry->counters();
    }
#endif
    sim::for_index(
        plan.size(), config.policy,
        [&](std::size_t i) {
            if (stoppable && stop.load(std::memory_order_acquire)) {
                return;
            }
            const sim::AvailabilitySimConfig swarm_config =
                swarm_sim_config(catalog, plan, i, config);
            sim::EventQueue queue;
            queue.set_audit(swarm_config.debug_audit);
            sim::AvailabilityProcess process{queue, swarm_config};
            process.start();
            try {
                queue.run_until(swarm_config.horizon);
            } catch (const CheckFailure& failure) {
                trace_check_failure(swarm_config.tracer, queue.now(), failure);
                throw;
            }
            SwarmOutcome& swarm = report.swarms[i];
            swarm.swarm = i;
            swarm.params = swarm_config.params;
            swarm.result = process.finish();
            swarm.files = std::move(plan[i]);
            const sim::AvailabilitySimResult& result = swarm.result;
            const double swarm_download_mean =
                result.download_times.count() > 0 ? result.download_times.mean() : 0.0;
            for (std::size_t id : swarm.files) {
                FileOutcome& file = report.files[id];
                file.file = id;
                file.demand_rate = catalog.files[id].demand_rate;
                file.swarm = i;
                file.bundle_size = swarm.files.size();
                file.arrival_unavailability = result.arrival_unavailability;
                file.unavailable_time_fraction = result.unavailable_time_fraction;
                file.mean_download_time = swarm_download_mean;
            }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
            if (config.telemetry != nullptr) {
                counters->swarms_completed.fetch_add(1, std::memory_order_relaxed);
                counters->events_dispatched.fetch_add(queue.dispatched(),
                                                      std::memory_order_relaxed);
                telemetry::atomic_add(counters->sim_time_advanced, swarm_config.horizon);
                config.telemetry->tracker().observe(kUnavailabilityTrack,
                                                    result.arrival_unavailability);
                counters->fingerprint_xor.fetch_xor(result.fingerprint,
                                                    std::memory_order_relaxed);
            }
#endif
            if (stoppable) {
                const std::lock_guard<std::mutex> lock(observed_mutex);
                observed.add(result.arrival_unavailability);
                if (config.stop_rule->satisfied(observed)) {
                    stop.store(true, std::memory_order_release);
                }
            }
        },
        counters);
}

/// The one serial pass after the fan-out: folds the scalars and the
/// catalog fingerprint in swarm-index order, then drops the rows of swarms
/// that never ran. A full run divides the demand-weighted sums by the
/// catalog's total demand; a stopped run by the demand it covered.
void fold_report(const Catalog& catalog, CatalogReport& report) {
    double download_seconds = 0.0;
    double online_fraction_sum = 0.0;
    double unavailable_time_weighted = 0.0;
    double unavailability_weighted = 0.0;
    double covered_demand = 0.0;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    sim::Fingerprint combined_fingerprint;
    std::uint64_t fingerprinted_swarms = 0;
#endif
    std::size_t ran = 0;
    for (std::size_t i = 0; i < report.swarms.size(); ++i) {
        const SwarmOutcome& swarm = report.swarms[i];
        if (swarm.files.empty()) {
            continue;
        }
        ++ran;
        const sim::AvailabilitySimResult& result = swarm.result;
        report.arrivals += result.arrivals;
        report.served += result.served;
        report.lost += result.lost;
        report.stranded += result.stranded;
        report.publisher_up_transitions += result.publisher_up_transitions;
        download_seconds += result.download_times.sum();
        online_fraction_sum += result.publisher_online_fraction;
        report.expected_publisher_load +=
            swarm.params.publisher_arrival_rate * swarm.params.publisher_residence;
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
        if (result.fingerprint != 0) {
            combined_fingerprint.fold(static_cast<std::uint64_t>(i));
            combined_fingerprint.fold(result.fingerprint);
            combined_fingerprint.fold(result.fingerprint_events);
            ++fingerprinted_swarms;
        }
#endif
        // The same products the file rows hold, read from the catalog and
        // the swarm row rather than from the wider file rows.
        for (std::size_t id : swarm.files) {
            const double demand = catalog.files[id].demand_rate;
            unavailability_weighted += demand * result.arrival_unavailability;
            unavailable_time_weighted += demand * result.unavailable_time_fraction;
            covered_demand += demand;
        }
    }

    report.stopped_early = ran < report.swarms.size();
    const double demand_denominator =
        report.stopped_early ? covered_demand : catalog.total_demand();
    if (demand_denominator > 0.0) {
        report.demand_weighted_unavailability =
            unavailability_weighted / demand_denominator;
        report.demand_weighted_unavailable_time =
            unavailable_time_weighted / demand_denominator;
    }
    if (report.served > 0) {
        report.mean_download_time =
            download_seconds / static_cast<double>(report.served);
    }
    if (ran > 0) {
        report.mean_publisher_online_fraction =
            online_fraction_sum / static_cast<double>(ran);
    }
#if !defined(SWARMAVAIL_OBSERVE_DISABLED)
    if (fingerprinted_swarms > 0) {
        report.fingerprint = combined_fingerprint.digest();
    }
#endif
    if (report.stopped_early) {
        // A skipped swarm's row keeps an empty file list, and its files'
        // rows keep bundle_size 0 (every covered file has bundle_size >= 1).
        std::erase_if(report.swarms,
                      [](const SwarmOutcome& swarm) { return swarm.files.empty(); });
        std::erase_if(report.files,
                      [](const FileOutcome& file) { return file.bundle_size == 0; });
    }
}

}  // namespace

sim::AvailabilitySimConfig swarm_sim_config(const Catalog& catalog,
                                            const SwarmPlan& plan,
                                            std::size_t swarm_index,
                                            const CatalogEngineConfig& config) {
    SWARMAVAIL_REQUIRE(swarm_index < plan.size(),
                       "swarm_sim_config: swarm index out of range");
    sim::AvailabilitySimConfig swarm_config;
    swarm_config.params = swarm_params(catalog, plan[swarm_index], plan.size());
    swarm_config.coverage_threshold = config.coverage_threshold;
    swarm_config.patient_peers = config.patient_peers;
    swarm_config.linger_time = config.linger_time;
    swarm_config.horizon = config.horizon;
    swarm_config.seed = config.seed + swarm_index;
    swarm_config.debug_audit = config.debug_audit;
    // Per-swarm metrics stay unbound: the engine aggregates through the
    // report instead, so every thread count agrees bit for bit.
    swarm_config.metrics = nullptr;
    swarm_config.tracer =
        swarm_index == config.traced_swarm ? config.tracer : nullptr;
    swarm_config.fingerprint = config.fingerprint;
    return swarm_config;
}

CatalogReport run_catalog_plan(const Catalog& catalog, SwarmPlan plan,
                               const CatalogEngineConfig& config) {
    catalog.config.validate();
    SWARMAVAIL_REQUIRE(std::isfinite(config.horizon) && config.horizon > 0.0,
                       "run_catalog: horizon must be finite and > 0");
    SWARMAVAIL_REQUIRE(
        config.traced_swarm == kNoTracedSwarm || config.traced_swarm < plan.size(),
        "run_catalog: traced_swarm out of range");
    validate_swarm_plan(catalog, plan);
    publish_run_shape(config, plan.size());

    CatalogReport report;
    report.swarms_planned = plan.size();
    report.swarms.resize(plan.size());
    report.files.resize(catalog.files.size());
    run_swarms(catalog, plan, config, report);
    fold_report(catalog, report);
    if (config.metrics != nullptr) {
        record_metrics(report, *config.metrics);
    }
    return report;
}

CatalogReport run_catalog(const Catalog& catalog, const BundlingPolicy& policy,
                          const CatalogEngineConfig& config) {
    return run_catalog_plan(catalog, policy.assign(catalog), config);
}

}  // namespace swarmavail::catalog
