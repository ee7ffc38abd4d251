#include "catalog/report.hpp"

#include <algorithm>
#include <ostream>

#include "sim/fingerprint.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace swarmavail::catalog {
namespace {

/// Serializes a StreamingStats as a JSON object. count/mean/variance/
/// min/max fully determine the accumulator state, so equal serializations
/// imply bit-identical statistics.
void write_stats(std::ostream& os, const StreamingStats& stats) {
    os << "{\"count\":" << stats.count()
       << ",\"mean\":" << format_double_exact(stats.mean())
       << ",\"variance\":" << format_double_exact(stats.variance())
       << ",\"min\":" << format_double_exact(stats.min())
       << ",\"max\":" << format_double_exact(stats.max()) << "}";
}

}  // namespace

void record_metrics(const CatalogReport& report, MetricsRegistry& metrics) {
    metrics.counter("catalog.swarms").add(report.swarms.size());
    metrics.counter("catalog.files").add(report.files.size());
    metrics.counter("catalog.arrivals").add(report.arrivals);
    metrics.counter("catalog.served").add(report.served);
    metrics.counter("catalog.lost").add(report.lost);
    metrics.counter("catalog.stranded").add(report.stranded);
    metrics.counter("catalog.publisher_up_transitions")
        .add(report.publisher_up_transitions);

    auto& unavail_hist =
        metrics.histogram("catalog.swarm_unavailability", 0.0, 1.0, 20);
    auto& online_hist =
        metrics.histogram("catalog.swarm_publisher_online_fraction", 0.0, 1.0, 20);
    auto& download_hist = metrics.histogram("catalog.swarm_download_time_s", 1.0,
                                            1048576.0, 20, HistogramScale::kLog2);
    for (const SwarmOutcome& swarm : report.swarms) {
        unavail_hist.add(swarm.result.arrival_unavailability);
        online_hist.add(swarm.result.publisher_online_fraction);
        if (swarm.result.download_times.count() > 0) {
            download_hist.add(swarm.result.download_times.mean());
        }
    }

    metrics.gauge("catalog.demand_weighted_unavailability")
        .set(report.demand_weighted_unavailability);
    metrics.gauge("catalog.mean_download_time_s").set(report.mean_download_time);
    metrics.gauge("catalog.expected_publisher_load")
        .set(report.expected_publisher_load);
    // Gauges hold doubles, which lose integer precision past 2^53: export
    // the 64-bit fingerprint as exact 32-bit halves.
    metrics.gauge("catalog.fingerprint_lo")
        .set(static_cast<double>(report.fingerprint & 0xffffffffULL));
    metrics.gauge("catalog.fingerprint_hi")
        .set(static_cast<double>(report.fingerprint >> 32U));
}

void write_json(const CatalogReport& report, std::ostream& os) {
    os << "{\"arrivals\":" << report.arrivals << ",\"served\":" << report.served
       << ",\"lost\":" << report.lost << ",\"stranded\":" << report.stranded
       << ",\"swarms_planned\":" << report.swarms_planned
       << ",\"stopped_early\":" << (report.stopped_early ? "true" : "false")
       << ",\"publisher_up_transitions\":" << report.publisher_up_transitions
       << ",\"demand_weighted_unavailability\":"
       << format_double_exact(report.demand_weighted_unavailability)
       << ",\"mean_download_time\":" << format_double_exact(report.mean_download_time)
       << ",\"demand_weighted_unavailable_time\":"
       << format_double_exact(report.demand_weighted_unavailable_time)
       << ",\"mean_publisher_online_fraction\":"
       << format_double_exact(report.mean_publisher_online_fraction)
       << ",\"expected_publisher_load\":"
       << format_double_exact(report.expected_publisher_load)
       << ",\"fingerprint\":" << report.fingerprint;

    os << ",\"swarms\":[";
    for (std::size_t i = 0; i < report.swarms.size(); ++i) {
        const SwarmOutcome& swarm = report.swarms[i];
        const sim::AvailabilitySimResult& r = swarm.result;
        os << (i == 0 ? "" : ",") << "{\"swarm\":" << swarm.swarm << ",\"files\":[";
        for (std::size_t j = 0; j < swarm.files.size(); ++j) {
            os << (j == 0 ? "" : ",") << swarm.files[j];
        }
        os << "],\"lambda\":" << format_double_exact(swarm.params.peer_arrival_rate)
           << ",\"size\":" << format_double_exact(swarm.params.content_size)
           << ",\"publisher_rate\":"
           << format_double_exact(swarm.params.publisher_arrival_rate)
           << ",\"arrivals\":" << r.arrivals << ",\"served\":" << r.served
           << ",\"lost\":" << r.lost << ",\"stranded\":" << r.stranded
           << ",\"arrival_unavailability\":"
           << format_double_exact(r.arrival_unavailability)
           << ",\"unavailable_time_fraction\":"
           << format_double_exact(r.unavailable_time_fraction)
           << ",\"publisher_up_transitions\":" << r.publisher_up_transitions
           << ",\"publisher_online_fraction\":"
           << format_double_exact(r.publisher_online_fraction)
           << ",\"fingerprint\":" << r.fingerprint
           << ",\"fingerprint_events\":" << r.fingerprint_events
           << ",\"busy_periods\":";
        write_stats(os, r.busy_periods);
        os << ",\"idle_periods\":";
        write_stats(os, r.idle_periods);
        os << ",\"download_times\":";
        write_stats(os, r.download_times);
        os << ",\"waiting_times\":";
        write_stats(os, r.waiting_times);
        os << "}";
    }
    os << "]";

    os << ",\"files\":[";
    for (std::size_t i = 0; i < report.files.size(); ++i) {
        const FileOutcome& file = report.files[i];
        os << (i == 0 ? "" : ",") << "{\"file\":" << file.file << ",\"lambda\":"
           << format_double_exact(file.demand_rate) << ",\"swarm\":" << file.swarm
           << ",\"bundle_size\":" << file.bundle_size
           << ",\"arrival_unavailability\":"
           << format_double_exact(file.arrival_unavailability)
           << ",\"unavailable_time_fraction\":"
           << format_double_exact(file.unavailable_time_fraction)
           << ",\"mean_download_time\":"
           << format_double_exact(file.mean_download_time) << "}";
    }
    os << "]}";
}

void write_summary(const CatalogReport& report, std::ostream& os) {
    os << "catalog: " << report.files.size() << " files in " << report.swarms.size()
       << " swarms";
    if (report.stopped_early) {
        os << " (stopped early: " << report.swarms.size() << " of "
           << report.swarms_planned << " planned swarms ran)";
    }
    os << "\n"
       << "  arrivals " << report.arrivals << ", served " << report.served
       << ", lost " << report.lost << ", stranded " << report.stranded << "\n"
       << "  request unavailability " << format_double(report.demand_weighted_unavailability, 4)
       << ", mean download time " << format_double(report.mean_download_time, 6)
       << " s\n"
       << "  publisher reseedings " << report.publisher_up_transitions
       << ", mean online fraction "
       << format_double(report.mean_publisher_online_fraction, 4)
       << ", offered publisher load "
       << format_double(report.expected_publisher_load, 4) << "\n"
       << "  fingerprint " << sim::fingerprint_hex(report.fingerprint) << "\n";

    TableWriter table{{"file", "lambda", "swarm", "K", "unavail", "E[T] (s)"}};
    const std::size_t n = report.files.size();
    const std::size_t head = std::min<std::size_t>(n, 5);
    const std::size_t tail = n > head + 5 ? 5 : n - head;
    const auto add_file = [&table](const FileOutcome& file) {
        table.add_row({std::to_string(file.file), format_double(file.demand_rate, 4),
                       std::to_string(file.swarm), std::to_string(file.bundle_size),
                       format_double(file.arrival_unavailability, 4),
                       format_double(file.mean_download_time, 6)});
    };
    for (std::size_t i = 0; i < head; ++i) {
        add_file(report.files[i]);
    }
    if (head + tail < n) {
        table.add_row({"...", "...", "...", "...", "...", "..."});
    }
    for (std::size_t i = n - tail; i < n; ++i) {
        add_file(report.files[i]);
    }
    table.print(os);
}

}  // namespace swarmavail::catalog
