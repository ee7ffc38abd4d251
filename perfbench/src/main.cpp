// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>]
//   perfbench --record-digests <first-seed> <last-seed>   (digests.tsv lines)
//   perfbench --cold-costs <seed>          (model-cold per-request costs)
//
// The last line of standard output is the result object; the lines before
// it start with '#' and carry the host metadata and the checks' details.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every workload prints all of these with trace off ...
const std::map<std::string, const char*> kEndToEnd = {
    {"setup_s", "s"},       {"lat_p50_ms", "ms"},  {"lat_tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

/// ... and all of these with trace on; a layer the workload does not
/// exercise reads 0.
const std::map<std::string, const char*> kPerLayer = {
    {"serve.route_us_p50", "us"},
    {"serve.parse_us_p50", "us"},
    {"serve.key_us_p50", "us"},
    {"serve.wire_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.write_us_p99", "us"},
    {"serve.model_cache.hit_ratio", "ratio"},
    {"serve.model_cache.evictions", "count"},
    {"serve.overloaded", "count"},
    {"serve.allocs_per_request", "count"},
    {"model.eval_us_p50", "us"},
    {"model.eval_us_p99", "us"},
    {"model.eval_share", "ratio"},
    {"model.plan_evaluations", "count"},
    {"queueing.terms", "count"},
    {"queueing.unconverged", "count"},
    {"catalog.build_ms", "ms"},
    {"catalog.run_ms", "ms"},
    {"catalog.rss_bytes_per_file", "B"},
    {"catalog.allocs_per_swarm", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.event_dispatch_s", "s"},
    {"swarm.events", "count"},
    {"swarm.events_per_s", "1/s"},
    {"swarm.allocs_per_event", "count"},
    {"swarm.piece_transfer_s", "s"},
    {"swarm.choke_pump_s", "s"},
    {"harness.error_rate", "ratio"},
    {"harness.trace_overhead_pct", "%"},
};

std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> load_digests() {
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> out;
    std::ifstream in(PERFBENCH_DIGESTS_FILE);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string workload;
        std::uint64_t seed = 0;
        std::string hex;
        if (fields >> workload >> seed >> hex) {
            out[{workload, seed}] = std::strtoull(hex.c_str(), nullptr, 16);
        }
    }
    return out;
}

std::string hex(std::uint64_t value) {
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

double status_kb(const char* field) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0) {
            return std::strtod(line.c_str() + len, nullptr);
        }
    }
    return 0.0;
}

int usage() {
    std::cerr << "usage: perfbench --workload <model-cold|catalog-sweep|swarm-fig6>"
                 " --seed <n> --seconds <s> --trace <0|1> [--commit <id>]\n"
                 "       perfbench --record-digests <first-seed> <last-seed>\n"
                 "       perfbench --cold-costs <seed>\n";
    return 2;
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
    if (!ok) {
        correct = false;
        info["check failed: " + what] = "";
    }
}

std::optional<std::uint64_t> recorded_digest(const std::string& workload, std::uint64_t seed) {
    static const auto digests = load_digests();
    const auto it = digests.find({workload, seed});
    if (it == digests.end()) {
        return std::nullopt;
    }
    return it->second;
}

void check_recorded(Report& report, const std::string& workload, std::uint64_t seed,
                    std::uint64_t digest) {
    const std::optional<std::uint64_t> recorded = recorded_digest(workload, seed);
    if (!recorded) {
        report.info["recorded_digest"] = "none for this seed (computed " + hex(digest) + ")";
        return;
    }
    report.info["recorded_digest"] = hex(*recorded) + (digest == *recorded ? " matched" : " DIFFERS");
    report.check(digest == *recorded, workload + ": digest " + hex(digest) +
                                          " differs from the recorded " + hex(*recorded));
}

double peak_rss_bytes() { return status_kb("VmHWM:") * 1024.0; }
double current_rss_bytes() { return status_kb("VmRSS:") * 1024.0; }

std::size_t host_cores() {
    const unsigned cores = std::thread::hardware_concurrency();
    return cores == 0 ? 1 : cores;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    if (argc >= 4 && std::strcmp(argv[1], "--record-digests") == 0) {
        const std::uint64_t first = std::strtoull(argv[2], nullptr, 10);
        const std::uint64_t last = std::strtoull(argv[3], nullptr, 10);
        for (std::uint64_t seed = first; seed <= last; ++seed) {
            std::cout << "catalog-sweep\t" << seed << "\t" << hex(catalog_digest(seed)) << "\n"
                      << "swarm-fig6\t" << seed << "\t" << hex(swarm_digest(seed)) << "\n"
                      << std::flush;
        }
        return 0;
    }
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) {
            return usage();
        }
        args[argv[i] + 2] = argv[i + 1];
    }
    if (args.count("cold-costs") != 0) {
        print_cold_costs(std::strtoull(args["cold-costs"].c_str(), nullptr, 10));
        return 0;
    }
    if (args.count("workload") == 0 || args.count("seed") == 0 || args.count("seconds") == 0 ||
        args.count("trace") == 0) {
        return usage();
    }
    Options options;
    options.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    options.seconds = std::strtod(args["seconds"].c_str(), nullptr);
    options.trace = args["trace"] == "1";
    const std::string workload = args["workload"];
    if (!(options.seconds > 0.0)) {
        return usage();
    }

    std::cout << "# meta {\"workload\":\"" << workload << "\",\"seed\":" << options.seed
              << ",\"seconds\":" << options.seconds << ",\"trace\":" << options.trace
              << ",\"nproc\":" << host_cores() << ",\"compiler\":\"gcc " << __VERSION__
              << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"commit\":\""
              << (args.count("commit") != 0 ? args["commit"] : "unknown") << "\"}\n"
              << std::flush;

    Report report;
    try {
        if (workload == "model-cold") {
            report = run_model_cold(options);
        } else if (workload == "catalog-sweep") {
            report = run_catalog_sweep(options);
        } else if (workload == "swarm-fig6") {
            report = run_swarm_fig6(options);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
        return 1;
    }

    const auto& wanted = options.trace ? kPerLayer : kEndToEnd;
    std::map<std::string, Metric> metrics;
    for (const auto& [name, unit] : wanted) {
        const auto it = report.metrics.find(name);
        if (it == report.metrics.end() && !options.trace) {
            std::cerr << "perfbench: " << workload << " did not measure " << name << "\n";
            return 1;
        }
        metrics[name] = it == report.metrics.end() ? Metric{0.0, unit} : it->second;
    }
    for (const auto& [key, value] : report.info) {
        std::cout << "# " << key << (value.empty() ? "" : ": ") << value << "\n";
    }
    std::cout << result_line(report.correct, report.attempted, report.failed, metrics)
              << std::endl;
    return report.correct ? 0 : 1;
}
