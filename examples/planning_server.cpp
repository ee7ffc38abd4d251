// The availability-planning daemon (DESIGN.md §15).
//
// Serves the frame protocol on a loopback TCP port: PING, EVAL (point
// evaluation of the closed-form models), PLAN (inverse planning for K, u,
// or r), REFINE (on-demand catalog simulation, cached by canonical
// config), and STATS (Prometheus text exposition). Runs until SIGTERM or
// SIGINT, then drains gracefully: stops accepting, finishes every queued
// request, flushes the --prom-out exposition, exits 0.
//
// Usage:
//   planning_server [--port P] [--port-file FILE] [--threads T]
//                   [--max-inflight N] [--catalog N ALPHA BUDGET]
//                   [--prom-out FILE]
//                   [--spans] [--span-out FILE] [--slow-ms MS]
//                   [--slow-log FILE] [--span-ring N]
//
// --port 0 (default) binds an ephemeral port; --port-file writes the bound
// port as one decimal line once the server is listening, which is how
// scripts connect race-free. --catalog sets the default REFINE catalog
// (files, Zipf exponent, partitioned publisher budget r) that requests may
// override field by field.
//
// Span tracing (serve/span.hpp): --spans turns request-lifecycle spans on
// (--span-out drains every ring to a JSONL file at shutdown and implies
// --spans, as do the other span flags); --slow-ms M writes the complete
// stage breakdown of any request slower than M milliseconds end-to-end to
// the --slow-log file (stderr-less, JSONL) as it finishes; --span-ring
// sets the records retained per thread ring. All five are ignored in
// trace-off builds (SWARMAVAIL_OBSERVE_DISABLED).
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "serve/server.hpp"

namespace {

using swarmavail::serve::PlanningServer;
using swarmavail::serve::ServerConfig;

[[noreturn]] void usage_error(std::string_view message) {
    std::cerr << "planning_server: " << message << "\n"
              << "usage: planning_server [--port P] [--port-file FILE] "
                 "[--threads T] [--max-inflight N]\n"
              << "                       [--catalog N ALPHA BUDGET] "
                 "[--prom-out FILE]\n"
              << "                       [--spans] [--span-out FILE] "
                 "[--slow-ms MS] [--slow-log FILE] [--span-ring N]\n";
    std::exit(2);
}

const char* next_value(int argc, char** argv, int& i, std::string_view flag) {
    if (i + 1 >= argc) {
        usage_error(std::string{flag} + " needs a value");
    }
    return argv[++i];
}

ServerConfig parse_options(int argc, char** argv, std::string& port_file) {
    ServerConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--port") {
            const long port = std::stol(next_value(argc, argv, i, arg));
            if (port < 0 || port > 65535) {
                usage_error("--port must be in [0, 65535]");
            }
            config.port = static_cast<std::uint16_t>(port);
        } else if (arg == "--port-file") {
            port_file = next_value(argc, argv, i, arg);
        } else if (arg == "--threads") {
            const long threads = std::stol(next_value(argc, argv, i, arg));
            if (threads < 1) {
                usage_error("--threads must be >= 1");
            }
            config.threads = static_cast<std::size_t>(threads);
        } else if (arg == "--max-inflight") {
            const long inflight = std::stol(next_value(argc, argv, i, arg));
            if (inflight < 1) {
                usage_error("--max-inflight must be >= 1");
            }
            config.max_inflight = static_cast<std::size_t>(inflight);
        } else if (arg == "--catalog") {
            if (i + 3 >= argc) {
                usage_error("--catalog needs N ALPHA BUDGET");
            }
            auto& catalog = config.router.policy.default_catalog;
            const long files = std::stol(argv[++i]);
            if (files < 1) {
                usage_error("--catalog N must be >= 1");
            }
            catalog.num_files = static_cast<std::size_t>(files);
            catalog.zipf_exponent = std::stod(argv[++i]);
            catalog.publisher_arrival_rate = std::stod(argv[++i]);
            if (catalog.zipf_exponent < 0.0 ||
                catalog.publisher_arrival_rate <= 0.0) {
                usage_error("--catalog wants ALPHA >= 0 and BUDGET > 0");
            }
        } else if (arg == "--prom-out") {
            config.prom_out = next_value(argc, argv, i, arg);
        } else if (arg == "--spans") {
            config.spans = true;
        } else if (arg == "--span-out") {
            config.span_out = next_value(argc, argv, i, arg);
        } else if (arg == "--slow-ms") {
            const double ms = std::stod(next_value(argc, argv, i, arg));
            if (ms <= 0.0) {
                usage_error("--slow-ms must be > 0");
            }
            config.slow_query_seconds = ms / 1000.0;
        } else if (arg == "--slow-log") {
            config.slow_query_log = next_value(argc, argv, i, arg);
        } else if (arg == "--span-ring") {
            const long ring = std::stol(next_value(argc, argv, i, arg));
            if (ring < 1) {
                usage_error("--span-ring must be >= 1");
            }
            config.span_ring_capacity = static_cast<std::size_t>(ring);
        } else if (arg == "--help" || arg == "-h") {
            usage_error("usage");
        } else {
            usage_error("unknown flag " + std::string{arg});
        }
    }
    return config;
}

PlanningServer* g_server = nullptr;

// Async-signal-safe by construction: request_stop only flips an atomic
// and writes to self-pipes.
void handle_signal(int) {
    if (g_server != nullptr) {
        g_server->request_stop();
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string port_file;
    const ServerConfig config = parse_options(argc, argv, port_file);

    PlanningServer server(config);
    try {
        server.start();
    } catch (const std::exception& e) {
        std::cerr << "planning_server: " << e.what() << "\n";
        return 1;
    }

    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);

    if (!port_file.empty()) {
        std::ofstream out(port_file);
        out << server.port() << "\n";
        if (!out) {
            std::cerr << "planning_server: cannot write " << port_file << "\n";
            server.stop();
            return 1;
        }
    }
    std::cout << "planning_server: listening on 127.0.0.1:" << server.port()
              << " with " << config.threads << " worker thread(s)\n"
              << std::flush;

    server.wait_until_stop_requested();
    std::cout << "planning_server: draining\n" << std::flush;
    server.stop();
    std::cout << "planning_server: drained cleanly\n";
    return 0;
}
