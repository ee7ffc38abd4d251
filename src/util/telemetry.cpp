#include "util/telemetry.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace swarmavail::telemetry {

// ---------------------------------------------------------------------------
// ConvergenceTracker

void ConvergenceTracker::observe(std::string_view metric, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Slot& slot : slots_) {
        if (slot.name == metric) {
            slot.stats.add(value);
            slot.last = value;
            return;
        }
    }
    // Linear scan on registration: the tracker holds a handful of run-level
    // estimates, not a metric namespace.
    Slot slot;
    slot.name = std::string{metric};
    slot.stats.add(value);
    slot.last = value;
    slots_.push_back(std::move(slot));
}

std::vector<TrackedStat> ConvergenceTracker::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TrackedStat> out;
    out.reserve(slots_.size());
    for (const Slot& slot : slots_) {
        TrackedStat stat;
        stat.name = slot.name;
        stat.count = slot.stats.count();
        stat.mean = slot.stats.mean();
        stat.ci95_halfwidth = slot.stats.ci95_halfwidth();
        stat.min = slot.stats.min();
        stat.max = slot.stats.max();
        stat.last = slot.last;
        out.push_back(std::move(stat));
    }
    return out;
}

// ---------------------------------------------------------------------------
// RSS

bool read_process_rss(std::uint64_t& rss_bytes, std::uint64_t& peak_rss_bytes) {
    rss_bytes = 0;
    peak_rss_bytes = 0;
#if defined(__linux__)
    std::ifstream status("/proc/self/status");
    if (!status) {
        return false;
    }
    std::string line;
    while (std::getline(status, line)) {
        std::uint64_t* target = nullptr;
        std::size_t prefix = 0;
        if (line.rfind("VmRSS:", 0) == 0) {
            target = &rss_bytes;
            prefix = 6;
        } else if (line.rfind("VmHWM:", 0) == 0) {
            target = &peak_rss_bytes;
            prefix = 6;
        }
        if (target == nullptr) {
            continue;
        }
        // "VmRSS:     1234 kB"
        std::uint64_t kb = 0;
        bool any = false;
        for (std::size_t i = prefix; i < line.size(); ++i) {
            const char c = line[i];
            if (c >= '0' && c <= '9') {
                kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
                any = true;
            } else if (any) {
                break;
            }
        }
        *target = kb * 1024;
    }
    return rss_bytes > 0 || peak_rss_bytes > 0;
#else
    return false;
#endif
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

void write_tracked_json(const TrackedStat& stat, std::ostream& os) {
    os << "{\"name\":\"" << json_escape(stat.name) << "\",\"count\":" << stat.count
       << ",\"mean\":" << format_double_exact(stat.mean)
       << ",\"ci95\":" << format_double_exact(stat.ci95_halfwidth)
       << ",\"min\":" << format_double_exact(stat.min)
       << ",\"max\":" << format_double_exact(stat.max)
       << ",\"last\":" << format_double_exact(stat.last) << "}";
}

}  // namespace

void JsonlTelemetryExporter::export_snapshot(const TelemetrySnapshot& s) {
    os_ << "{\"seq\":" << s.sequence
        << ",\"wall_s\":" << format_double_exact(s.wall_time_s)
        << ",\"final\":" << (s.final_snapshot ? "true" : "false")
        << ",\"replications_total\":" << s.replications_total
        << ",\"replications_completed\":" << s.replications_completed
        << ",\"swarms_total\":" << s.swarms_total
        << ",\"swarms_completed\":" << s.swarms_completed
        << ",\"events_dispatched\":" << s.events_dispatched
        << ",\"events_per_s\":" << format_double_exact(s.events_per_s)
        << ",\"sim_time_advanced\":" << format_double_exact(s.sim_time_advanced)
        << ",\"sim_time_target\":" << format_double_exact(s.sim_time_target)
        << ",\"sim_time_rate\":" << format_double_exact(s.sim_time_rate)
        << ",\"queue_depth\":" << format_double_exact(s.queue_depth)
        << ",\"progress\":" << format_double_exact(s.progress)
        << ",\"eta_s\":" << format_double_exact(s.eta_s)
        << ",\"rss_bytes\":" << s.rss_bytes
        << ",\"peak_rss_bytes\":" << s.peak_rss_bytes
        << ",\"fingerprint_xor\":" << s.fingerprint_xor << ",\"tracked\":[";
    for (std::size_t i = 0; i < s.tracked.size(); ++i) {
        if (i > 0) {
            os_ << ',';
        }
        write_tracked_json(s.tracked[i], os_);
    }
    os_ << "]}\n";
    os_.flush();  // tailers must see whole lines as they happen
}

MemoryTelemetryExporter::MemoryTelemetryExporter(std::size_t capacity)
    : capacity_(capacity) {
    require(capacity >= 1, "MemoryTelemetryExporter: capacity must be >= 1");
}

void MemoryTelemetryExporter::export_snapshot(const TelemetrySnapshot& snapshot) {
    if (snapshots_.size() >= capacity_) {
        snapshots_.erase(snapshots_.begin());
        ++dropped_;
    }
    snapshots_.push_back(snapshot);
}

namespace {

/// Sanitizes a tracked-metric name into a Prometheus label value (the
/// exposition's one quoting context): backslash, quote, newline escaped.
std::string prometheus_label_value(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        if (c == '\\' || c == '"') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void prom_sample(std::ostream& os, const char* name, const char* help,
                 const char* type, double value) {
    os << "# HELP " << name << ' ' << help << '\n'
       << "# TYPE " << name << ' ' << type << '\n'
       << name << ' ' << format_double_exact(value) << '\n';
}

}  // namespace

void write_prometheus(const TelemetrySnapshot& s, std::ostream& os) {
    prom_sample(os, "swarmavail_snapshot_sequence",
                "Telemetry snapshot sequence number.", "counter",
                static_cast<double>(s.sequence));
    prom_sample(os, "swarmavail_wall_time_seconds",
                "Wall-clock seconds since the telemetry session started.",
                "counter", s.wall_time_s);
    prom_sample(os, "swarmavail_replications_total",
                "Replications the run intends to execute.", "gauge",
                static_cast<double>(s.replications_total));
    prom_sample(os, "swarmavail_replications_completed",
                "Replications completed so far.", "counter",
                static_cast<double>(s.replications_completed));
    prom_sample(os, "swarmavail_swarms_total",
                "Catalog swarms the run intends to simulate.", "gauge",
                static_cast<double>(s.swarms_total));
    prom_sample(os, "swarmavail_swarms_completed", "Catalog swarms completed so far.",
                "counter", static_cast<double>(s.swarms_completed));
    prom_sample(os, "swarmavail_events_dispatched_total",
                "Simulation events dispatched so far.", "counter",
                static_cast<double>(s.events_dispatched));
    prom_sample(os, "swarmavail_events_per_second",
                "Event dispatch rate since the previous snapshot.", "gauge",
                s.events_per_s);
    prom_sample(os, "swarmavail_sim_time_advanced_seconds",
                "Completed simulated seconds across work units.", "counter",
                s.sim_time_advanced);
    prom_sample(os, "swarmavail_sim_time_target_seconds",
                "Total simulated seconds the run intends to execute.", "gauge",
                s.sim_time_target);
    prom_sample(os, "swarmavail_sim_time_rate",
                "Simulated seconds per wall second since the previous snapshot.",
                "gauge", s.sim_time_rate);
    prom_sample(os, "swarmavail_queue_depth", "Pending work items (see RunCounters).",
                "gauge", s.queue_depth);
    prom_sample(os, "swarmavail_progress_ratio", "Completed fraction of the run.",
                "gauge", s.progress);
    prom_sample(os, "swarmavail_eta_seconds",
                "Estimated remaining wall seconds (negative if unknown).", "gauge",
                s.eta_s);
    prom_sample(os, "swarmavail_resident_memory_bytes", "Resident set size.", "gauge",
                static_cast<double>(s.rss_bytes));
    prom_sample(os, "swarmavail_peak_resident_memory_bytes", "Peak resident set size.",
                "gauge", static_cast<double>(s.peak_rss_bytes));
    // The 64-bit fingerprint XOR is split into 32-bit halves: Prometheus
    // samples are doubles, which lose integer precision past 2^53.
    prom_sample(os, "swarmavail_fingerprint_xor_lo",
                "Low 32 bits of the completed-work fingerprint XOR.", "gauge",
                static_cast<double>(s.fingerprint_xor & 0xffffffffULL));
    prom_sample(os, "swarmavail_fingerprint_xor_hi",
                "High 32 bits of the completed-work fingerprint XOR.", "gauge",
                static_cast<double>(s.fingerprint_xor >> 32U));

    if (!s.tracked.empty()) {
        os << "# HELP swarmavail_tracked_mean Streaming mean of a tracked estimate.\n"
              "# TYPE swarmavail_tracked_mean gauge\n";
        for (const TrackedStat& stat : s.tracked) {
            os << "swarmavail_tracked_mean{metric=\""
               << prometheus_label_value(stat.name)
               << "\"} " << format_double_exact(stat.mean) << '\n';
        }
        os << "# HELP swarmavail_tracked_ci95_halfwidth 95% confidence half-width "
              "of a tracked estimate.\n"
              "# TYPE swarmavail_tracked_ci95_halfwidth gauge\n";
        for (const TrackedStat& stat : s.tracked) {
            os << "swarmavail_tracked_ci95_halfwidth{metric=\""
               << prometheus_label_value(stat.name)
               << "\"} " << format_double_exact(stat.ci95_halfwidth) << '\n';
        }
        os << "# HELP swarmavail_tracked_observations Observations of a tracked "
              "estimate.\n"
              "# TYPE swarmavail_tracked_observations counter\n";
        for (const TrackedStat& stat : s.tracked) {
            os << "swarmavail_tracked_observations{metric=\""
               << prometheus_label_value(stat.name)
               << "\"} " << stat.count << '\n';
        }
    }
}

void PrometheusTextExporter::export_snapshot(const TelemetrySnapshot& snapshot) {
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os) {
            return;  // telemetry must never take the run down
        }
        write_prometheus(snapshot, os);
    }
    std::rename(tmp.c_str(), path_.c_str());  // atomic on POSIX
}

// ---------------------------------------------------------------------------
// Prometheus format validation

namespace {

bool legal_metric_name(std::string_view name) {
    if (name.empty()) {
        return false;
    }
    const auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    };
    if (!head(name[0])) {
        return false;
    }
    for (const char c : name.substr(1)) {
        if (!head(c) && !(c >= '0' && c <= '9')) {
            return false;
        }
    }
    return true;
}

bool is_prometheus_number(std::string_view text) {
    if (text.empty()) {
        return false;
    }
    if (text == "+Inf" || text == "-Inf" || text == "NaN") {
        return true;
    }
    char* end = nullptr;
    const std::string owned{text};
    (void)std::strtod(owned.c_str(), &end);
    return end == owned.c_str() + owned.size();
}

}  // namespace

bool validate_prometheus_text(std::string_view text, std::string* error) {
    const auto fail = [error](std::size_t line_no, const std::string& why) {
        if (error != nullptr) {
            *error = "line " + std::to_string(line_no) + ": " + why;
        }
        return false;
    };
    if (text.empty()) {
        return fail(0, "empty exposition");
    }
    if (text.back() != '\n') {
        return fail(0, "exposition must end with a newline");
    }

    std::size_t line_no = 0;
    std::size_t pos = 0;
    std::vector<std::string> typed;  // names with a seen TYPE line
    while (pos < text.size()) {
        ++line_no;
        const std::size_t eol = text.find('\n', pos);
        std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) {
            continue;
        }
        if (line[0] == '#') {
            // "# HELP name text" / "# TYPE name kind" / arbitrary comment.
            std::istringstream fields{std::string{line}};
            std::string hash;
            std::string keyword;
            std::string name;
            fields >> hash >> keyword >> name;
            if (keyword == "TYPE") {
                std::string kind;
                fields >> kind;
                if (!legal_metric_name(name)) {
                    return fail(line_no, "illegal metric name in TYPE: " + name);
                }
                if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
                    kind != "summary" && kind != "untyped") {
                    return fail(line_no, "unknown TYPE kind: " + kind);
                }
                typed.push_back(name);
            } else if (keyword == "HELP" && !legal_metric_name(name)) {
                return fail(line_no, "illegal metric name in HELP: " + name);
            }
            continue;
        }
        // Sample line: name[{labels}] value
        std::size_t name_end = line.find_first_of("{ ");
        if (name_end == std::string_view::npos) {
            return fail(line_no, "sample line without a value");
        }
        const std::string_view name = line.substr(0, name_end);
        if (!legal_metric_name(name)) {
            return fail(line_no, "illegal metric name: " + std::string{name});
        }
        std::string_view rest = line.substr(name_end);
        if (!rest.empty() && rest[0] == '{') {
            // Scan the label block respecting quoted values.
            std::size_t i = 1;
            bool closed = false;
            while (i < rest.size()) {
                if (rest[i] == '"') {
                    ++i;
                    while (i < rest.size() && rest[i] != '"') {
                        i += rest[i] == '\\' ? 2 : 1;
                    }
                    if (i >= rest.size()) {
                        return fail(line_no, "unterminated label value");
                    }
                    ++i;
                } else if (rest[i] == '}') {
                    closed = true;
                    ++i;
                    break;
                } else {
                    ++i;
                }
            }
            if (!closed) {
                return fail(line_no, "unterminated label block");
            }
            rest = rest.substr(i);
        }
        if (rest.empty() || rest[0] != ' ') {
            return fail(line_no, "missing space before value");
        }
        std::string_view value = rest.substr(1);
        // An optional trailing timestamp (integer) is allowed by the format.
        const std::size_t space = value.find(' ');
        if (space != std::string_view::npos) {
            value = value.substr(0, space);
        }
        if (!is_prometheus_number(value)) {
            return fail(line_no, "malformed sample value: " + std::string{value});
        }
    }
    if (typed.empty()) {
        return fail(0, "no TYPE lines found");
    }
    return true;
}

// ---------------------------------------------------------------------------
// JSONL snapshot reader

std::vector<TelemetrySnapshot> read_telemetry_jsonl(std::istream& in) {
    std::vector<TelemetrySnapshot> out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) {
            continue;
        }
        JsonLineScanner scan(line, line_no, "telemetry jsonl line ");
        TelemetrySnapshot s;
        scan.expect('{');
        scan.expect_key("seq");
        s.sequence = scan.read_u64();
        scan.expect(',');
        scan.expect_key("wall_s");
        s.wall_time_s = scan.read_double();
        scan.expect(',');
        scan.expect_key("final");
        s.final_snapshot = scan.read_bool();
        scan.expect(',');
        scan.expect_key("replications_total");
        s.replications_total = scan.read_u64();
        scan.expect(',');
        scan.expect_key("replications_completed");
        s.replications_completed = scan.read_u64();
        scan.expect(',');
        scan.expect_key("swarms_total");
        s.swarms_total = scan.read_u64();
        scan.expect(',');
        scan.expect_key("swarms_completed");
        s.swarms_completed = scan.read_u64();
        scan.expect(',');
        scan.expect_key("events_dispatched");
        s.events_dispatched = scan.read_u64();
        scan.expect(',');
        scan.expect_key("events_per_s");
        s.events_per_s = scan.read_double();
        scan.expect(',');
        scan.expect_key("sim_time_advanced");
        s.sim_time_advanced = scan.read_double();
        scan.expect(',');
        scan.expect_key("sim_time_target");
        s.sim_time_target = scan.read_double();
        scan.expect(',');
        scan.expect_key("sim_time_rate");
        s.sim_time_rate = scan.read_double();
        scan.expect(',');
        scan.expect_key("queue_depth");
        s.queue_depth = scan.read_double();
        scan.expect(',');
        scan.expect_key("progress");
        s.progress = scan.read_double();
        scan.expect(',');
        scan.expect_key("eta_s");
        s.eta_s = scan.read_double();
        scan.expect(',');
        scan.expect_key("rss_bytes");
        s.rss_bytes = scan.read_u64();
        scan.expect(',');
        scan.expect_key("peak_rss_bytes");
        s.peak_rss_bytes = scan.read_u64();
        scan.expect(',');
        if (scan.try_key("fingerprint_xor")) {
            s.fingerprint_xor = scan.read_u64();
            scan.expect(',');
        }
        scan.expect_key("tracked");
        scan.expect('[');
        if (!scan.peek(']')) {
            for (;;) {
                TrackedStat stat;
                scan.expect('{');
                scan.expect_key("name");
                stat.name = scan.read_string();
                scan.expect(',');
                scan.expect_key("count");
                stat.count = scan.read_u64();
                scan.expect(',');
                scan.expect_key("mean");
                stat.mean = scan.read_double();
                scan.expect(',');
                scan.expect_key("ci95");
                stat.ci95_halfwidth = scan.read_double();
                scan.expect(',');
                scan.expect_key("min");
                stat.min = scan.read_double();
                scan.expect(',');
                scan.expect_key("max");
                stat.max = scan.read_double();
                scan.expect(',');
                scan.expect_key("last");
                stat.last = scan.read_double();
                scan.expect('}');
                s.tracked.push_back(std::move(stat));
                if (scan.peek(']')) {
                    break;
                }
                scan.expect(',');
            }
        }
        scan.expect(']');
        scan.expect('}');
        scan.expect_end();
        out.push_back(std::move(s));
    }
    return out;
}

// ---------------------------------------------------------------------------
// TelemetrySession

/// The background sampler: waits `interval_s` between snapshots on a
/// condition variable so stop() interrupts a sleep immediately.
struct TelemetrySession::Sampler {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable wake;
    bool stopping = false;
};

TelemetrySession::TelemetrySession(TelemetryConfig config)
    : config_(std::move(config)), started_at_(std::chrono::steady_clock::now()) {
    require(config_.interval_s > 0.0, "TelemetrySession: interval_s must be > 0");
    for (TelemetryExporter* exporter : config_.exporters) {
        require(exporter != nullptr, "TelemetrySession: null exporter");
    }
}

TelemetrySession::~TelemetrySession() { stop(); }

void TelemetrySession::start() {
    if (sampler_ != nullptr) {
        return;
    }
    started_at_ = std::chrono::steady_clock::now();
    sampler_ = std::make_unique<Sampler>();
    sampler_->thread = std::thread([this] {
        const auto interval = std::chrono::duration<double>(config_.interval_s);
        std::unique_lock<std::mutex> lock(sampler_->mutex);
        for (;;) {
            if (sampler_->wake.wait_for(lock, interval,
                                        [&] { return sampler_->stopping; })) {
                return;
            }
            lock.unlock();
            (void)snapshot_now(false);
            lock.lock();
        }
    });
}

void TelemetrySession::stop() {
    if (sampler_ != nullptr) {
        {
            const std::lock_guard<std::mutex> lock(sampler_->mutex);
            sampler_->stopping = true;
        }
        sampler_->wake.notify_all();
        sampler_->thread.join();
        sampler_.reset();
        (void)snapshot_now(true);
    }
    const std::lock_guard<std::mutex> lock(emit_mutex_);
    if (!finished_ && next_sequence_ > 0) {
        for (TelemetryExporter* exporter : config_.exporters) {
            exporter->finish();
        }
        finished_ = true;
    }
}

TelemetrySnapshot TelemetrySession::snapshot_now(bool final_snapshot) {
    const std::lock_guard<std::mutex> lock(emit_mutex_);
    TelemetrySnapshot s;
    s.sequence = next_sequence_++;
    s.final_snapshot = final_snapshot;
    s.wall_time_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  started_at_)
                        .count();
    const RunCounters& c = counters_;
    s.replications_total = c.replications_total.load(std::memory_order_relaxed);
    s.replications_completed = c.replications_completed.load(std::memory_order_relaxed);
    s.swarms_total = c.swarms_total.load(std::memory_order_relaxed);
    s.swarms_completed = c.swarms_completed.load(std::memory_order_relaxed);
    s.events_dispatched = c.events_dispatched.load(std::memory_order_relaxed);
    s.sim_time_advanced = c.sim_time_advanced.load(std::memory_order_relaxed);
    s.sim_time_target = c.sim_time_target.load(std::memory_order_relaxed);
    s.queue_depth = c.queue_depth.load(std::memory_order_relaxed);
    s.fingerprint_xor = c.fingerprint_xor.load(std::memory_order_relaxed);

    const double wall_delta = s.wall_time_s - prev_wall_s_;
    if (wall_delta > 0.0) {
        s.events_per_s =
            static_cast<double>(s.events_dispatched - prev_events_) / wall_delta;
        s.sim_time_rate = (s.sim_time_advanced - prev_sim_time_) / wall_delta;
    }
    prev_wall_s_ = s.wall_time_s;
    prev_events_ = s.events_dispatched;
    prev_sim_time_ = s.sim_time_advanced;

    // Progress: the most advanced of the defined completion fractions (the
    // counters describe the same run from different altitudes).
    double progress = 0.0;
    if (s.replications_total > 0) {
        progress = std::max(progress,
                            static_cast<double>(s.replications_completed) /
                                static_cast<double>(s.replications_total));
    }
    if (s.swarms_total > 0) {
        progress = std::max(progress, static_cast<double>(s.swarms_completed) /
                                          static_cast<double>(s.swarms_total));
    }
    if (s.sim_time_target > 0.0) {
        progress = std::max(progress, s.sim_time_advanced / s.sim_time_target);
    }
    s.progress = progress > 1.0 ? 1.0 : progress;
    if (s.progress > 0.0 && s.progress < 1.0 && s.wall_time_s > 0.0) {
        s.eta_s = s.wall_time_s * (1.0 - s.progress) / s.progress;
    } else if (s.progress >= 1.0) {
        s.eta_s = 0.0;
    }

    (void)read_process_rss(s.rss_bytes, s.peak_rss_bytes);
    s.tracked = tracker_.snapshot();

    for (TelemetryExporter* exporter : config_.exporters) {
        exporter->export_snapshot(s);
    }
    snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
    return s;
}

}  // namespace swarmavail::telemetry
