#include "serve/span.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

namespace swarmavail::serve {

namespace {

constexpr const char* kParseErrorPrefix = "span parse error at line ";

/// Reads an unsigned field stored in a 16-bit SpanRecord slot.
std::uint16_t read_u16(JsonLineScanner& scan, std::string_view field) {
    const std::uint64_t value = scan.read_u64();
    if (value > std::numeric_limits<std::uint16_t>::max()) {
        scan.fail(std::string(field) + " " + std::to_string(value) +
                  " does not fit in 16 bits");
    }
    return static_cast<std::uint16_t>(value);
}

}  // namespace

void NullSpanSink::write(const SpanRecord* records, std::size_t count) {
    static_cast<void>(records);
    static_cast<void>(count);
}

void MemorySpanSink::write(const SpanRecord* records, std::size_t count) {
    records_.insert(records_.end(), records, records + count);
}

void JsonlSpanSink::write(const SpanRecord* records, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        const SpanRecord& r = records[i];
        os_ << "{\"request\":" << r.request << ",\"conn\":" << r.connection
            << ",\"stage\":\"" << span_stage_name(static_cast<SpanStage>(r.stage))
            << "\",\"verb\":" << r.verb << ",\"lane\":" << r.lane
            << ",\"worker\":" << r.worker
            << ",\"t0\":" << format_double_exact(r.t_start)
            << ",\"t1\":" << format_double_exact(r.t_end)
            << ",\"bytes\":" << r.bytes << ",\"cache\":\""
            << span_cache_outcome_name(static_cast<SpanCacheOutcome>(r.cache))
            << "\"}\n";
    }
}

void JsonlSpanSink::finish() { os_.flush(); }

std::vector<SpanRecord> read_spans_jsonl(std::istream& in) {
    std::vector<SpanRecord> out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) {
            continue;
        }
        JsonLineScanner scan(line, line_no, kParseErrorPrefix);
        SpanRecord r;
        scan.expect('{');
        scan.expect_key("request");
        r.request = scan.read_u64();
        scan.expect(',');
        scan.expect_key("conn");
        r.connection = scan.read_u64();
        scan.expect(',');
        scan.expect_key("stage");
        const std::string stage_name = scan.read_string();
        SpanStage stage = SpanStage::kAccept;
        if (!span_stage_from_name(stage_name, stage)) {
            scan.fail("unknown stage '" + stage_name + "'");
        }
        r.stage = static_cast<std::uint16_t>(stage);
        scan.expect(',');
        scan.expect_key("verb");
        r.verb = read_u16(scan, "verb");
        scan.expect(',');
        scan.expect_key("lane");
        r.lane = read_u16(scan, "lane");
        scan.expect(',');
        scan.expect_key("worker");
        r.worker = read_u16(scan, "worker");
        scan.expect(',');
        scan.expect_key("t0");
        r.t_start = scan.read_double();
        scan.expect(',');
        scan.expect_key("t1");
        r.t_end = scan.read_double();
        scan.expect(',');
        scan.expect_key("bytes");
        r.bytes = scan.read_u64();
        scan.expect(',');
        scan.expect_key("cache");
        const std::string cache_name = scan.read_string();
        SpanCacheOutcome outcome = SpanCacheOutcome::kNone;
        if (!span_cache_outcome_from_name(cache_name, outcome)) {
            scan.fail("unknown cache outcome '" + cache_name + "'");
        }
        r.cache = static_cast<std::uint32_t>(outcome);
        scan.expect('}');
        scan.expect_end();
        out.push_back(r);
    }
    return out;
}

SpanHub::SpanHub(SpanHubConfig config, SpanSink* slow_sink)
    : config_(config),
      epoch_(std::chrono::steady_clock::now()),
      slow_sink_(slow_sink) {
    require(config_.rings >= 1, "SpanHub: needs at least one ring");
    require(config_.ring_capacity >= 1, "SpanHub: ring_capacity must be >= 1");
    rings_.reserve(config_.rings);
    for (std::size_t i = 0; i < config_.rings; ++i) {
        auto ring = std::make_unique<Ring>();
        ring->records.resize(config_.ring_capacity);
        rings_.push_back(std::move(ring));
    }
}

void SpanHub::append_locked(Ring& ring, const SpanRecord& record) {
    if (ring.wrapped) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    ring.records[ring.next] = record;
    ring.next += 1;
    if (ring.next == ring.records.size()) {
        ring.next = 0;
        ring.wrapped = true;
    }
    emitted_.fetch_add(1, std::memory_order_relaxed);
}

void SpanHub::emit(std::size_t ring_index, const SpanRecord& record) {
    require(ring_index < rings_.size(), "SpanHub: ring index out of range");
    Ring& ring = *rings_[ring_index];
    std::unique_lock<std::mutex> lock(ring.mutex);
    append_locked(ring, record);
}

void SpanHub::finish_request(std::size_t ring_index, const SpanRecord* records,
                             std::size_t count, double total_seconds) {
    require(ring_index < rings_.size(), "SpanHub: ring index out of range");
    {
        Ring& ring = *rings_[ring_index];
        std::unique_lock<std::mutex> lock(ring.mutex);
        for (std::size_t i = 0; i < count; ++i) {
            append_locked(ring, records[i]);
        }
    }
    if (slow_sink_ != nullptr && config_.slow_threshold_s > 0.0 &&
        total_seconds >= config_.slow_threshold_s) {
        std::unique_lock<std::mutex> lock(slow_mutex_);
        slow_sink_->write(records, count);
        slow_.fetch_add(1, std::memory_order_relaxed);
    }
}

void SpanHub::drain(SpanSink& sink) {
    for (const std::unique_ptr<Ring>& ring_ptr : rings_) {
        Ring& ring = *ring_ptr;
        std::unique_lock<std::mutex> lock(ring.mutex);
        if (ring.wrapped) {
            sink.write(ring.records.data() + ring.next,
                       ring.records.size() - ring.next);
            sink.write(ring.records.data(), ring.next);
        } else if (ring.next > 0) {
            sink.write(ring.records.data(), ring.next);
        }
        ring.next = 0;
        ring.wrapped = false;
    }
    sink.finish();
}

}  // namespace swarmavail::serve
