// Structured event tracing for the simulation engines.
//
// The simulators emit POD TraceRecords (sim-time, kind, entity id, two
// payload doubles) into a Tracer, which ring-buffers them and flushes to a
// pluggable TraceSink: JSONL (one object per line, lossless doubles), CSV
// (via the util/table quoting rules), an in-memory vector, or /dev/null.
// This is the longitudinal-telemetry substrate the paper's time-resolved
// observables (busy periods, seed-absence intervals, per-peer download
// times) are extracted from — see examples/trace_inspect.cpp.
//
// Cost model, by layer:
//   - compile time: SWARMAVAIL_OBSERVE_DISABLED (util/observe.hpp) removes
//     every engine call site; the Tracer/sink types remain available for
//     direct use.
//   - runtime, no tracer attached (the default): the SWARMAVAIL_OBSERVE
//     call site is a null-pointer check — one branch per call site.
//   - runtime, tracer attached but disabled: one additional flag branch.
//
// Tracing never draws randomness or mutates simulator state, so enabling
// it cannot change any simulation result.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace swarmavail {
class CheckFailure;
}  // namespace swarmavail

namespace swarmavail::sim {

/// What a trace record describes. Values are stable across runs (they
/// appear in serialized traces); append only.
enum class TraceKind : std::uint32_t {
    kPeerArrival = 0,     ///< entity=peer id, a=capacity (swarm) / unused
    kPeerCompletion = 1,  ///< entity=peer id, a=download time, b=waited time
    kPeerLost = 2,        ///< entity=peer id (impatient peer left unserved)
    kPeerStranded = 3,    ///< entity=peer id (interrupted by a busy-period end)
    kPublisherUp = 4,     ///< entity=online publisher count after the change
    kPublisherDown = 5,   ///< entity=online publisher count after the change
    kAvailabilityBegin = 6,  ///< content became available (busy period opens)
    kAvailabilityEnd = 7,    ///< a=interval begin time, b=peers served in it
    kTransferStart = 8,      ///< entity=transfer id, a=piece, b=duration
    kTransferComplete = 9,   ///< entity=transfer id, a=piece, b=destination peer
    kCustom = 10,            ///< free-form; payload meaning is caller-defined
};

/// Name used in serialized traces ("peer_arrival", ...).
[[nodiscard]] const char* trace_kind_name(TraceKind kind) noexcept;
/// Inverse of trace_kind_name; returns false for unknown names.
[[nodiscard]] bool trace_kind_from_name(std::string_view name, TraceKind& out) noexcept;

/// One trace event. POD on purpose: records are buffered and copied in
/// bulk, and sinks serialize them without touching the heap per record.
struct TraceRecord {
    double time = 0.0;           ///< sim-time (seconds)
    TraceKind kind = TraceKind::kCustom;
    std::uint32_t reserved = 0;  ///< padding; always zero
    std::uint64_t entity = 0;    ///< peer/transfer/publisher id (kind-specific)
    double a = 0.0;              ///< payload (kind-specific)
    double b = 0.0;              ///< payload (kind-specific)

    friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 40);

/// Where flushed records go. Sinks see records in emission order.
class TraceSink {
 public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceRecord* records, std::size_t count) = 0;
    /// Out-of-band diagnostic line (invariant-audit failures carry their
    /// message through here with the sim-time attached). Default: dropped.
    virtual void annotate(double time, std::string_view text);
    /// Called once when the producer is done (Tracer destructor).
    virtual void finish() {}
};

/// Discards everything; for overhead measurement and "metrics only" runs.
class NullTraceSink final : public TraceSink {
 public:
    void write(const TraceRecord* records, std::size_t count) override;
};

/// Buffers records (and annotations) in memory; for tests and in-process
/// consumers like examples/swarm_timeline.cpp.
class MemoryTraceSink final : public TraceSink {
 public:
    void write(const TraceRecord* records, std::size_t count) override;
    void annotate(double time, std::string_view text) override;

    [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] const std::vector<std::pair<double, std::string>>& annotations()
        const noexcept {
        return annotations_;
    }

 private:
    std::vector<TraceRecord> records_;
    std::vector<std::pair<double, std::string>> annotations_;
};

/// One JSON object per line:
///   {"t":12.5,"kind":"peer_arrival","entity":7,"a":0,"b":0}
/// Doubles use the shortest lossless form, so parsing the stream back
/// reproduces every record bit for bit. Annotations become
///   {"t":...,"kind":"annotation","text":"..."} with JSON string escaping.
class JsonlTraceSink final : public TraceSink {
 public:
    /// The stream must outlive the sink; the sink never owns it.
    explicit JsonlTraceSink(std::ostream& os) : os_(os) {}
    void write(const TraceRecord* records, std::size_t count) override;
    void annotate(double time, std::string_view text) override;
    void finish() override;

 private:
    std::ostream& os_;
};

/// CSV with header "time,kind,entity,a,b" (util/table quoting rules,
/// lossless doubles). Annotations are written as kind "annotation" rows
/// with the text in the `a` column position — see read_trace_csv.
class CsvTraceSink final : public TraceSink {
 public:
    explicit CsvTraceSink(std::ostream& os);
    void write(const TraceRecord* records, std::size_t count) override;
    void annotate(double time, std::string_view text) override;
    void finish() override;

 private:
    std::ostream& os_;
};

/// Ring-buffering front end the simulators write through. Owned by the
/// caller and attached to a run via the config's `tracer` pointer; one
/// tracer serves one simulator at a time (no internal locking).
class Tracer {
 public:
    /// `sink` must outlive the tracer. `buffer_capacity` records are
    /// buffered between flushes (>= 1).
    explicit Tracer(TraceSink& sink, std::size_t buffer_capacity = 4096);
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Runtime gate. Disabled (the default), record() is a single branch.
    void set_enabled(bool on) noexcept { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    void record(TraceKind kind, double time, std::uint64_t entity = 0, double a = 0.0,
                double b = 0.0) {
        if (!enabled_) {
            return;
        }
        buffer_.push_back(TraceRecord{time, kind, 0, entity, a, b});
        if (buffer_.size() >= capacity_) {
            flush();
        }
    }

    /// Flushes buffered records, then forwards the annotation so the sink
    /// sees it in order. Annotations bypass the enabled() gate: they carry
    /// failure diagnostics that must not be lost.
    void annotate(double time, std::string_view text);

    /// Pushes buffered records to the sink. The simulators flush at the
    /// end of a run; call this before reading a sink mid-run.
    void flush();

    [[nodiscard]] std::uint64_t records_emitted() const noexcept { return emitted_; }

 private:
    TraceSink& sink_;
    std::vector<TraceRecord> buffer_;
    std::size_t capacity_;
    std::uint64_t emitted_ = 0;
    bool enabled_ = false;
};

/// Annotation parsed back from a serialized trace.
struct TraceAnnotation {
    double time = 0.0;
    std::string text;
};

/// A deserialized trace: records plus out-of-band annotations.
struct ParsedTrace {
    std::vector<TraceRecord> records;
    std::vector<TraceAnnotation> annotations;
};

/// Parses a JSONL trace produced by JsonlTraceSink. Restricted to that
/// writer's output shape (this is a trace reader, not a JSON library);
/// throws std::invalid_argument on malformed lines.
[[nodiscard]] ParsedTrace read_trace_jsonl(std::istream& in);

/// Parses a CSV trace produced by CsvTraceSink (header required).
[[nodiscard]] ParsedTrace read_trace_csv(std::istream& in);

/// Routes an invariant-audit failure through the structured sink: emits an
/// annotation at `sim_time` carrying the check's file, line, and message.
/// Null tracer is a no-op, so call sites stay unconditional.
void trace_check_failure(Tracer* tracer, double sim_time, const CheckFailure& failure);

}  // namespace swarmavail::sim
