#include "sim/trace.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

namespace swarmavail::sim {

namespace {

struct KindName {
    TraceKind kind;
    const char* name;
};

constexpr KindName kKindNames[] = {
    {TraceKind::kPeerArrival, "peer_arrival"},
    {TraceKind::kPeerCompletion, "peer_completion"},
    {TraceKind::kPeerLost, "peer_lost"},
    {TraceKind::kPeerStranded, "peer_stranded"},
    {TraceKind::kPublisherUp, "publisher_up"},
    {TraceKind::kPublisherDown, "publisher_down"},
    {TraceKind::kAvailabilityBegin, "availability_begin"},
    {TraceKind::kAvailabilityEnd, "availability_end"},
    {TraceKind::kTransferStart, "transfer_start"},
    {TraceKind::kTransferComplete, "transfer_complete"},
    {TraceKind::kCustom, "custom"},
};

constexpr const char* kParseErrorPrefix = "trace parse error at line ";

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
    throw std::invalid_argument(kParseErrorPrefix + std::to_string(line_no) + ": " +
                                why);
}

/// Splits one CSV line written by write_csv_row back into cells.
std::vector<std::string> split_csv_line(const std::string& line, std::size_t line_no) {
    std::vector<std::string> cells;
    std::string cell;
    bool in_quotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char ch = line[i];
        if (in_quotes) {
            if (ch == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    cell += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                cell += ch;
            }
        } else if (ch == '"') {
            in_quotes = true;
        } else if (ch == ',') {
            cells.push_back(std::move(cell));
            cell.clear();
        } else {
            cell += ch;
        }
    }
    if (in_quotes) {
        parse_fail(line_no, "unterminated quoted cell");
    }
    cells.push_back(std::move(cell));
    return cells;
}

double parse_double_cell(const std::string& cell, std::size_t line_no) {
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
    if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
        parse_fail(line_no, "bad number '" + cell + "'");
    }
    return value;
}

std::uint64_t parse_u64_cell(const std::string& cell, std::size_t line_no) {
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
    if (ec != std::errc{} || ptr != cell.data() + cell.size()) {
        parse_fail(line_no, "bad integer '" + cell + "'");
    }
    return value;
}

}  // namespace

const char* trace_kind_name(TraceKind kind) noexcept {
    for (const KindName& entry : kKindNames) {
        if (entry.kind == kind) {
            return entry.name;
        }
    }
    return "unknown";
}

bool trace_kind_from_name(std::string_view name, TraceKind& out) noexcept {
    for (const KindName& entry : kKindNames) {
        if (name == entry.name) {
            out = entry.kind;
            return true;
        }
    }
    return false;
}

void TraceSink::annotate(double time, std::string_view text) {
    static_cast<void>(time);
    static_cast<void>(text);
}

void NullTraceSink::write(const TraceRecord* records, std::size_t count) {
    static_cast<void>(records);
    static_cast<void>(count);
}

void MemoryTraceSink::write(const TraceRecord* records, std::size_t count) {
    records_.insert(records_.end(), records, records + count);
}

void MemoryTraceSink::annotate(double time, std::string_view text) {
    annotations_.emplace_back(time, std::string(text));
}

void JsonlTraceSink::write(const TraceRecord* records, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord& r = records[i];
        os_ << "{\"t\":" << format_double_exact(r.time) << ",\"kind\":\""
            << trace_kind_name(r.kind) << "\",\"entity\":" << r.entity
            << ",\"a\":" << format_double_exact(r.a)
            << ",\"b\":" << format_double_exact(r.b) << "}\n";
    }
}

void JsonlTraceSink::annotate(double time, std::string_view text) {
    os_ << "{\"t\":" << format_double_exact(time)
        << ",\"kind\":\"annotation\",\"text\":\"" << json_escape(text) << "\"}\n";
}

void JsonlTraceSink::finish() { os_.flush(); }

CsvTraceSink::CsvTraceSink(std::ostream& os) : os_(os) {
    write_csv_row(os_, {"time", "kind", "entity", "a", "b"});
}

void CsvTraceSink::write(const TraceRecord* records, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        const TraceRecord& r = records[i];
        write_csv_row(os_, {format_double_exact(r.time), trace_kind_name(r.kind),
                            std::to_string(r.entity), format_double_exact(r.a),
                            format_double_exact(r.b)});
    }
}

void CsvTraceSink::annotate(double time, std::string_view text) {
    write_csv_row(os_, {format_double_exact(time), "annotation", "0",
                        std::string(text), "0"});
}

void CsvTraceSink::finish() { os_.flush(); }

Tracer::Tracer(TraceSink& sink, std::size_t buffer_capacity)
    : sink_(sink), capacity_(buffer_capacity) {
    require(buffer_capacity >= 1, "Tracer: buffer_capacity must be >= 1");
    buffer_.reserve(capacity_);
}

Tracer::~Tracer() {
    flush();
    sink_.finish();
}

void Tracer::annotate(double time, std::string_view text) {
    flush();
    sink_.annotate(time, text);
}

void Tracer::flush() {
    if (!buffer_.empty()) {
        sink_.write(buffer_.data(), buffer_.size());
        emitted_ += buffer_.size();
        buffer_.clear();
    }
}

ParsedTrace read_trace_jsonl(std::istream& in) {
    ParsedTrace out;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) {
            continue;
        }
        JsonLineScanner scan(line, line_no, kParseErrorPrefix);
        scan.expect('{');
        scan.expect_key("t");
        const double time = scan.read_double();
        scan.expect(',');
        scan.expect_key("kind");
        const std::string kind_name = scan.read_string();
        if (kind_name == "annotation") {
            scan.expect(',');
            scan.expect_key("text");
            std::string text = scan.read_string();
            scan.expect('}');
            scan.expect_end();
            out.annotations.push_back(TraceAnnotation{time, std::move(text)});
            continue;
        }
        TraceKind kind = TraceKind::kCustom;
        if (!trace_kind_from_name(kind_name, kind)) {
            scan.fail("unknown kind '" + kind_name + "'");
        }
        scan.expect(',');
        scan.expect_key("entity");
        const std::uint64_t entity = scan.read_u64();
        scan.expect(',');
        scan.expect_key("a");
        const double a = scan.read_double();
        scan.expect(',');
        scan.expect_key("b");
        const double b = scan.read_double();
        scan.expect('}');
        scan.expect_end();
        out.records.push_back(TraceRecord{time, kind, 0, entity, a, b});
    }
    return out;
}

ParsedTrace read_trace_csv(std::istream& in) {
    ParsedTrace out;
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) {
            continue;
        }
        std::vector<std::string> cells = split_csv_line(line, line_no);
        if (cells.size() != 5) {
            parse_fail(line_no, "expected 5 cells, got " + std::to_string(cells.size()));
        }
        if (!saw_header) {
            if (cells[0] != "time" || cells[1] != "kind") {
                parse_fail(line_no, "missing CSV header");
            }
            saw_header = true;
            continue;
        }
        const double time = parse_double_cell(cells[0], line_no);
        if (cells[1] == "annotation") {
            out.annotations.push_back(TraceAnnotation{time, std::move(cells[3])});
            continue;
        }
        TraceKind kind = TraceKind::kCustom;
        if (!trace_kind_from_name(cells[1], kind)) {
            parse_fail(line_no, "unknown kind '" + cells[1] + "'");
        }
        out.records.push_back(TraceRecord{time, kind, 0,
                                          parse_u64_cell(cells[2], line_no),
                                          parse_double_cell(cells[3], line_no),
                                          parse_double_cell(cells[4], line_no)});
    }
    if (!saw_header) {
        parse_fail(line_no, "empty trace (no header)");
    }
    return out;
}

void trace_check_failure(Tracer* tracer, double sim_time, const CheckFailure& failure) {
    if (tracer == nullptr) {
        return;
    }
    std::ostringstream text;
    text << "check failure at " << failure.file() << ':' << failure.line() << ": "
         << failure.message();
    tracer->annotate(sim_time, text.str());
}

}  // namespace swarmavail::sim
