// Reading back the repo's own JSONL streams: traces (sim/trace), telemetry
// snapshots (util/telemetry) and request spans (serve/span).
//
// JsonLineScanner walks one line of a stream in the exact shape its writer
// produced. It is deliberately not a general JSON parser: accepting only
// the writer's own shape keeps each round-trip contract narrow and
// testable. Numbers go through std::from_chars, so doubles round-trip
// bit-exactly and an integer that does not fit in 64 bits is an error
// rather than a silent wrap. Every failure throws std::invalid_argument
// carrying the reader's own prefix and the line number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace swarmavail {

/// JSON string escaping: quote, backslash and control characters (\n, \r,
/// \t by name, the rest as \u00XX). JsonLineScanner::read_string undoes it.
[[nodiscard]] std::string json_escape(std::string_view text);

class JsonLineScanner {
 public:
    /// `error_prefix` starts every error message, which then continues with
    /// the line number, ": " and the reason (e.g. "trace parse error at
    /// line " gives "trace parse error at line 3: bad number"). It must
    /// outlive the scanner; readers pass a string literal.
    JsonLineScanner(std::string_view line, std::size_t line_no,
                    const char* error_prefix) noexcept
        : line_(line), line_no_(line_no), error_prefix_(error_prefix) {}

    /// Throws std::invalid_argument with this line's prefix and number.
    [[noreturn]] void fail(const std::string& why) const;

    void expect(char ch);
    [[nodiscard]] bool peek(char ch) const noexcept {
        return pos_ < line_.size() && line_[pos_] == ch;
    }

    /// Consumes `"key":`.
    void expect_key(std::string_view key);
    /// Consumes `"key":` if it is next; false (no movement) otherwise. For
    /// fields added after a format shipped: streams written before the
    /// field existed still parse (the field keeps its default).
    [[nodiscard]] bool try_key(std::string_view key) noexcept;

    [[nodiscard]] double read_double();
    [[nodiscard]] std::uint64_t read_u64();
    [[nodiscard]] bool read_bool();
    /// Reads a quoted string, undoing json_escape.
    [[nodiscard]] std::string read_string();

    void expect_end();

 private:
    std::string_view line_;
    std::size_t line_no_;
    const char* error_prefix_;
    std::size_t pos_ = 0;
};

}  // namespace swarmavail
