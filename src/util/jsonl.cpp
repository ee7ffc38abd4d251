#include "util/jsonl.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace swarmavail {

std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 2);
    for (char ch : text) {
        switch (ch) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(ch)));
                    out += buf;
                } else {
                    out += ch;
                }
                break;
        }
    }
    return out;
}

void JsonLineScanner::fail(const std::string& why) const {
    std::string message = error_prefix_;
    message += std::to_string(line_no_);
    message += ": ";
    message += why;
    throw std::invalid_argument(message);
}

void JsonLineScanner::expect(char ch) {
    if (!peek(ch)) {
        fail(std::string("expected '") + ch + "'");
    }
    ++pos_;
}

void JsonLineScanner::expect_key(std::string_view key) {
    if (!try_key(key)) {
        fail("expected key \"" + std::string(key) + "\"");
    }
}

bool JsonLineScanner::try_key(std::string_view key) noexcept {
    const std::size_t need = key.size() + 3;  // quotes and colon
    if (line_.size() - pos_ < need || line_[pos_] != '"' ||
        line_.substr(pos_ + 1, key.size()) != key ||
        line_[pos_ + 1 + key.size()] != '"' || line_[pos_ + 2 + key.size()] != ':') {
        return false;
    }
    pos_ += need;
    return true;
}

double JsonLineScanner::read_double() {
    double value = 0.0;
    const char* begin = line_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(begin, line_.data() + line_.size(), value);
    if (ec != std::errc{}) {
        fail("bad number");
    }
    pos_ = static_cast<std::size_t>(ptr - line_.data());
    return value;
}

std::uint64_t JsonLineScanner::read_u64() {
    std::uint64_t value = 0;
    const char* begin = line_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(begin, line_.data() + line_.size(), value);
    if (ec != std::errc{}) {
        fail("bad integer");
    }
    pos_ = static_cast<std::size_t>(ptr - line_.data());
    return value;
}

bool JsonLineScanner::read_bool() {
    if (line_.substr(pos_, 4) == "true") {
        pos_ += 4;
        return true;
    }
    if (line_.substr(pos_, 5) == "false") {
        pos_ += 5;
        return false;
    }
    fail("expected boolean");
}

std::string JsonLineScanner::read_string() {
    expect('"');
    std::string out;
    while (true) {
        if (pos_ >= line_.size()) {
            fail("unterminated string");
        }
        const char ch = line_[pos_++];
        if (ch == '"') {
            return out;
        }
        if (ch != '\\') {
            out += ch;
            continue;
        }
        if (pos_ >= line_.size()) {
            fail("dangling escape");
        }
        switch (line_[pos_++]) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > line_.size()) {
                    fail("bad \\u escape");
                }
                unsigned code = 0;
                const char* begin = line_.data() + pos_;
                const auto [ptr, ec] = std::from_chars(begin, begin + 4, code, 16);
                if (ec != std::errc{} || ptr != begin + 4 || code > 0xFF) {
                    fail("bad \\u escape");
                }
                out += static_cast<char>(code);
                pos_ += 4;
                break;
            }
            default:
                fail("unknown escape");
        }
    }
}

void JsonLineScanner::expect_end() {
    if (pos_ != line_.size()) {
        fail("trailing characters");
    }
}

}  // namespace swarmavail
