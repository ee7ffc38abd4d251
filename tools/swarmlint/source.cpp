#include "source.hpp"

#include <algorithm>
#include <cctype>

namespace swarmlint {
namespace {

/// Lexer state while blanking comments and literals.
enum class Mode {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
};

bool starts_with(std::string_view text, std::size_t pos, std::string_view prefix) {
    return text.compare(pos, prefix.size(), prefix) == 0;
}

}  // namespace

bool is_ident_char(char c) noexcept {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_';
}

char next_nonspace(std::string_view code, std::size_t pos) {
    pos = skip_space(code, pos);
    return pos < code.size() ? code[pos] : '\0';
}

std::size_t skip_space(std::string_view code, std::size_t pos) {
    while (pos < code.size() &&
           std::isspace(static_cast<unsigned char>(code[pos])) != 0) {
        ++pos;
    }
    return pos;
}

char prev_nonspace(std::string_view code, std::size_t pos) {
    while (pos > 0) {
        --pos;
        if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) {
            return code[pos];
        }
    }
    return '\0';
}

std::size_t skip_template_args(std::string_view code, std::size_t pos) {
    if (pos >= code.size() || code[pos] != '<') {
        return std::string_view::npos;
    }
    int depth = 0;
    for (std::size_t i = pos; i < code.size(); ++i) {
        const char c = code[i];
        if (c == '<') {
            ++depth;
        } else if (c == '>') {
            --depth;
            if (depth == 0) {
                return i + 1;
            }
        } else if (c == ';' || c == '{') {
            // A '<' that was a comparison, not a template argument list.
            return std::string_view::npos;
        }
    }
    return std::string_view::npos;
}

std::size_t skip_balanced(std::string_view code, std::size_t pos) {
    if (pos >= code.size()) {
        return std::string_view::npos;
    }
    const char open = code[pos];
    char close = '\0';
    switch (open) {
        case '(': close = ')'; break;
        case '{': close = '}'; break;
        case '[': close = ']'; break;
        default: return std::string_view::npos;
    }
    int depth = 0;
    for (std::size_t i = pos; i < code.size(); ++i) {
        if (code[i] == open) {
            ++depth;
        } else if (code[i] == close) {
            --depth;
            if (depth == 0) {
                return i + 1;
            }
        }
    }
    return std::string_view::npos;
}

SourceFile SourceFile::parse(std::string path, std::string_view content) {
    SourceFile out;
    out.path_ = std::move(path);
    out.raw_.assign(content);
    out.code_.assign(content.size(), ' ');

    Mode mode = Mode::kCode;
    std::string raw_delim;  // raw-string delimiter, e.g. )foo" without quotes
    const std::size_t n = content.size();
    for (std::size_t i = 0; i < n; ++i) {
        const char c = content[i];
        if (c == '\n') {
            out.code_[i] = '\n';
            if (mode == Mode::kLineComment) {
                mode = Mode::kCode;
            }
            continue;
        }
        switch (mode) {
            case Mode::kCode:
                if (c == '/' && i + 1 < n && content[i + 1] == '/') {
                    mode = Mode::kLineComment;
                } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
                    mode = Mode::kBlockComment;
                    ++i;  // never reparse the '*' as a terminator
                } else if (c == '"') {
                    // R"delim( ... )delim" — the R and optional prefix sit
                    // just before the quote.
                    std::size_t p = i;
                    bool raw = p > 0 && content[p - 1] == 'R' &&
                               (p < 2 || !is_ident_char(content[p - 2]));
                    if (raw) {
                        std::size_t delim_end = content.find('(', i + 1);
                        if (delim_end == std::string_view::npos) {
                            out.code_[i] = '"';
                            mode = Mode::kString;
                            break;
                        }
                        raw_delim.assign(1, ')');
                        raw_delim.append(content.substr(i + 1, delim_end - i - 1));
                        raw_delim.push_back('"');
                        out.code_[i] = '"';
                        mode = Mode::kRawString;
                    } else {
                        out.code_[i] = '"';
                        mode = Mode::kString;
                    }
                } else if (c == '\'' && !(i > 0 && is_ident_char(content[i - 1]))) {
                    // Skip digit separators (1'000'000): a quote directly
                    // after an identifier/number char is not a char literal.
                    out.code_[i] = '\'';
                    mode = Mode::kChar;
                } else {
                    out.code_[i] = c;
                }
                break;
            case Mode::kLineComment:
                break;  // stays blank until newline
            case Mode::kBlockComment:
                if (c == '*' && i + 1 < n && content[i + 1] == '/') {
                    ++i;
                    mode = Mode::kCode;
                }
                break;
            case Mode::kString:
                if (c == '\\' && i + 1 < n) {
                    ++i;
                    if (content[i] == '\n') {
                        out.code_[i] = '\n';
                    }
                } else if (c == '"') {
                    out.code_[i] = '"';
                    mode = Mode::kCode;
                }
                break;
            case Mode::kChar:
                if (c == '\\' && i + 1 < n) {
                    ++i;
                } else if (c == '\'') {
                    out.code_[i] = '\'';
                    mode = Mode::kCode;
                }
                break;
            case Mode::kRawString:
                if (c == ')' && starts_with(content, i, raw_delim)) {
                    i += raw_delim.size() - 1;
                    out.code_[i] = '"';
                    mode = Mode::kCode;
                }
                break;
        }
    }

    out.line_offsets_.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
        if (content[i] == '\n') {
            out.line_offsets_.push_back(i + 1);
        }
    }

    out.scan_preprocessor();
    out.scan_suppressions();
    return out;
}

int SourceFile::line_of_offset(std::size_t offset) const {
    const auto it = std::upper_bound(line_offsets_.begin(), line_offsets_.end(), offset);
    return static_cast<int>(it - line_offsets_.begin());
}

std::string_view SourceFile::code_line(int line) const {
    if (line < 1 || line > line_count()) {
        return {};
    }
    const std::size_t begin = line_offsets_[static_cast<std::size_t>(line - 1)];
    std::size_t end = line == line_count()
                          ? code_.size()
                          : line_offsets_[static_cast<std::size_t>(line)] - 1;
    return std::string_view{code_}.substr(begin, end - begin);
}

std::string_view SourceFile::raw_line(int line) const {
    if (line < 1 || line > line_count()) {
        return {};
    }
    const std::size_t begin = line_offsets_[static_cast<std::size_t>(line - 1)];
    std::size_t end = line == line_count()
                          ? raw_.size()
                          : line_offsets_[static_cast<std::size_t>(line)] - 1;
    return std::string_view{raw_}.substr(begin, end - begin);
}

bool SourceFile::guard_mentions(int line, std::string_view token) const {
    if (line < 1 || line > line_count()) {
        return false;
    }
    const auto& stack = guards_[static_cast<std::size_t>(line - 1)];
    return std::any_of(stack.begin(), stack.end(), [&](const std::string& cond) {
        return cond.find(token) != std::string::npos;
    });
}

bool SourceFile::is_directive_line(int line) const {
    if (line < 1 || line > line_count()) {
        return false;
    }
    return directive_[static_cast<std::size_t>(line - 1)];
}

void SourceFile::scan_preprocessor() {
    guards_.resize(static_cast<std::size_t>(line_count()));
    directive_.assign(static_cast<std::size_t>(line_count()), false);
    bool continuation = false;
    for (int line = 1; line <= line_count(); ++line) {
        const std::string_view text = code_line(line);
        const std::size_t idx = static_cast<std::size_t>(line - 1);
        if (continuation) {
            directive_[idx] = true;
            guards_[idx] = guard_stack_;
            continuation = !text.empty() && text.back() == '\\';
            continue;
        }
        const std::size_t first = skip_space(text, 0);
        const bool is_directive = first < text.size() && text[first] == '#';
        // The guard stack a line "sees" is the one in force when the line
        // begins; #endif pops before recording so the directive itself no
        // longer counts as inside the region it closes.
        if (is_directive) {
            directive_[idx] = true;
            std::size_t p = skip_space(text, first + 1);
            std::size_t word_end = p;
            while (word_end < text.size() && is_ident_char(text[word_end])) {
                ++word_end;
            }
            const std::string_view word = text.substr(p, word_end - p);
            std::string cond{text.substr(skip_space(text, word_end))};
            if (!cond.empty() && cond.back() == '\\') {
                cond.pop_back();
            }
            if (word == "if" || word == "ifdef" || word == "ifndef") {
                guard_stack_.push_back(cond);
            } else if (word == "elif") {
                if (!guard_stack_.empty()) {
                    guard_stack_.back() += " | " + cond;
                }
            } else if (word == "else") {
                // Keep the condition: the else-branch of a region guarded
                // on X still compiles in/out under X.
            } else if (word == "endif") {
                if (!guard_stack_.empty()) {
                    guard_stack_.pop_back();
                }
            }
            continuation = !text.empty() && text.back() == '\\';
        }
        guards_[idx] = guard_stack_;
    }
    guard_stack_.clear();
}

void SourceFile::scan_suppressions() {
    static constexpr std::string_view kMarker = "swarmlint-allow";
    for (int line = 1; line <= line_count(); ++line) {
        const std::string_view raw = raw_line(line);
        const std::string_view code = code_line(line);
        std::size_t pos = 0;
        while ((pos = raw.find(kMarker, pos)) != std::string_view::npos) {
            // Only honor the marker inside a comment: the blanked code has
            // spaces there, so a code-position match means a false hit
            // (e.g. a string in this very tool).
            if (pos < code.size() && code.compare(pos, kMarker.size(), kMarker) == 0) {
                pos += kMarker.size();
                continue;
            }
            Suppression s;
            s.line = line;
            std::size_t p = pos + kMarker.size();
            if (p >= raw.size() || raw[p] != '(') {
                s.malformed = true;
                s.problem = "expected '(' after swarmlint-allow";
                suppressions_.push_back(std::move(s));
                pos = p;
                continue;
            }
            const std::size_t close = raw.find(')', p);
            if (close == std::string_view::npos) {
                s.malformed = true;
                s.problem = "unterminated rule name: missing ')'";
                suppressions_.push_back(std::move(s));
                break;
            }
            s.rule.assign(raw.substr(p + 1, close - p - 1));
            if (s.rule.empty() ||
                s.rule.find_first_of(" \t") != std::string::npos) {
                s.malformed = true;
                s.problem = "rule name must be a single non-empty token";
                suppressions_.push_back(std::move(s));
                pos = close;
                continue;
            }
            std::size_t after = skip_space(raw, close + 1);
            if (after >= raw.size() || raw[after] != ':') {
                s.malformed = true;
                s.problem = "missing ': <justification>' after the rule name";
                suppressions_.push_back(std::move(s));
                pos = close;
                continue;
            }
            std::string reason{raw.substr(after + 1)};
            const std::size_t begin = reason.find_first_not_of(" \t");
            const std::size_t end = reason.find_last_not_of(" \t\r");
            if (begin == std::string::npos) {
                s.malformed = true;
                s.problem = "empty justification: every suppression must say why";
                suppressions_.push_back(std::move(s));
                pos = close;
                continue;
            }
            s.reason = reason.substr(begin, end - begin + 1);
            suppressions_.push_back(std::move(s));
            break;  // justification runs to end of line; nothing follows
        }
    }
}

bool SourceFile::consume_suppression(std::string_view rule, int line) {
    for (Suppression& s : suppressions_) {
        if (s.malformed || s.rule != rule) {
            continue;
        }
        if (s.line == line || s.line == line - 1) {
            s.used = true;
            return true;
        }
    }
    return false;
}

}  // namespace swarmlint
