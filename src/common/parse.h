// Strict number parsing for every text input of the program: the fault,
// session and cache specs, trace files, environment variables and
// command-line flags all read their numbers (and split their text) through
// this one module.
//
// One rule everywhere: a number is one whole token in plain decimal
// notation (another base only where a caller names it). Whitespace, a
// leading '+', a trailing "x" and, for unsigned values, a '-' are errors,
// never a silently truncated prefix. Doubles must be finite: "inf", "nan"
// and magnitudes beyond double's range are rejected too.
#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wadc {

std::optional<int> parse_int(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10);
std::optional<double> parse_double(std::string_view text);

// `text` cut at every `sep`: "a,,b" gives "a", "", "b"; "" gives one "".
std::vector<std::string> split(std::string_view text, char sep);

// The value of `arg` if it reads "<name>=<value>".
std::optional<std::string> flag_value(const char* arg, std::string_view name);

// The whole content of the file at `path`; throws std::runtime_error
// "cannot open <what>: <path>" (or "cannot read ...").
std::string read_file(const std::string& path, std::string_view what);

// "<kind> line N: <why>", the error every line-oriented input reports.
std::runtime_error spec_error(std::string_view kind, int line_no,
                              const std::string& why);

// Whitespace-separated tokens of one line of a spec or trace file; every
// failure throws spec_error(kind, line_no, ...).
class SpecLine {
 public:
  SpecLine(std::string_view kind, int line_no, std::string_view text)
      : kind_(kind), line_no_(line_no), rest_(text) {}

  int line_no() const { return line_no_; }

  // The next token, or nullopt at the end of the line.
  std::optional<std::string_view> next();
  // The next token, which must exist ("expected <what>") and, for the
  // numeric forms, be a whole number ("expected <what>, got '<token>'").
  std::string_view next_word(const char* what);
  int next_int(const char* what) { return to_int(next_word(what), what); }
  double next_double(const char* what) {
    return to_double(next_word(what), what);
  }
  // The same checks on a token already taken (a key=value token's value).
  int to_int(std::string_view token, const char* what) const;
  double to_double(std::string_view token, const char* what) const;

  // Fails on any token left on the line.
  void expect_end();
  [[noreturn]] void fail(const std::string& why) const;

 private:
  std::string_view kind_;
  int line_no_;
  std::string_view rest_;
};

// Calls fn(line, keyword) for every line of `text` that holds a token once
// its '#' comment is cut off; the keyword is the line's first token.
// Returns the number of lines read.
template <class Fn>
int for_each_spec_line(std::string_view kind, std::string_view text, Fn fn) {
  int line_no = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view raw = text.substr(0, eol);
    text.remove_prefix(eol == text.npos ? text.size() : eol + 1);
    SpecLine line(kind, ++line_no, raw.substr(0, raw.find('#')));
    if (const auto keyword = line.next()) fn(line, *keyword);
  }
  return line_no;
}

// Reads the integer environment variable `name`: `fallback` when unset,
// otherwise a whole integer in [min, max] (min >= 0). Anything else prints
// "invalid NAME: '<value>' (want an integer in [min, max])" and exits 2.
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min = 0, std::uint64_t max = UINT64_MAX);
inline int env_int(const char* name, int fallback, int min,
                   int max = INT_MAX) {
  return static_cast<int>(env_u64(name, static_cast<std::uint64_t>(fallback),
                                  static_cast<std::uint64_t>(min),
                                  static_cast<std::uint64_t>(max)));
}

}  // namespace wadc
