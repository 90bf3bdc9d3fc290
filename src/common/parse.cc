#include "common/parse.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>

namespace wadc {

namespace {

// std::from_chars already refuses whitespace, a leading '+' and (for
// unsigned types) a '-'; left to check is that it consumed the whole text.
template <class T, class... Base>
std::optional<T> whole(std::string_view text, Base... base) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base...);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

}  // namespace

std::optional<int> parse_int(std::string_view text) {
  return whole<int>(text);
}

std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
  return whole<std::uint64_t>(text, base);
}

std::optional<double> parse_double(std::string_view text) {
  const auto v = whole<double>(text);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  for (;;) {
    const std::size_t at = text.find(sep);
    fields.emplace_back(text.substr(0, at));
    if (at == std::string_view::npos) return fields;
    text.remove_prefix(at + 1);
  }
}

std::optional<std::string> flag_value(const char* arg, std::string_view name) {
  if (std::strncmp(arg, name.data(), name.size()) != 0) return std::nullopt;
  if (arg[name.size()] != '=') return std::nullopt;
  return std::string(arg + name.size() + 1);
}

std::string read_file(const std::string& path, std::string_view what) {
  const std::string where = std::string(what) + ": " + path;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + where);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) throw std::runtime_error("cannot read " + where);
  return buf.str();
}

std::runtime_error spec_error(std::string_view kind, int line_no,
                              const std::string& why) {
  return std::runtime_error(std::string(kind) + " line " +
                            std::to_string(line_no) + ": " + why);
}

std::optional<std::string_view> SpecLine::next() {
  while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  std::size_t len = 0;
  while (len < rest_.size() && !is_space(rest_[len])) ++len;
  if (len == 0) return std::nullopt;
  const std::string_view token = rest_.substr(0, len);
  rest_.remove_prefix(len);
  return token;
}

std::string_view SpecLine::next_word(const char* what) {
  const auto token = next();
  if (!token) fail(std::string("expected ") + what);
  return *token;
}

int SpecLine::to_int(std::string_view token, const char* what) const {
  if (const auto v = parse_int(token)) return *v;
  fail(std::string("expected ") + what + ", got '" + std::string(token) + "'");
}

double SpecLine::to_double(std::string_view token, const char* what) const {
  if (const auto v = parse_double(token)) return *v;
  fail(std::string("expected ") + what + ", got '" + std::string(token) + "'");
}

void SpecLine::expect_end() {
  const auto extra = next();
  if (extra) fail("unexpected trailing token '" + std::string(*extra) + "'");
}

void SpecLine::fail(const std::string& why) const {
  throw spec_error(kind_, line_no_, why);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min, std::uint64_t max) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  const auto v = parse_u64(s);
  if (!v || *v < min || *v > max) {
    std::fprintf(stderr, "invalid %s: '%s' (want an integer in [%llu, %llu])\n",
                 name, s, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return *v;
}

}  // namespace wadc
