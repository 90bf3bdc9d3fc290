#include "trace/io.h"

#include <fstream>
#include <stdexcept>

#include "common/parse.h"

namespace wadc::trace {

namespace {

constexpr std::string_view kKind = "trace input";

// Line reader over the text format. Lines are numbered across a whole
// trace set, so every error names the line of the input it is on.
struct Reader {
  std::istream& in;
  std::string text{};
  int line_no = 0;

  // The next line as a token reader; valid until the next call.
  SpecLine line() {
    if (!std::getline(in, text)) {
      throw spec_error(kKind, line_no + 1, "unexpected end of input");
    }
    return SpecLine(kKind, ++line_no, text);
  }

  void expect(const std::string& header) {
    const SpecLine l = line();
    if (text != header) l.fail("expected '" + header + "', got '" + text + "'");
  }

  // The line "<key> <value>", positioned at the value.
  SpecLine keyed(const char* key) {
    SpecLine l = line();
    if (l.next() != key) l.fail(std::string("expected '") + key + " <value>'");
    return l;
  }
};

BandwidthTrace read_trace(Reader& r) {
  r.expect("wadc-trace v1");
  SpecLine l = r.keyed("step");
  const double step = l.next_double("step seconds");
  l.expect_end();
  if (step <= 0) l.fail("non-positive step");
  l = r.keyed("samples");
  const int samples = l.next_int("sample count");
  l.expect_end();
  if (samples < 1) l.fail("empty trace");
  std::vector<double> values;
  for (int i = 0; i < samples; ++i) {
    l = r.line();
    values.push_back(l.next_double("sample"));
    l.expect_end();
    if (values.back() <= 0) l.fail("non-positive sample");
  }
  return BandwidthTrace(step, std::move(values));
}

}  // namespace

void save_trace(const BandwidthTrace& trace, std::ostream& out) {
  // max_digits10 so doubles survive the text round trip exactly.
  out.precision(17);
  out << "wadc-trace v1\n";
  out << "step " << trace.step_seconds() << "\n";
  out << "samples " << trace.sample_count() << "\n";
  for (const double v : trace.values()) out << v << "\n";
}

BandwidthTrace load_trace(std::istream& in) {
  Reader r{in};
  return read_trace(r);
}

void save_trace_set(const std::vector<BandwidthTrace>& traces,
                    std::ostream& out) {
  out << "wadc-trace-set v1\n";
  out << "count " << traces.size() << "\n";
  for (const auto& t : traces) save_trace(t, out);
}

std::vector<BandwidthTrace> load_trace_set(std::istream& in) {
  Reader r{in};
  r.expect("wadc-trace-set v1");
  SpecLine l = r.keyed("count");
  const int count = l.next_int("trace count");
  l.expect_end();
  if (count < 0) l.fail("negative trace count");
  std::vector<BandwidthTrace> traces;
  for (int i = 0; i < count; ++i) traces.push_back(read_trace(r));
  return traces;
}

void save_trace_file(const BandwidthTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_trace(trace, out);
}

BandwidthTrace load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_trace(in);
}

void save_trace_set_file(const std::vector<BandwidthTrace>& traces,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_trace_set(traces, out);
}

std::vector<BandwidthTrace> load_trace_set_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_trace_set(in);
}

}  // namespace wadc::trace
