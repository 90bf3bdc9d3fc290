#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace perfbench {

namespace {

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

}  // namespace

Problems check_query(const QueryRecord& q, int iterations) {
  Problems p;
  if (!q.completed) p.push_back(q.label + ": did not complete");
  if (q.images != iterations) {
    p.push_back(q.label +
                fmt(": %.0f images at the client, want %.0f", q.images,
                    iterations));
  }
  for (std::size_t i = 1; i < q.arrivals.size(); ++i) {
    if (q.arrivals[i] < q.arrivals[i - 1]) {
      p.push_back(q.label + fmt(": image arrival %.0f earlier than %.0f",
                                static_cast<double>(i),
                                static_cast<double>(i - 1)));
      break;
    }
  }
  if (!(q.completion_seconds >= q.nic_bound_seconds)) {
    p.push_back(q.label +
                fmt(": completion %.3f s beats the client-NIC bound %.3f s",
                    q.completion_seconds, q.nic_bound_seconds));
  }
  return p;
}

double client_fastest_bandwidth(const wadc::trace::TraceLibrary& library,
                                std::uint64_t config_seed, int num_servers) {
  // The link draw: one library trace per host pair (a < b) in row order
  // from the configuration seed's 0xc0f1 stream. Host 0 is the client, so
  // its links are the first num_servers draws.
  wadc::Rng rng = wadc::Rng(config_seed).fork(0xc0f1);
  double fastest = 0;
  for (int b = 1; b <= num_servers; ++b) {
    const auto& trace = library.trace(library.sample_index(rng));
    for (const double v : trace.values()) fastest = std::max(fastest, v);
  }
  return fastest;
}

double client_nic_bound(const wadc::workload::ImageWorkload& workload,
                        double fastest_bandwidth, bool download_all,
                        double startup_seconds) {
  double bound = 0;
  for (int i = 0; i < workload.iterations(); ++i) {
    double largest = 0;
    for (int s = 0; s < workload.num_servers(); ++s) {
      const double bytes = workload.image(s, i).bytes;
      if (download_all) {
        bound += startup_seconds + bytes / fastest_bandwidth;
      } else {
        largest = std::max(largest, bytes);
      }
    }
    if (!download_all) bound += startup_seconds + largest / fastest_bandwidth;
  }
  return bound;
}

Problems check_sessions(const SessionAccount& a) {
  Problems p;
  const auto expect = [&](const char* what, double got, double want) {
    if (got != want) {
      p.push_back(a.label + ": " + what +
                  fmt(" is %.0f, want %.0f", got, want));
    }
  };
  expect("arrivals", a.arrivals, a.sessions);
  expect("admitted", a.admitted, a.sessions);
  expect("completed", a.completed, a.sessions);
  expect("shed", a.shed, 0);
  expect("cache hits + misses", a.hits + a.misses, a.lookups);
  expect("cache hits", a.hits, a.hit_records);
  expect("delivered images", static_cast<double>(a.images),
         static_cast<double>(a.sessions) * a.iterations);
  return p;
}

Problems check_same(const std::vector<double>& expected,
                    const std::vector<double>& got, const std::string& what) {
  if (expected.size() != got.size()) {
    return {what + fmt(": %.0f values, want %.0f",
                       static_cast<double>(got.size()),
                       static_cast<double>(expected.size()))};
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bitwise agreement: NaN never equals itself, so compare the bits.
    if (std::memcmp(&expected[i], &got[i], sizeof(double)) != 0) {
      return {what + fmt(": value %.0f differs (%.17g)",
                         static_cast<double>(i), got[i])};
    }
  }
  return {};
}

Problems self_test() {
  Problems unnoticed;
  const auto must_fail = [&](const char* property, const Problems& p) {
    if (p.empty()) unnoticed.push_back(property);
  };
  const auto must_pass = [&](const char* property, const Problems& p) {
    for (const std::string& s : p) {
      unnoticed.push_back(std::string(property) + " rejected a good result: " +
                          s);
    }
  };

  constexpr int kIterations = 4;
  QueryRecord good;
  good.label = "good";
  good.completed = true;
  good.images = kIterations;
  good.arrivals = {10, 20, 20, 30};
  good.completion_seconds = 30;
  good.nic_bound_seconds = 12.5;
  must_pass("query check", check_query(good, kIterations));

  QueryRecord missing = good;
  missing.images = kIterations - 1;
  missing.arrivals.pop_back();
  must_fail("a missing image", check_query(missing, kIterations));

  QueryRecord fast = good;
  fast.nic_bound_seconds = 31;
  must_fail("a completion below the client-NIC bound",
            check_query(fast, kIterations));

  QueryRecord unordered = good;
  unordered.arrivals = {10, 25, 20, 30};
  must_fail("arrivals out of order", check_query(unordered, kIterations));

  QueryRecord unfinished = good;
  unfinished.completed = false;
  must_fail("an unfinished query", check_query(unfinished, kIterations));

  SessionAccount fleet;
  fleet.label = "fleet";
  fleet.sessions = fleet.arrivals = fleet.admitted = fleet.completed = 3;
  fleet.hits = fleet.hit_records = 5;
  fleet.misses = 7;
  fleet.lookups = 12;
  fleet.iterations = kIterations;
  fleet.images = 3 * kIterations;
  must_pass("session check", check_sessions(fleet));

  SessionAccount shed = fleet;
  shed.shed = 1;
  shed.completed = 2;
  shed.images -= kIterations;
  must_fail("a shed session", check_sessions(shed));

  SessionAccount lost = fleet;
  lost.lookups = 13;
  must_fail("a lookup counted neither hit nor miss", check_sessions(lost));

  const std::vector<double> digest{1.5, 2.25, 3};
  must_pass("determinism check", check_same(digest, digest, "same seed"));
  must_fail("a seed mismatch",
            check_same(digest, {1.5, 2.25, 3.0000000001}, "seed mismatch"));
  must_fail("a shorter digest", check_same(digest, {1.5, 2.25}, "short"));
  return unnoticed;
}

}  // namespace perfbench
