// Output checks made apart from the program.
//
// Each check compares what a query produced against a property that holds
// whatever the program's code does: counts the workload fixes, a lower
// bound computed from the trace library and the workload draw alone, and
// agreement between repeated runs. Every check returns the list of
// violations it found (empty = pass), so the self-test can feed it broken
// results and see each one fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/library.h"
#include "workload/image_workload.h"

namespace perfbench {

using Problems = std::vector<std::string>;

// What the checker sees of one query.
struct QueryRecord {
  std::string label;
  bool completed = false;
  int images = 0;                // images delivered to the client
  std::vector<double> arrivals;  // per-image arrival times (sweeps only)
  double completion_seconds = 0;
  double nic_bound_seconds = 0;  // 0 = no bound applies (cache on)
};

// Every query ends completed, with exactly `iterations` images at the
// client, arrival times that never decrease, and a completion time no
// earlier than its client-NIC bound.
Problems check_query(const QueryRecord& q, int iterations);

// The fastest bandwidth any of the client's links ever reaches: host 0 is
// the client, and the configuration seed's link draw gives it one library
// trace per server.
double client_fastest_bandwidth(const wadc::trace::TraceLibrary& library,
                                std::uint64_t config_seed, int num_servers);

// The client-NIC lower bound on a cache-off query's completion time.
// The client host (0) receives at most one message at a time, and every
// message pays the startup cost before its bytes flow at no more than
// `fastest_bandwidth` (client_fastest_bandwidth). A relocating query
// receives each iteration's combined image, which is at least as large as
// that iteration's largest partition; download-all receives all N raw
// partitions. Computed from the trace library, the link draw of the
// configuration seed and the image sizes of the workload draw.
double client_nic_bound(const wadc::workload::ImageWorkload& workload,
                        double fastest_bandwidth, bool download_all,
                        double startup_seconds);

// Session accounting for one fleet.
struct SessionAccount {
  std::string label;
  int sessions = 0;     // sessions the spec asked for
  int arrivals = 0;     // session.arrivals
  int admitted = 0;     // session.admitted
  int completed = 0;    // session.completed
  int shed = 0;         // session.shed
  double hits = 0;      // cache.hits
  double misses = 0;    // cache.misses
  double lookups = 0;   // per-host hit + miss counters, summed over hosts
  double hit_records = 0;  // DecisionLog cache/hit records
  long long images = 0;    // images delivered over all sessions
  int iterations = 0;
};

// arrivals = admitted = completed = sessions, shed = 0, hits + misses =
// lookups, hits = logged hit decisions, images = sessions x iterations.
Problems check_sessions(const SessionAccount& a);

// Two digests of the same inputs must be identical value for value.
Problems check_same(const std::vector<double>& expected,
                    const std::vector<double>& got, const std::string& what);

// Feeds every checker results that each break one property and returns
// the properties whose break went unnoticed (empty = self-test passed).
Problems self_test();

}  // namespace perfbench
