// Host and link identifiers for the network model.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/assert.h"

namespace wadc::net {

// Hosts are dense integers. By convention in the experiments, host 0 is the
// client and hosts 1..N are servers; nothing in the network model itself
// depends on that.
using HostId = int;

inline constexpr HostId kInvalidHost = -1;

// Index of an unordered host pair {a, b}, a != b, into a triangular array.
// Debug-only checks: this sits inside per-message loops (blackout lookups,
// bandwidth-cache indexing); host ids are validated where they enter the
// system (transfer(), fault calls, cache records).
inline std::size_t pair_index(HostId a, HostId b, int num_hosts) {
  WADC_DASSERT(a != b, "pair_index of a host with itself");
  WADC_DASSERT(a >= 0 && b >= 0 && a < num_hosts && b < num_hosts,
               "host id out of range");
  if (a > b) {
    const HostId t = a;
    a = b;
    b = t;
  }
  // Row-major upper triangle: pairs (0,1), (0,2), ..., (0,n-1), (1,2), ...
  const auto n = static_cast<std::size_t>(num_hosts);
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  return ia * n - ia * (ia + 1) / 2 + (ib - ia - 1);
}

inline std::size_t pair_count(int num_hosts) {
  const auto n = static_cast<std::size_t>(num_hosts);
  return n * (n - 1) / 2;
}

// Inverse of pair_index: the pair {a, b}, a < b, stored at `index`.
inline std::pair<HostId, HostId> pair_hosts(std::size_t index,
                                            int num_hosts) {
  WADC_DASSERT(index < pair_count(num_hosts), "pair index out of range");
  const auto n = static_cast<std::size_t>(num_hosts);
  const auto row_start = [n](std::size_t a) { return a * n - a * (a + 1) / 2; };
  // Row a is the last one starting at or before `index`: the smaller root
  // of a^2 - (2n-1)a + 2*index = 0, then a step either way to absorb the
  // rounding of the square root.
  const double m = 2.0 * static_cast<double>(n) - 1.0;
  auto a = static_cast<std::size_t>(
      (m - std::sqrt(m * m - 8.0 * static_cast<double>(index))) / 2.0);
  while (a > 0 && row_start(a) > index) --a;
  while (row_start(a + 1) <= index) ++a;
  return {static_cast<HostId>(a),
          static_cast<HostId>(index - row_start(a) + a + 1)};
}

}  // namespace wadc::net
