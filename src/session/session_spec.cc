#include "session/session_spec.h"

#include <cmath>
#include <set>
#include <string>

#include "common/parse.h"

namespace wadc::session {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kUnbounded:
      return "unbounded";
    case AdmissionPolicy::kFixedCap:
      return "cap";
    case AdmissionPolicy::kBandwidthAware:
      return "bandwidth";
    case AdmissionPolicy::kLoadShedding:
      return "shed";
    case AdmissionPolicy::kDeadlineAware:
      return "deadline";
  }
  return "?";
}

int SessionSpec::total_sessions() const {
  switch (mode) {
    case ArrivalMode::kExplicit:
      return static_cast<int>(arrivals.size());
    case ArrivalMode::kOpenLoop:
      return open_count;
    case ArrivalMode::kClosedLoop:
      return clients * queries_per_client;
  }
  return 0;
}

std::string SessionSpec::validate() const {
  const auto finite_nonneg = [](double v) { return std::isfinite(v) && v >= 0; };
  switch (mode) {
    case ArrivalMode::kExplicit: {
      if (arrivals.empty()) return "spec generates no sessions";
      std::set<int> ids;
      for (const ExplicitArrival& a : arrivals) {
        if (!finite_nonneg(a.arrival_seconds)) {
          return "session arrival time must be finite and >= 0, got " +
                 std::to_string(a.arrival_seconds);
        }
        if (!finite_nonneg(a.deadline_seconds)) {
          return "session deadline must be finite and >= 0, got " +
                 std::to_string(a.deadline_seconds);
        }
        if (a.id < 0) return "session id must be >= 0";
        if (!ids.insert(a.id).second) {
          return "duplicate session id " + std::to_string(a.id);
        }
      }
      break;
    }
    case ArrivalMode::kOpenLoop:
      if (open_count <= 0) {
        return "open-loop count must be >= 1, got " +
               std::to_string(open_count);
      }
      if (!std::isfinite(open_rate_per_hour) || open_rate_per_hour <= 0) {
        return "open-loop rate must be finite and > 0, got " +
               std::to_string(open_rate_per_hour);
      }
      break;
    case ArrivalMode::kClosedLoop:
      if (clients <= 0) {
        return "closed-loop clients must be >= 1, got " +
               std::to_string(clients);
      }
      if (queries_per_client <= 0) {
        return "closed-loop queries per client must be >= 1, got " +
               std::to_string(queries_per_client);
      }
      if (!finite_nonneg(think_seconds)) {
        return "closed-loop think time must be finite and >= 0, got " +
               std::to_string(think_seconds);
      }
      break;
  }
  switch (admission.policy) {
    case AdmissionPolicy::kUnbounded:
      break;
    case AdmissionPolicy::kFixedCap:
      if (admission.max_concurrent < 1) {
        return "admission cap must be >= 1, got " +
               std::to_string(admission.max_concurrent);
      }
      break;
    case AdmissionPolicy::kBandwidthAware:
      if (!std::isfinite(admission.min_bandwidth) ||
          admission.min_bandwidth <= 0) {
        return "admission bandwidth threshold must be finite and > 0, got " +
               std::to_string(admission.min_bandwidth);
      }
      if (!std::isfinite(admission.recheck_seconds) ||
          admission.recheck_seconds <= 0) {
        return "admission recheck period must be finite and > 0, got " +
               std::to_string(admission.recheck_seconds);
      }
      if (!std::isfinite(admission.max_defer_seconds) ||
          admission.max_defer_seconds <= 0) {
        return "deferral cap must be finite and > 0, got " +
               std::to_string(admission.max_defer_seconds);
      }
      break;
    case AdmissionPolicy::kLoadShedding:
      // Cap 0 is legal: every session sheds (the degenerate "serve nobody"
      // controller is a meaningful overload experiment).
      if (admission.max_concurrent < 0) {
        return "shed cap must be >= 0, got " +
               std::to_string(admission.max_concurrent);
      }
      if (admission.max_queue < 0) {
        return "shed queue bound must be >= 0, got " +
               std::to_string(admission.max_queue);
      }
      break;
    case AdmissionPolicy::kDeadlineAware:
      if (!std::isfinite(admission.deadline_seconds) ||
          admission.deadline_seconds < 0) {
        return "admission deadline must be finite and >= 0, got " +
               std::to_string(admission.deadline_seconds);
      }
      break;
  }
  return {};
}

SessionSpec SessionSpec::concurrent_clients(int n) {
  SessionSpec spec;
  spec.mode = ArrivalMode::kExplicit;
  spec.arrivals.reserve(static_cast<std::size_t>(n > 0 ? n : 0));
  for (int i = 0; i < n; ++i) {
    ExplicitArrival a;
    a.id = i;
    spec.arrivals.push_back(a);
  }
  return spec;
}

SessionSpec SessionSpec::poisson(int count, double rate_per_hour) {
  SessionSpec spec;
  spec.mode = ArrivalMode::kOpenLoop;
  spec.open_count = count;
  spec.open_rate_per_hour = rate_per_hour;
  return spec;
}

SessionSpec parse_session_spec(const std::string& text) {
  static constexpr std::string_view kKind = "session spec";
  SessionSpec spec;
  bool have_explicit = false;
  bool have_open = false;
  bool have_closed = false;
  const auto parse_line = [&](SpecLine& in, std::string_view keyword) {
    if (keyword == "session") {
      if (have_open || have_closed) {
        in.fail("'session' cannot be combined with open/closed mode");
      }
      have_explicit = true;
      spec.mode = ArrivalMode::kExplicit;
      ExplicitArrival a;
      a.arrival_seconds = in.next_double("arrival seconds");
      // Optional key=value tokens: id=<n>, deadline=<s>.
      while (const auto token = in.next()) {
        const auto eq = token->find('=');
        if (eq == std::string_view::npos) {
          in.fail("unexpected trailing token '" + std::string(*token) + "'");
        }
        const std::string_view key = token->substr(0, eq);
        const std::string_view value = token->substr(eq + 1);
        if (key == "id") {
          a.id = in.to_int(value, "session id");
          if (a.id < 0) in.fail("session id must be >= 0");
        } else if (key == "deadline") {
          a.deadline_seconds = in.to_double(value, "deadline seconds");
        } else {
          in.fail("unknown session option '" + std::string(key) + "'");
        }
      }
      if (a.id < 0) a.id = static_cast<int>(spec.arrivals.size());
      spec.arrivals.push_back(a);
    } else if (keyword == "open") {
      if (have_explicit || have_closed || have_open) {
        in.fail("only one arrival mode may be specified");
      }
      have_open = true;
      spec.mode = ArrivalMode::kOpenLoop;
      spec.open_count = in.next_int("session count");
      spec.open_rate_per_hour = in.next_double("rate per hour");
    } else if (keyword == "closed") {
      if (have_explicit || have_open || have_closed) {
        in.fail("only one arrival mode may be specified");
      }
      have_closed = true;
      spec.mode = ArrivalMode::kClosedLoop;
      spec.clients = in.next_int("client count");
      spec.queries_per_client = in.next_int("queries per client");
      spec.think_seconds = in.next_double("think seconds");
    } else if (keyword == "defer_cap") {
      spec.admission.max_defer_seconds =
          in.next_double("deferral cap seconds");
    } else if (keyword == "admission") {
      const std::string_view policy =
          in.next_word("'unbounded', 'cap', 'bandwidth', 'shed' or "
                       "'deadline'");
      if (policy == "unbounded") {
        spec.admission.policy = AdmissionPolicy::kUnbounded;
      } else if (policy == "cap") {
        spec.admission.policy = AdmissionPolicy::kFixedCap;
        spec.admission.max_concurrent =
            in.next_int("max concurrent sessions");
      } else if (policy == "bandwidth") {
        spec.admission.policy = AdmissionPolicy::kBandwidthAware;
        spec.admission.min_bandwidth =
            in.next_double("minimum bandwidth (bytes/second)");
        if (const auto t = in.next()) {
          spec.admission.recheck_seconds = in.to_double(*t, "recheck seconds");
        }
      } else if (policy == "shed") {
        spec.admission.policy = AdmissionPolicy::kLoadShedding;
        spec.admission.max_concurrent =
            in.next_int("max concurrent sessions");
        if (const auto t = in.next()) {
          spec.admission.max_queue = in.to_int(*t, "max queue");
        }
      } else if (policy == "deadline") {
        spec.admission.policy = AdmissionPolicy::kDeadlineAware;
        spec.admission.deadline_seconds = in.next_double("deadline seconds");
      } else {
        in.fail("unknown admission policy '" + std::string(policy) + "'");
      }
    } else {
      in.fail("unknown keyword '" + std::string(keyword) + "'");
    }
    in.expect_end();
  };
  const int lines = for_each_spec_line(kKind, text, parse_line);
  if (!have_explicit && !have_open && !have_closed) {
    throw spec_error(kKind, lines == 0 ? 1 : lines, "spec defines no sessions");
  }
  if (const std::string problem = spec.validate(); !problem.empty()) {
    throw spec_error(kKind, lines, problem);
  }
  return spec;
}

SessionSpec load_session_spec_file(const std::string& path) {
  return parse_session_spec(read_file(path, "session spec"));
}

}  // namespace wadc::session
