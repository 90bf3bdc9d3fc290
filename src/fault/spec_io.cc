#include "fault/spec_io.h"

#include <string>

#include "common/parse.h"

namespace wadc::fault {

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for_each_spec_line("fault spec", text, [&spec](SpecLine& in,
                                                 std::string_view keyword) {
    if (keyword == "drop") {
      spec.drop_probability = in.next_double("drop probability");
    } else if (keyword == "crash") {
      HostCrash c;
      c.host = in.next_int("host id");
      c.at = in.next_double("crash time");
      if (const auto t = in.next()) {
        c.restart_at = in.to_double(*t, "restart time");
      }
      spec.crashes.push_back(c);
    } else if (keyword == "blackout") {
      LinkBlackout b;
      b.a = in.next_int("host id");
      b.b = in.next_int("host id");
      b.begin = in.next_double("blackout begin");
      b.end = in.next_double("blackout end");
      spec.blackouts.push_back(b);
    } else if (keyword == "rate") {
      const std::string_view what = in.next_word("'crash' or 'blackout'");
      if (what == "crash") {
        spec.random.crash_rate_per_hour = in.next_double("crash rate per hour");
        spec.random.mean_downtime_seconds =
            in.next_double("mean downtime seconds");
      } else if (what == "blackout") {
        spec.random.blackout_rate_per_hour =
            in.next_double("blackout rate per hour");
        spec.random.mean_blackout_seconds =
            in.next_double("mean blackout seconds");
      } else {
        in.fail("unknown rate kind '" + std::string(what) + "'");
      }
    } else if (keyword == "horizon") {
      spec.random.horizon_seconds = in.next_double("horizon seconds");
    } else if (keyword == "protect_client") {
      spec.random.protect_client = in.next_int("0 or 1") != 0;
    } else {
      in.fail("unknown keyword '" + std::string(keyword) + "'");
    }
    in.expect_end();
  });
  return spec;
}

FaultSpec load_fault_spec_file(const std::string& path) {
  return parse_fault_spec(read_file(path, "fault spec"));
}

}  // namespace wadc::fault
