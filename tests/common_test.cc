// Tests for the common utilities: deterministic RNG, assertions and strict
// number parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <set>
#include <vector>

#include "common/assert.h"
#include "common/parse.h"
#include "common/rng.h"

namespace wadc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.5, 8.25);
    EXPECT_GE(x, -3.5);
    EXPECT_LT(x, 8.25);
  }
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(42.0);
  EXPECT_NEAR(sum / n, 42.0, 1.5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(20, 8);
    EXPECT_EQ(sample.size(), 8u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (const auto v : sample) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSetIsPermutation) {
  Rng rng(37);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ForkedStreamsAreIndependentAndStable) {
  Rng base(41);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = Rng(41).fork(1);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
  // fork(label) is a pure function of (seed, label).
  Rng f1_b = Rng(41).fork(1);
  EXPECT_EQ(f1_again.next_u64(), f1_b.next_u64());
}

TEST(Rng, ForkDiffersFromParentStream) {
  Rng parent(43);
  Rng child = parent.fork(0);
  Rng parent_fresh(43);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.next_u64() == parent_fresh.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Assert, PassingAssertIsSilent) {
  WADC_ASSERT(1 + 1 == 2, "arithmetic broke");
  SUCCEED();
}

TEST(AssertDeath, FailingAssertAbortsWithMessage) {
  EXPECT_DEATH(WADC_ASSERT(false, "value was ", 42),
               "wadc assertion failed.*value was 42");
}

TEST(AssertDeath, FatalAborts) {
  EXPECT_DEATH(WADC_FATAL("unreachable state ", 7), "unreachable state 7");
}

// ---- strict parsing (common/parse.h) ---------------------------------------

TEST(Parse, NumbersAreWholeTokens) {
  struct Case {
    const char* text;
    std::optional<int> as_int;
    std::optional<std::uint64_t> as_u64;
    std::optional<double> as_double;
  };
  const std::optional<int> no_int;
  const std::optional<std::uint64_t> no_u64;
  const std::optional<double> no_double;
  const Case cases[] = {
      {"0", 0, 0u, 0.0},
      {"42", 42, 42u, 42.0},
      {"-3", -3, no_u64, -3.0},
      {"1e3", no_int, no_u64, 1000.0},
      {"0.001", no_int, no_u64, 0.001},
      {"2147483647", 2147483647, 2147483647u, 2147483647.0},
      {"2147483648", no_int, 2147483648u, 2147483648.0},
      {"18446744073709551615", no_int,
       std::numeric_limits<std::uint64_t>::max(), 18446744073709551615.0},
      {"18446744073709551616", no_int, no_u64, 18446744073709551616.0},
      {"1e999", no_int, no_u64, no_double},  // overflow
      {"", no_int, no_u64, no_double},
      {"8x", no_int, no_u64, no_double},
      {"1.9", no_int, no_u64, 1.9},
      {"+5", no_int, no_u64, no_double},
      {" 5", no_int, no_u64, no_double},
      {"5 ", no_int, no_u64, no_double},
      {"0x10", no_int, no_u64, no_double},
      {"inf", no_int, no_u64, no_double},
      {"nan", no_int, no_u64, no_double},
      {"-", no_int, no_u64, no_double},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    EXPECT_EQ(parse_int(c.text), c.as_int);
    EXPECT_EQ(parse_u64(c.text), c.as_u64);
    EXPECT_EQ(parse_double(c.text), c.as_double);
  }
  EXPECT_EQ(parse_u64("00e9", 16), 0xe9u);
  EXPECT_EQ(parse_u64("zz", 16), no_u64);
}

TEST(Parse, SpecLineNamesKindAndLine) {
  SpecLine line("demo spec", 7, "  12\t0.5  ");
  EXPECT_EQ(line.next_int("count"), 12);
  EXPECT_DOUBLE_EQ(line.next_double("rate"), 0.5);
  EXPECT_FALSE(line.next());
  line.expect_end();
  const auto message = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message([] { SpecLine("demo", 3, "1.9").next_int("host id"); }),
            "demo line 3: expected host id, got '1.9'");
  EXPECT_EQ(message([] { SpecLine("demo", 4, "").next_double("time"); }),
            "demo line 4: expected time");
  EXPECT_EQ(message([] { SpecLine("demo", 5, "1 2").expect_end(); }),
            "demo line 5: unexpected trailing token '1'");
}

TEST(Parse, ForEachSpecLineSkipsCommentsAndBlanks) {
  std::vector<std::string> seen;
  const int lines = for_each_spec_line(
      "demo spec", "# header\n\nalpha 1 # note\n  beta\n",
      [&](SpecLine& line, std::string_view keyword) {
        seen.push_back(std::to_string(line.line_no()) + ":" +
                       std::string(keyword));
        while (line.next()) {
        }
      });
  EXPECT_EQ(lines, 4);
  EXPECT_EQ(seen, (std::vector<std::string>{"3:alpha", "4:beta"}));
}

TEST(Parse, EnvReaderFallsBackAndReadsRange) {
  unsetenv("WADC_PARSE_TEST");
  EXPECT_EQ(env_int("WADC_PARSE_TEST", 9, 1), 9);
  setenv("WADC_PARSE_TEST", "18446744073709551615", 1);
  EXPECT_EQ(env_u64("WADC_PARSE_TEST", 0),
            std::numeric_limits<std::uint64_t>::max());
  setenv("WADC_PARSE_TEST", "12", 1);
  EXPECT_EQ(env_int("WADC_PARSE_TEST", 9, 1, 12), 12);
  unsetenv("WADC_PARSE_TEST");
}

TEST(ParseDeathTest, EnvReaderExitsTwoOnMalformedOrOutOfRange) {
  for (const char* bad : {"8x", "", "-3", "13", "0"}) {
    setenv("WADC_PARSE_TEST", bad, 1);
    EXPECT_EXIT(env_int("WADC_PARSE_TEST", 9, 1, 12),
                testing::ExitedWithCode(2), "invalid WADC_PARSE_TEST");
  }
  unsetenv("WADC_PARSE_TEST");
}

}  // namespace
}  // namespace wadc
