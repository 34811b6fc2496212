#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "util/bench_io.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace cyclops::util {
namespace {

/// Sample standard deviation (n - 1 denominator), two-pass.
double sample_stddev(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double squares = 0.0;
  for (double x : xs) squares += (x - mean) * (x - mean);
  return std::sqrt(squares / static_cast<double>(xs.size() - 1));
}

// ---- units ----

TEST(Units, DegRadRoundTrip) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi / 2.0), 90.0);
  EXPECT_NEAR(rad_to_deg(deg_to_rad(37.5)), 37.5, 1e-12);
}

TEST(Units, MilliradConversions) {
  EXPECT_DOUBLE_EQ(mrad_to_rad(5.77), 0.00577);
  EXPECT_DOUBLE_EQ(rad_to_mrad(0.002), 2.0);
}

TEST(Units, DbmMilliwatt) {
  EXPECT_DOUBLE_EQ(dbm_to_mw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(10.0), 10.0);
  EXPECT_NEAR(mw_to_dbm(dbm_to_mw(-25.0)), -25.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(-30.0), 0.001, 1e-15);
}

TEST(Units, DbRatios) {
  EXPECT_DOUBLE_EQ(ratio_to_db(100.0), 20.0);
  EXPECT_NEAR(db_to_ratio(3.0), 1.9953, 1e-4);
  EXPECT_NEAR(db_to_ratio(ratio_to_db(0.37)), 0.37, 1e-12);
}

TEST(Units, Gbps) {
  EXPECT_DOUBLE_EQ(gbps_to_bps(9.4), 9.4e9);
  EXPECT_DOUBLE_EQ(bps_to_gbps(25e9), 25.0);
}

TEST(Units, Millimeters) {
  EXPECT_DOUBLE_EQ(mm_to_m(4.54), 0.00454);
  EXPECT_DOUBLE_EQ(m_to_mm(0.0016), 1.6);
}

// ---- rng ----

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    xs.push_back(rng.normal());
    stats.add(xs.back());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(sample_stddev(xs), 1.0, 0.01);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  RunningStats stats;
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) {
    xs.push_back(rng.normal(5.0, 2.0));
    stats.add(xs.back());
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(sample_stddev(xs), 2.0, 0.05);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(Rng, SplitDecorrelates) {
  Rng a(21);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---- stats ----

TEST(RunningStatsTest, Basics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 62.5), 3.5);
}

TEST(StatsTest, PercentileUnsortedInput) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(CdfTest, AtAndQuantile) {
  // quantile(q) is the smallest sample with a fraction >= q of the
  // samples at or below it.
  Cdf cdf({4.0, 2.0, 3.0, 1.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.51), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 4.0);
}

TEST(CdfTest, EmptySafe) {
  Cdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 0.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 0.0);
}

// ---- csv ----

TEST(CsvTest, RoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "cyclops_csv_test.csv";
  write_csv(path, {"a", "b"}, {{1.5, 2.5}, {3.0, -4.0}});
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.header.size(), 2u);
  EXPECT_EQ(table.header[0], "a");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[1][1], -4.0);
  std::filesystem::remove(path);
}

TEST(CsvTest, NoHeader) {
  const auto path = std::filesystem::temp_directory_path() /
                    "cyclops_csv_test2.csv";
  write_csv(path, {}, {{1.0, 2.0}});
  const CsvTable table = read_csv(path);
  EXPECT_TRUE(table.header.empty());
  ASSERT_EQ(table.rows.size(), 1u);
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/cyclops.csv"), std::runtime_error);
}

// ---- table ----

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"metric", "value"});
  table.add_row({"tolerance", TextTable::num(5.77)});
  std::ostringstream out;
  table.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("5.77"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTableTest, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTableTest, NumPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 3), "3.142");
  EXPECT_EQ(TextTable::num(-2.0, 0), "-2");
}

// ---- clock ----

TEST(SimClockTest, AdvanceAndReset) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(us_from_ms(12.5));
  EXPECT_EQ(clock.now(), 12500);
  clock.advance(us_from_s(1.0));
  EXPECT_EQ(clock.now(), 1012500);
  clock.reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(SimClockTest, Conversions) {
  EXPECT_EQ(us_from_ms(1.0), 1000);
  EXPECT_EQ(us_from_s(0.001), 1000);
  EXPECT_DOUBLE_EQ(us_to_s(2500000), 2.5);
  EXPECT_DOUBLE_EQ(us_to_ms(1500), 1.5);
}

TEST(SimClockTest, ConversionsRoundToNearest) {
  // 2.3 ms is 2299.999... in binary; truncation used to yield 2299 us.
  EXPECT_EQ(us_from_ms(2.3), 2300);
  EXPECT_EQ(us_from_ms(0.1) * 3, us_from_ms(0.3));
  EXPECT_EQ(us_from_s(0.0123456), 12346);  // half-up at the .6 boundary
  EXPECT_EQ(us_from_ms(0.0004), 0);
  EXPECT_EQ(us_from_ms(0.0006), 1);
  // Round half away from zero, both signs.
  EXPECT_EQ(us_round(2.5), 3);
  EXPECT_EQ(us_round(-2.5), -3);
  EXPECT_EQ(us_from_ms(-2.3), -2300);
  static_assert(us_from_ms(2.3) == 2300, "us_round must be constexpr");
}

TEST(BenchIoTest, SanitizedGitRevAcceptsHexTokens) {
  EXPECT_EQ(sanitized_git_rev("d94ce61"), "d94ce61");
  EXPECT_EQ(sanitized_git_rev("0123456789abcdef0123456789abcdef01234567"),
            "0123456789abcdef0123456789abcdef01234567");
  EXPECT_EQ(sanitized_git_rev("ABCDEF12"), "ABCDEF12");
}

TEST(BenchIoTest, SanitizedGitRevDegradesToUnknown) {
  // Configure-time git failures leave markers that must never leak into
  // the bench JSON as a bogus revision.
  EXPECT_EQ(sanitized_git_rev(nullptr), "unknown");
  EXPECT_EQ(sanitized_git_rev(""), "unknown");
  EXPECT_EQ(sanitized_git_rev("unknown"), "unknown");
  EXPECT_EQ(sanitized_git_rev("fatal: not a git repository"), "unknown");
  EXPECT_EQ(sanitized_git_rev("abc"), "unknown");       // too short
  EXPECT_EQ(sanitized_git_rev("deadbeefg"), "unknown");  // non-hex char
  EXPECT_EQ(
      sanitized_git_rev("0123456789abcdef0123456789abcdef012345678"),
      "unknown");  // 41 chars: longer than a full SHA-1
}

}  // namespace
}  // namespace cyclops::util
