// Unit tests for src/common: Status, Result, macros, Bounds, Rng, stats,
// WorkMeter, TableWriter, number text.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "common/bounds.h"
#include "common/macros.h"
#include "common/number_text.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "common/work_meter.h"

namespace vaolib {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryHelpersSetCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "invalid-argument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotConverged), "not-converged");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNumericError), "numeric-error");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "resource-exhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "internal");
}

TEST(StatusTest, WithContextPrepends) {
  const Status s = Status::NotFound("row 3").WithContext("scanning BD");
  EXPECT_EQ(s.message(), "scanning BD: row 3");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, IsChecksCode) {
  EXPECT_TRUE(Status::OutOfRange("x").Is(StatusCode::kOutOfRange));
  EXPECT_FALSE(Status::OutOfRange("x").Is(StatusCode::kNotFound));
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Internal("boom");
  EXPECT_EQ(os.str(), "internal: boom");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(std::move(r).ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  VAOLIB_ASSIGN_OR_RETURN(const int half, HalveEven(x));
  VAOLIB_ASSIGN_OR_RETURN(const int quarter, HalveEven(half));
  return quarter;
}

Status CheckPositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return Status::OK();
}

Status CheckBoth(int x, int y) {
  VAOLIB_RETURN_IF_ERROR(CheckPositive(x));
  VAOLIB_RETURN_IF_ERROR(CheckPositive(y));
  return Status::OK();
}

TEST(MacrosTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterViaMacro(8).ValueOrDie(), 2);
  EXPECT_EQ(QuarterViaMacro(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(QuarterViaMacro(5).status().code(), StatusCode::kInvalidArgument);
}

TEST(MacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckBoth(1, 1).ok());
  EXPECT_FALSE(CheckBoth(-1, 1).ok());
  EXPECT_FALSE(CheckBoth(1, -1).ok());
}

TEST(BoundsTest, BasicAccessors) {
  const Bounds b(2.0, 6.0);
  EXPECT_DOUBLE_EQ(b.Width(), 4.0);
  EXPECT_DOUBLE_EQ(b.Mid(), 4.0);
  EXPECT_TRUE(b.Contains(2.0));
  EXPECT_TRUE(b.Contains(6.0));
  EXPECT_FALSE(b.Contains(6.0001));
  EXPECT_TRUE(b.IsValid());
}

TEST(BoundsTest, CenteredAndPoint) {
  EXPECT_EQ(Bounds::Centered(5.0, 2.0), Bounds(3.0, 7.0));
  EXPECT_DOUBLE_EQ(Bounds::Point(3.0).Width(), 0.0);
}

TEST(BoundsTest, OverlapWidth) {
  EXPECT_DOUBLE_EQ(Bounds(0, 4).OverlapWidth(Bounds(2, 8)), 2.0);
  EXPECT_DOUBLE_EQ(Bounds(0, 4).OverlapWidth(Bounds(5, 8)), 0.0);
  EXPECT_DOUBLE_EQ(Bounds(0, 10).OverlapWidth(Bounds(3, 5)), 2.0);
  EXPECT_TRUE(Bounds(0, 4).Overlaps(Bounds(4, 8)));  // touching counts
  EXPECT_FALSE(Bounds(0, 4).Overlaps(Bounds(4.01, 8)));
}

TEST(BoundsTest, Ordering) {
  EXPECT_TRUE(Bounds(5, 6).EntirelyAbove(Bounds(1, 4)));
  EXPECT_FALSE(Bounds(5, 6).EntirelyAbove(Bounds(1, 5)));
  EXPECT_TRUE(Bounds(1, 4).EntirelyBelow(Bounds(5, 6)));
}

TEST(BoundsTest, ContainsInterval) {
  EXPECT_TRUE(Bounds(0, 10).Contains(Bounds(2, 8)));
  EXPECT_FALSE(Bounds(0, 10).Contains(Bounds(2, 11)));
}

TEST(BoundsTest, InvalidOnNanOrInverted) {
  EXPECT_FALSE(Bounds(2.0, 1.0).IsValid());
  EXPECT_FALSE(Bounds(std::nan(""), 1.0).IsValid());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  EXPECT_NE(a.NextUint64(), c.NextUint64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveAndUnbiased) {
  Rng rng(11);
  int counts[6] = {0};
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.UniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // ~5 sigma
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Gaussian(2.0, 3.0));
  EXPECT_NEAR(stats.Mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Exponential(0.5));
  EXPECT_NEAR(stats.Mean(), 2.0, 0.05);
  EXPECT_GE(stats.Min(), 0.0);
}

TEST(RngTest, BernoulliEdgesAndRate) {
  Rng rng(19);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, 25000, 700);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(23);
  const auto perm = rng.Permutation(100);
  ASSERT_EQ(perm.size(), 100u);
  std::vector<bool> seen(100, false);
  for (const auto i : perm) {
    ASSERT_LT(i, 100u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.StdDev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Sum(), 40.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Reset();
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
}

TEST(QuantileTest, InterpolatesOrderStatistics) {
  const std::vector<double> values{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 2.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(WorkMeterTest, ChargesByKind) {
  WorkMeter meter;
  meter.Charge(WorkKind::kExec, 10);
  meter.Charge(WorkKind::kExec, 5);
  meter.Charge(WorkKind::kChooseIter, 3);
  EXPECT_EQ(meter.Count(WorkKind::kExec), 15u);
  EXPECT_EQ(meter.ExecUnits(), 15u);
  EXPECT_EQ(meter.Count(WorkKind::kChooseIter), 3u);
  EXPECT_EQ(meter.Total(), 18u);
}

TEST(WorkMeterTest, MergeAndReset) {
  WorkMeter a, b;
  a.Charge(WorkKind::kExec, 7);
  b.Charge(WorkKind::kGetState, 2);
  a.Merge(b);
  EXPECT_EQ(a.Total(), 9u);
  a.Reset();
  EXPECT_EQ(a.Total(), 0u);
}

TEST(TableWriterTest, RendersAlignedText) {
  TableWriter table("demo", {"name", "value"});
  table.AddRow({"alpha", TableWriter::Cell(1.5, 2)});
  table.AddRow({"b", TableWriter::Cell(std::uint64_t{42})});
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream os;
  table.RenderText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1.50"), std::string::npos);
}

TEST(TableWriterTest, RendersCsvWithEscaping) {
  TableWriter table("t", {"a", "b"});
  table.AddRow({"x,y", "plain"});
  std::ostringstream os;
  table.RenderCsv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",plain\n");
}

TEST(TableWriterTest, ShortRowsPadded) {
  TableWriter table("t", {"a", "b", "c"});
  table.AddRow({"only"});
  std::ostringstream os;
  table.RenderCsv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}


TEST(LoggingTest, LevelGateAndRestore) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must be cheap no-ops (no crash, no output
  // assertions possible here, but the stream path is exercised).
  VAOLIB_LOG(Debug) << "suppressed " << 42;
  VAOLIB_LOG(Info) << "suppressed too";
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(StopwatchTest, ElapsedIsMonotonicAndRestartable) {
  Stopwatch stopwatch;
  const double first = stopwatch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double second = stopwatch.ElapsedSeconds();
  EXPECT_GE(second, first);
  EXPECT_NEAR(stopwatch.ElapsedMillis(), second * 1e3,
              second * 1e3 * 0.5 + 1.0);
  stopwatch.Restart();
  EXPECT_LE(stopwatch.ElapsedSeconds(), second + 1.0);
}

// The formatter the wire protocol, the SQL printer and scenario files used
// before number_text: one stream and one strtod per precision 1..17.
std::string StreamRoundTrip(double value) {
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << value;
    if (std::strtod(os.str().c_str(), nullptr) == value) return os.str();
  }
  return std::to_string(value);
}

TEST(NumberTextTest, MatchesTheStreamLoopByteForByte) {
  std::vector<double> values;
  Rng rng(20261019);
  for (int i = 0; i < 200000; ++i) {
    values.push_back(std::bit_cast<double>(rng.NextUint64()));
  }
  for (int i = 0; i < 50000; ++i) values.push_back(rng.Uniform(50.0, 150.0));
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    const double power = std::ldexp(1.0, exponent);
    values.push_back(power);
    values.push_back(-power);
    values.push_back(std::nextafter(power, 0.0));
    values.push_back(std::nextafter(power, HUGE_VAL));
  }
  for (int i = 0; i < 1000; ++i) {  // subnormals: exponent bits all zero
    values.push_back(
        std::bit_cast<double>(rng.NextUint64() & ((1ULL << 52) - 1)));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double special :
       {0.0, -0.0, 100.0, 1e16, 1e17, 1e21, 1e-5, 1e-7, DBL_MAX, -DBL_MAX,
        DBL_MIN, DBL_TRUE_MIN, inf, -inf, nan, -nan, 0.1, 1.0 / 3.0}) {
    values.push_back(special);
  }

  std::size_t mismatches = 0;
  std::string first;
  for (const double value : values) {
    const std::string expected = StreamRoundTrip(value);
    const std::string actual = RoundTripNumber(value);
    if (actual == expected) continue;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os << std::hexfloat << value << ": '" << actual << "' vs '" << expected
         << "'";
      first = os.str();
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << ", first " << first;
}

TEST(NumberTextTest, ShortestGeneralNotation) {
  EXPECT_EQ(RoundTripNumber(100.0), "1e+02");
  EXPECT_EQ(RoundTripNumber(-0.0), "-0");
  EXPECT_EQ(RoundTripNumber(0.1), "0.1");
  EXPECT_EQ(RoundTripNumber(101.25), "101.25");
  EXPECT_EQ(RoundTripNumber(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(RoundTripNumber(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(RoundTripNumber(std::numeric_limits<double>::quiet_NaN()), "nan");
  std::string out = "lo=";
  AppendRoundTripNumber(DBL_MAX, &out);
  EXPECT_EQ(out, "lo=1.7976931348623157e+308");
}

}  // namespace
}  // namespace vaolib
