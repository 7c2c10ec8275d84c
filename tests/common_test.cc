#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats_math.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace costdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dop");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad dop");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dop");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::SlaViolation("x").IsSlaViolation());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("missing table"); };
  auto wrapper = [&]() -> Status {
    COSTDB_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<int> {
    if (ok) return 5;
    return Status::Internal("boom");
  };
  auto consume = [&](bool ok) -> Status {
    int v = 0;
    COSTDB_ASSIGN_OR_RETURN(v, produce(ok));
    EXPECT_EQ(v, 5);
    return Status::OK();
  };
  EXPECT_TRUE(consume(true).ok());
  EXPECT_TRUE(consume(false).IsInternal());
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NormalMeanApproximatelyCorrect) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(Mean(xs), 5.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.1);
}

TEST(RngTest, PoissonMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.15);
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(17);
  int64_t ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ones += (rng.Zipf(100, 1.0) == 1);
  // With theta=1, P(1) ~ 1/H_100 ~ 0.19.
  EXPECT_GT(ones, n / 10);
  EXPECT_LT(ones, n / 3);
}

TEST(RngTest, ZipfThetaZeroIsUniform) {
  Rng rng(19);
  int64_t low_half = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) low_half += (rng.Zipf(100, 0.0) <= 50);
  EXPECT_NEAR(static_cast<double>(low_half) / n, 0.5, 0.05);
}

TEST(StatsMathTest, MeanStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-9);
}

TEST(StatsMathTest, Percentile) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(StatsMathTest, QError) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(20, 10), 2.0);
  EXPECT_DOUBLE_EQ(QError(5, 10), 2.0);
  EXPECT_GT(QError(0, 10), 1e9);  // clamped, not inf/nan
}

TEST(StatsMathTest, GeoMean) {
  EXPECT_NEAR(GeoMean({1, 4, 16}), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(StatsMathTest, LeastSquaresRecoverLine) {
  // y = 3 + 2x fitted from exact points.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    x.push_back(1.0);
    x.push_back(static_cast<double>(i));
    y.push_back(3.0 + 2.0 * i);
  }
  std::vector<double> beta;
  ASSERT_TRUE(LeastSquares(x, 2, y, &beta));
  EXPECT_NEAR(beta[0], 3.0, 1e-9);
  EXPECT_NEAR(beta[1], 2.0, 1e-9);
}

TEST(StatsMathTest, LeastSquaresSingularFails) {
  // Two identical columns -> singular normal equations.
  std::vector<double> x = {1, 1, 2, 2, 3, 3};
  std::vector<double> y = {1, 2, 3};
  std::vector<double> beta;
  EXPECT_FALSE(LeastSquares(x, 2, y, &beta));
}

TEST(StatsMathTest, RSquaredPerfectFit) {
  EXPECT_NEAR(RSquared({1, 2, 3}, {1, 2, 3}), 1.0, 1e-12);
  EXPECT_LT(RSquared({3, 2, 1}, {1, 2, 3}), 0.0);  // worse than mean
}

TEST(StatsMathTest, AutocorrelationDetectsPeriod) {
  std::vector<double> s;
  for (int i = 0; i < 64; ++i) s.push_back(i % 8 == 0 ? 10.0 : 1.0);
  EXPECT_GT(Autocorrelation(s, 8), 0.8);
  EXPECT_LT(Autocorrelation(s, 3), 0.3);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatDollars(1.23456), "$1.2346");
  EXPECT_EQ(FormatDollars(123.456), "$123.46");
  EXPECT_EQ(FormatSeconds(0.5), "500.0 ms");
  EXPECT_EQ(FormatSeconds(90.0), "90.00 s");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatCount(1500000), "1.50M");
}

TEST(ThreadPoolTest, NestedParallelForCompletesOnOneThread) {
  // Every outer index blocks in an inner ParallelFor while the pool's one
  // thread is busy with another outer index: the callers run their own
  // indices, so nothing waits on a helper that cannot start.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(4 * 100);
  pool.ParallelFor(4, 4, [&](size_t outer) {
    pool.ParallelFor(100, 4,
                     [&](size_t inner) { ++hits[outer * 100 + inner]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelismOneRunsOnTheCaller) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  size_t ran = 0;
  pool.ParallelFor(10, 1, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 10u);
}

TEST(ThreadPoolTest, OutsideCallerHandsIndicesToThePool) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  std::atomic<int> ran{0};
  pool.ParallelFor(64, 2, [&](size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
    ++ran;
  });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(on_caller.load(), 0);
}

TEST(ThreadPoolTest, ConcurrentCallsTakeTurns) {
  // A long call holds both threads; a short call started after it must
  // not wait for the long call's remaining indices.
  ThreadPool pool(2);
  constexpr int kLong = 200;
  std::atomic<int> long_ran{0};
  std::thread long_call([&] {
    pool.ParallelFor(kLong, 2, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++long_ran;
    });
  });
  while (long_ran.load() < 4) std::this_thread::yield();
  std::atomic<int> short_ran{0};
  pool.ParallelFor(8, 2, [&](size_t) { ++short_ran; });
  const int long_ran_when_short_done = long_ran.load();
  long_call.join();
  EXPECT_EQ(short_ran.load(), 8);
  EXPECT_EQ(long_ran.load(), kLong);
  EXPECT_LT(long_ran_when_short_done, kLong / 2);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xxxxx", "1"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("a    "), std::string::npos);
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("xxxxx"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TablePrinterTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d/%.1f", 3, 2.5), "3/2.5");
}

}  // namespace
}  // namespace costdb
