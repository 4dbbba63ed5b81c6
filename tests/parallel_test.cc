// Tests for the parallel bulk helpers (vao/parallel.h) and the thread-safe
// WorkMeter they rely on.

#include <gtest/gtest.h>

#include <thread>

#include "common/work_meter.h"
#include "finance/bond_model.h"
#include "vao/black_box.h"
#include "vao/parallel.h"
#include "vao/pde_profile_cache.h"
#include "workload/portfolio_gen.h"

namespace vaolib::vao {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::PortfolioSpec spec;
    spec.count = 8;
    function_ = std::make_unique<finance::BondPricingFunction>(
        workload::GeneratePortfolio(8080, spec), finance::BondModelConfig{});
    for (int i = 0; i < 8; ++i) {
      rows_.push_back(function_->ArgsFor(0.0575, i));
    }
  }
  std::unique_ptr<finance::BondPricingFunction> function_;
  std::vector<std::vector<double>> rows_;
};

TEST_F(ParallelTest, InvokeAllMatchesSerialResults) {
  WorkMeter serial_meter;
  auto serial = InvokeAll(*function_, rows_, /*threads=*/1, &serial_meter);
  ASSERT_TRUE(serial.ok());

  WorkMeter parallel_meter;
  auto parallel =
      InvokeAll(*function_, rows_, /*threads=*/4, &parallel_meter);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial->size(), parallel->size());
  for (std::size_t i = 0; i < serial->size(); ++i) {
    ASSERT_NE((*parallel)[i], nullptr);
    EXPECT_EQ((*serial)[i]->bounds(), (*parallel)[i]->bounds())
        << "row " << i;
  }
  // Same solves performed, same deterministic accounting.
  EXPECT_EQ(serial_meter.Total(), parallel_meter.Total());
}

TEST_F(ParallelTest, InvokeAllPropagatesErrors) {
  auto rows = rows_;
  rows.push_back({9.9, 0.0});  // rate outside the model domain
  WorkMeter meter;
  const auto result = InvokeAll(*function_, rows, /*threads=*/4, &meter);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ParallelTest, InvokeAllReturnsLowestIndexedRowError) {
  // Two failing rows with distinguishable errors: the bad bond index sits at
  // a lower row than the bad rate, so its InvalidArgument must win at every
  // thread count (all rows are still attempted).
  auto rows = rows_;
  rows.insert(rows.begin() + 2, {0.0575, 99.0});  // bond index out of range
  rows.push_back({9.9, 0.0});                     // rate outside the domain
  for (const int threads : {1, 2, 4, 8}) {
    WorkMeter meter;
    const auto result = InvokeAll(*function_, rows, threads, &meter);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "threads " << threads;
  }
}

TEST_F(ParallelTest, InvokeAllEmptyInput) {
  WorkMeter meter;
  const auto result = InvokeAll(*function_, {}, 4, &meter);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(meter.Total(), 0u);
}

TEST_F(ParallelTest, ConvergeAllMatchesSerialConvergence) {
  WorkMeter meter;
  auto objects = InvokeAll(*function_, rows_, /*threads=*/4, &meter);
  ASSERT_TRUE(objects.ok());
  std::vector<ResultObject*> ptrs;
  for (auto& object : *objects) ptrs.push_back(object.get());
  ASSERT_TRUE(ConvergeAllToMinWidth(ptrs, /*threads=*/4).ok());

  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_TRUE(ptrs[i]->AtStoppingCondition());
    // Values agree with a serially converged twin.
    WorkMeter scratch;
    auto twin = function_->Invoke(rows_[i], &scratch);
    ASSERT_TRUE(twin.ok());
    ASSERT_TRUE(ConvergeToMinWidth(twin->get()).ok());
    EXPECT_NEAR(ptrs[i]->bounds().Mid(), (*twin)->bounds().Mid(), 1e-9);
  }
}

TEST_F(ParallelTest, ConvergeAllRejectsNulls) {
  std::vector<ResultObject*> with_null{nullptr};
  EXPECT_FALSE(ConvergeAllToMinWidth(with_null, 2).ok());
}

// Rows that repeat bonds, at different rates, under a profile cache: the
// first row of each bond solves, the rest read its profiles. Single-flight
// solves make creation and stepping work identical at every thread count.
TEST_F(ParallelTest, ProfileCacheWorkIsThreadCountInvariant) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back(function_->ArgsFor(0.05 + 0.002 * (i / 4), i % 4));
  }
  struct Run {
    WorkMeter created;
    WorkMeter stepped;
    std::vector<Bounds> bounds;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  auto run = [&](int threads) {
    Run out;
    PdeProfileCache cache;
    const PdeProfileCache::Scope scope(&cache);
    WorkMeter meter;
    auto objects = InvokeAll(*function_, rows, threads, &meter);
    EXPECT_TRUE(objects.ok()) << objects.status();
    if (!objects.ok()) return out;
    out.created = meter;
    std::vector<ResultObject*> raw;
    for (const auto& object : *objects) raw.push_back(object.get());
    for (int round = 0; round < 5; ++round) {
      for (const Status& status : StepAll(raw, threads)) {
        EXPECT_TRUE(status.ok()) << status;
      }
    }
    out.stepped = meter;
    for (const ResultObject* object : raw) {
      out.bounds.push_back(object->bounds());
    }
    out.hits = cache.hits();
    out.misses = cache.misses();
    return out;
  };
  const Run serial = run(1);
  EXPECT_GT(serial.hits, 0u);
  for (const int threads : {2, 3}) {
    const Run parallel = run(threads);
    for (int kind = 0; kind < WorkMeter::kNumKinds; ++kind) {
      const auto work_kind = static_cast<WorkKind>(kind);
      EXPECT_EQ(serial.created.Count(work_kind),
                parallel.created.Count(work_kind))
          << "threads " << threads << " kind " << kind;
      EXPECT_EQ(serial.stepped.Count(work_kind),
                parallel.stepped.Count(work_kind))
          << "threads " << threads << " kind " << kind;
    }
    EXPECT_EQ(serial.bounds, parallel.bounds) << "threads " << threads;
    EXPECT_EQ(serial.hits, parallel.hits) << "threads " << threads;
    EXPECT_EQ(serial.misses, parallel.misses) << "threads " << threads;
  }
}

TEST(WorkMeterThreadingTest, ConcurrentChargesAreLossless) {
  WorkMeter meter;
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&meter]() {
      for (int i = 0; i < kChargesPerThread; ++i) {
        meter.Charge(WorkKind::kExec, 1);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  EXPECT_EQ(meter.ExecUnits(),
            static_cast<std::uint64_t>(kThreads) * kChargesPerThread);
}

TEST(WorkMeterThreadingTest, CopyAndMergeStillWork) {
  WorkMeter a;
  a.Charge(WorkKind::kExec, 5);
  WorkMeter b = a;  // copy
  b.Charge(WorkKind::kGetState, 2);
  EXPECT_EQ(a.Total(), 5u);
  EXPECT_EQ(b.Total(), 7u);
  a.Merge(b);
  EXPECT_EQ(a.Total(), 12u);
  WorkMeter c;
  c = b;
  EXPECT_EQ(c.Total(), 7u);
}

}  // namespace
}  // namespace vaolib::vao
