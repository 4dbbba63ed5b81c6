// Unit tests for src/operators: selection, MIN/MAX, SUM/AVE, oracle,
// traditional and hybrid operators, driven by FakeResultObjects.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "operators/min_max.h"
#include "operators/operator_base.h"
#include "operators/selection.h"
#include "operators/sum_ave.h"
#include "operators/top_k.h"
#include "operators/traditional.h"
#include "testing/chaos_result_object.h"
#include "vao/synthetic_result_object.h"
#include "fake_result_object.h"

namespace vaolib::operators {
namespace {

using vao::testing::FakeResultObject;

FakeResultObject MakeFake(double true_value, double half_width = 10.0,
                          double skew = 0.5, WorkMeter* meter = nullptr) {
  FakeResultObject::Config config;
  config.true_value = true_value;
  config.initial_half_width = half_width;
  config.skew = skew;
  config.meter = meter;
  return FakeResultObject(config);
}

// ---------------------------------------------------------------------------
// Selection

TEST(SelectionVaoTest, DecidesWithoutIterationWhenBoundsExcludeConstant) {
  auto object = MakeFake(105.0, 2.0);  // bounds [103, 107]
  const SelectionVao vao(Comparator::kGreaterThan, 100.0);
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->passes);
  EXPECT_EQ(outcome->stats.iterations, 0u);
  EXPECT_FALSE(outcome->resolved_as_equal);
}

TEST(SelectionVaoTest, IteratesOnlyUntilConstantExcluded) {
  auto object = MakeFake(105.0, 20.0);  // bounds [85, 125] straddle 100
  const SelectionVao vao(Comparator::kGreaterThan, 100.0);
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->passes);
  EXPECT_GT(outcome->stats.iterations, 0u);
  // Far from converged: the savings the paper is about.
  EXPECT_GT(object.bounds().Width(), object.min_width() * 10);
}

TEST(SelectionVaoTest, LessThanMirrorsGreaterThan) {
  auto object = MakeFake(95.0, 20.0);
  const SelectionVao vao(Comparator::kLessThan, 100.0);
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->passes);
}

TEST(SelectionVaoTest, FailingPredicateDecidedCorrectly) {
  auto object = MakeFake(95.0, 20.0);
  const SelectionVao vao(Comparator::kGreaterThan, 100.0);
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->passes);
}

TEST(SelectionVaoTest, ValueEqualConstantResolvesViaMinWidthRule) {
  // True value exactly at the constant: bounds always straddle, so the VAO
  // converges to minWidth and applies equality semantics.
  auto object = MakeFake(100.0, 16.0);
  const SelectionVao strict(Comparator::kGreaterThan, 100.0);
  auto outcome = strict.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->resolved_as_equal);
  EXPECT_FALSE(outcome->passes);  // strict > fails on equality
  EXPECT_LT(object.bounds().Width(), object.min_width());

  auto object2 = MakeFake(100.0, 16.0);
  const SelectionVao non_strict(Comparator::kGreaterEqual, 100.0);
  outcome = non_strict.Evaluate(&object2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->resolved_as_equal);
  EXPECT_TRUE(outcome->passes);  // >= passes on equality
}

TEST(SelectionVaoTest, AgreesWithExactComparisonOnRandomInputs) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const double truth = rng.Uniform(80.0, 120.0);
    const double constant = rng.Uniform(80.0, 120.0);
    const double skew = rng.Uniform(0.05, 0.95);
    auto object = MakeFake(truth, rng.Uniform(1.0, 30.0), skew);
    const SelectionVao vao(Comparator::kGreaterThan, constant);
    const auto outcome = vao.Evaluate(&object);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->resolved_as_equal) {
      EXPECT_EQ(outcome->passes, truth > constant)
          << "truth " << truth << " constant " << constant;
    } else {
      EXPECT_NEAR(truth, constant, object.min_width());
    }
  }
}

TEST(SelectionVaoTest, NullObjectRejected) {
  const SelectionVao vao(Comparator::kGreaterThan, 0.0);
  EXPECT_FALSE(vao.Evaluate(nullptr).ok());
}

TEST(ComparatorTest, ExactSemantics) {
  EXPECT_TRUE(CompareExact(2.0, Comparator::kGreaterThan, 1.0));
  EXPECT_FALSE(CompareExact(1.0, Comparator::kGreaterThan, 1.0));
  EXPECT_TRUE(CompareExact(1.0, Comparator::kGreaterEqual, 1.0));
  EXPECT_TRUE(CompareExact(0.0, Comparator::kLessThan, 1.0));
  EXPECT_TRUE(CompareExact(1.0, Comparator::kLessEqual, 1.0));
  EXPECT_STREQ(ComparatorToString(Comparator::kGreaterThan), ">");
  EXPECT_STREQ(ComparatorToString(Comparator::kLessEqual), "<=");
}

// ---------------------------------------------------------------------------
// MIN/MAX

TEST(MinMaxVaoTest, FindsMaxAmongSeparatedObjects) {
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(95.0));
  objects.push_back(MakeFake(105.0));
  objects.push_back(MakeFake(88.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  MinMaxOptions options;
  options.epsilon = 0.05;
  const MinMaxVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->winner_index, 1u);
  EXPECT_FALSE(outcome->tie);
  EXPECT_LE(outcome->winner_bounds.Width(), options.epsilon);
  EXPECT_TRUE(outcome->winner_bounds.Contains(105.0));
}

TEST(MinMaxVaoTest, FindsMinSymmetrically) {
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(95.0));
  objects.push_back(MakeFake(105.0));
  objects.push_back(MakeFake(88.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  MinMaxOptions options;
  options.kind = ExtremeKind::kMin;
  options.epsilon = 0.05;
  const MinMaxVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winner_index, 2u);
  EXPECT_TRUE(outcome->winner_bounds.Contains(88.0));
}

TEST(MinMaxVaoTest, CorrectOnRandomSetsAllStrategies) {
  for (const auto strategy :
       {StrategyKind::kGreedy, StrategyKind::kRoundRobin,
        StrategyKind::kRandom}) {
    Rng rng(7);
    Rng strategy_rng(11);
    for (int trial = 0; trial < 50; ++trial) {
      const int n = static_cast<int>(rng.UniformInt(2, 12));
      std::vector<std::unique_ptr<FakeResultObject>> objects;
      std::size_t best = 0;
      double best_value = -1e9;
      for (int i = 0; i < n; ++i) {
        // Keep values >= 1 apart so the winner is never ambiguous at the
        // 0.01 minWidth floor.
        const double value = 50.0 + 1.5 * static_cast<double>(
                                              rng.UniformInt(0, 40));
        if (value > best_value + 0.5) {
          best_value = value;
          best = objects.size();
        }
        FakeResultObject::Config config;
        config.true_value = value;
        config.initial_half_width = rng.Uniform(5.0, 40.0);
        config.skew = rng.Uniform(0.1, 0.9);
        objects.push_back(std::make_unique<FakeResultObject>(config));
      }
      // Regenerate exact dedupe: find true argmax.
      for (std::size_t i = 0; i < objects.size(); ++i) {
        if (objects[i]->true_value() > objects[best]->true_value()) best = i;
      }
      // Skip sets with duplicated maxima (tie semantics tested separately).
      bool duplicated = false;
      for (std::size_t i = 0; i < objects.size(); ++i) {
        if (i != best && objects[i]->true_value() ==
                             objects[best]->true_value()) {
          duplicated = true;
        }
      }
      if (duplicated) continue;

      std::vector<vao::ResultObject*> ptrs;
      for (auto& o : objects) ptrs.push_back(o.get());
      MinMaxOptions options;
      options.epsilon = 0.05;
      options.strategy = strategy;
      options.rng = &strategy_rng;
      const MinMaxVao vao(options);
      const auto outcome = vao.Evaluate(ptrs);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome->winner_index, best);
      EXPECT_TRUE(
          outcome->winner_bounds.Contains(objects[best]->true_value()));
    }
  }
}

TEST(MinMaxVaoTest, IndistinguishableValuesReportTie) {
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(100.0));
  objects.push_back(MakeFake(100.0));
  objects.push_back(MakeFake(100.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  MinMaxOptions options;
  options.epsilon = 0.05;
  const MinMaxVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->tie);
  EXPECT_EQ(outcome->tied_indices.size(), 2u);
  // Everything had to be run to the stopping condition (the paper's worst
  // case for MAX).
  for (const auto& o : objects) {
    EXPECT_LT(o.bounds().Width(), o.min_width());
  }
}

TEST(MinMaxVaoTest, EpsilonBelowMinWidthRejected) {
  auto object = MakeFake(100.0);
  std::vector<vao::ResultObject*> ptrs{&object};
  MinMaxOptions options;
  options.epsilon = 0.001;  // < 0.01 minWidth
  const MinMaxVao vao(options);
  EXPECT_EQ(vao.Evaluate(ptrs).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MinMaxVaoTest, EmptyAndNullInputsRejected) {
  MinMaxOptions options;
  const MinMaxVao vao(options);
  EXPECT_FALSE(vao.Evaluate({}).ok());
  std::vector<vao::ResultObject*> with_null{nullptr};
  EXPECT_FALSE(vao.Evaluate(with_null).ok());
}

TEST(MinMaxVaoTest, RandomStrategyRequiresRng) {
  auto object = MakeFake(100.0);
  std::vector<vao::ResultObject*> ptrs{&object};
  MinMaxOptions options;
  options.strategy = StrategyKind::kRandom;
  const MinMaxVao vao(options);
  EXPECT_FALSE(vao.Evaluate(ptrs).ok());
}

TEST(MinMaxVaoTest, GreedySkipsClearlyDominatedObjects) {
  // A far-below object should never be iterated: it is pruned immediately
  // after the leaders separate from it.
  WorkMeter meter;
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(105.0, 3.0, 0.5, &meter));  // [102, 108]
  objects.push_back(MakeFake(100.0, 3.0, 0.5, &meter));  // [97, 103]
  objects.push_back(MakeFake(10.0, 3.0, 0.5, &meter));   // [7, 13]
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  MinMaxOptions options;
  options.epsilon = 0.05;
  const MinMaxVao vao(options);
  ASSERT_TRUE(vao.Evaluate(ptrs).ok());
  EXPECT_EQ(objects[2].iterations(), 0);
}

TEST(MinMaxVaoTest, ChooseIterChargedToMeter) {
  WorkMeter meter;
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(100.0, 20.0));
  objects.push_back(MakeFake(101.0, 20.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);
  MinMaxOptions options;
  options.epsilon = 0.05;
  options.meter = &meter;
  const MinMaxVao vao(options);
  ASSERT_TRUE(vao.Evaluate(ptrs).ok());
  EXPECT_GT(meter.Count(WorkKind::kChooseIter), 0u);
}

TEST(MinMaxVaoTest, DishonestEstimatesStillTerminate) {
  // est_bounds predicting zero progress must not deadlock the greedy loop.
  std::vector<std::unique_ptr<FakeResultObject>> objects;
  for (const double v : {90.0, 101.0, 100.0}) {
    FakeResultObject::Config config;
    config.true_value = v;
    config.initial_half_width = 10.0;
    config.honest_estimates = false;
    objects.push_back(std::make_unique<FakeResultObject>(config));
  }
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(o.get());
  MinMaxOptions options;
  options.epsilon = 0.05;
  const MinMaxVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winner_index, 1u);
}

TEST(OptimalOracleTest, MatchesVaoAnswerWithFewerOrEqualIterations) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(3, 10));
    std::vector<std::unique_ptr<FakeResultObject>> vao_objects;
    std::vector<std::unique_ptr<FakeResultObject>> oracle_objects;
    std::size_t best = 0;
    for (int i = 0; i < n; ++i) {
      FakeResultObject::Config config;
      config.true_value =
          50.0 + 2.0 * static_cast<double>(rng.UniformInt(0, 30));
      config.initial_half_width = rng.Uniform(5.0, 30.0);
      config.skew = rng.Uniform(0.2, 0.8);
      vao_objects.push_back(std::make_unique<FakeResultObject>(config));
      oracle_objects.push_back(std::make_unique<FakeResultObject>(config));
      if (config.true_value >
          vao_objects[best]->true_value()) {
        best = static_cast<std::size_t>(i);
      }
    }
    bool duplicated = false;
    for (std::size_t i = 0; i < vao_objects.size(); ++i) {
      if (i != best && vao_objects[i]->true_value() ==
                           vao_objects[best]->true_value()) {
        duplicated = true;
      }
    }
    if (duplicated) continue;

    std::vector<vao::ResultObject*> vao_ptrs, oracle_ptrs;
    for (auto& o : vao_objects) vao_ptrs.push_back(o.get());
    for (auto& o : oracle_objects) oracle_ptrs.push_back(o.get());

    MinMaxOptions options;
    options.epsilon = 0.05;
    const MinMaxVao vao(options);
    const auto vao_outcome = vao.Evaluate(vao_ptrs);
    const auto oracle_outcome =
        OptimalExtremeOracle(oracle_ptrs, best, ExtremeKind::kMax, 0.05);
    ASSERT_TRUE(vao_outcome.ok());
    ASSERT_TRUE(oracle_outcome.ok());
    EXPECT_EQ(vao_outcome->winner_index, oracle_outcome->winner_index);
    // The oracle never does more work than the adaptive strategy here
    // because the fakes have uniform per-iteration costs.
    EXPECT_LE(oracle_outcome->stats.iterations, vao_outcome->stats.iterations);
  }
}

TEST(OptimalOracleTest, RejectsOutOfRangeWinner) {
  auto object = MakeFake(1.0);
  std::vector<vao::ResultObject*> ptrs{&object};
  EXPECT_FALSE(OptimalExtremeOracle(ptrs, 5, ExtremeKind::kMax, 0.05).ok());
}

// ---------------------------------------------------------------------------
// SUM / AVE

TEST(SumAveVaoTest, BoundsContainTrueWeightedSum) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 15));
    std::vector<std::unique_ptr<FakeResultObject>> objects;
    std::vector<double> weights;
    double truth = 0.0;
    for (int i = 0; i < n; ++i) {
      FakeResultObject::Config config;
      config.true_value = rng.Uniform(-50.0, 150.0);
      config.initial_half_width = rng.Uniform(1.0, 25.0);
      config.skew = rng.Uniform(0.1, 0.9);
      objects.push_back(std::make_unique<FakeResultObject>(config));
      weights.push_back(rng.Uniform(0.0, 4.0));
      truth += weights.back() * config.true_value;
    }
    std::vector<vao::ResultObject*> ptrs;
    for (auto& o : objects) ptrs.push_back(o.get());

    SumAveOptions options;
    options.epsilon = 0.5;
    const SumAveVao vao(options);
    const auto outcome = vao.Evaluate(ptrs, weights);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_LE(outcome->sum_bounds.Width(), options.epsilon + 1e-9);
    EXPECT_TRUE(outcome->sum_bounds.Contains(truth))
        << outcome->sum_bounds << " truth " << truth;
  }
}

TEST(SumAveVaoTest, ZeroWeightObjectsNeverIterated) {
  WorkMeter meter;
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(100.0, 20.0, 0.5, &meter));
  objects.push_back(MakeFake(100.0, 20.0, 0.5, &meter));
  std::vector<vao::ResultObject*> ptrs{&objects[0], &objects[1]};
  SumAveOptions options;
  options.epsilon = 0.05;
  const SumAveVao vao(options);
  ASSERT_TRUE(vao.Evaluate(ptrs, {1.0, 0.0}).ok());
  EXPECT_GT(objects[0].iterations(), 0);
  EXPECT_EQ(objects[1].iterations(), 0);
}

TEST(SumAveVaoTest, HeavyWeightsGetMoreIterations) {
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(100.0, 20.0));
  objects.push_back(MakeFake(100.0, 20.0));
  std::vector<vao::ResultObject*> ptrs{&objects[0], &objects[1]};
  SumAveOptions options;
  options.epsilon = 2.0;
  const SumAveVao vao(options);
  ASSERT_TRUE(vao.Evaluate(ptrs, {10.0, 0.1}).ok());
  EXPECT_GT(objects[0].iterations(), objects[1].iterations());
}

TEST(SumAveVaoTest, StopsAtMinWidthWhenEpsilonUnreachable) {
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(100.0, 20.0));
  std::vector<vao::ResultObject*> ptrs{&objects[0]};
  SumAveOptions options;
  options.epsilon = 1e-9;  // unreachable: minWidth floor is 0.01
  const SumAveVao vao(options);
  const auto outcome = vao.Evaluate(ptrs, {1.0});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->limited_by_min_width);
  EXPECT_LT(objects[0].bounds().Width(), 0.01);
}

TEST(SumAveVaoTest, AveIsSumWithUniformWeights) {
  std::vector<FakeResultObject> a_objects, b_objects;
  for (const double v : {90.0, 100.0, 110.0}) {
    a_objects.push_back(MakeFake(v, 10.0));
    b_objects.push_back(MakeFake(v, 10.0));
  }
  std::vector<vao::ResultObject*> a_ptrs, b_ptrs;
  for (auto& o : a_objects) a_ptrs.push_back(&o);
  for (auto& o : b_objects) b_ptrs.push_back(&o);
  SumAveOptions options;
  options.epsilon = 0.03;
  const SumAveVao vao(options);
  const auto ave = vao.Evaluate(a_ptrs, AveWeights(3));
  ASSERT_TRUE(ave.ok());
  EXPECT_TRUE(ave->sum_bounds.Contains(100.0));
  EXPECT_LE(ave->sum_bounds.Width(), 0.03 + 1e-12);
}

TEST(SumAveVaoTest, InputValidation) {
  auto object = MakeFake(1.0);
  std::vector<vao::ResultObject*> ptrs{&object};
  SumAveOptions options;
  const SumAveVao vao(options);
  EXPECT_FALSE(vao.Evaluate({}, {}).ok());
  EXPECT_FALSE(vao.Evaluate(ptrs, {1.0, 2.0}).ok());   // length mismatch
  EXPECT_FALSE(vao.Evaluate(ptrs, {-1.0}).ok());       // negative weight
  SumAveOptions bad;
  bad.epsilon = 0.0;
  EXPECT_FALSE(SumAveVao(bad).Evaluate(ptrs, {1.0}).ok());
}

// ---------------------------------------------------------------------------
// Bounds faults during the parallel coarse pre-phase

TEST(AggregateCoarsePhaseTest, BoundsFaultsFailAtEveryThreadCount) {
  // Eight objects with true values 0..70; object 7 (the maximum) turns bad
  // after two iterates, which the coarse pre-phase reaches at threads > 1.
  // Whichever path iterates it -- the serial loop or the coarse phase --
  // the malformed bounds must surface as the same NumericError instead of
  // flowing into the answer.
  for (const testing::FaultKind fault :
       {testing::FaultKind::kNanBounds, testing::FaultKind::kInvertedBounds}) {
    for (const char* task : {"SUM/AVE", "MIN/MAX", "TOP-K"}) {
      for (const int threads : {1, 2}) {
        std::vector<vao::ResultObjectPtr> owned;
        for (int i = 0; i < 8; ++i) {
          vao::SyntheticResultObject::Config config;
          config.true_value = 10.0 * i;
          config.initial_half_width = 16.0;
          auto object = std::make_unique<vao::SyntheticResultObject>(config);
          if (i < 7) {
            owned.push_back(std::move(object));
            continue;
          }
          testing::FaultPlan plan;
          plan.kind = fault;
          plan.trigger_iteration = 2;
          owned.push_back(std::make_unique<testing::ChaosResultObject>(
              std::move(object), plan));
        }
        std::vector<vao::ResultObject*> ptrs;
        for (auto& object : owned) ptrs.push_back(object.get());

        OperatorOptions shared;
        shared.epsilon = 0.05;
        shared.threads = threads;
        shared.coarse_width = 1.0;
        shared.coarse_max_steps = 4;
        Status status;
        if (std::string(task) == "SUM/AVE") {
          SumAveOptions options;
          static_cast<OperatorOptions&>(options) = shared;
          status = SumAveVao(options).Evaluate(ptrs, SumWeights(8)).status();
        } else if (std::string(task) == "MIN/MAX") {
          MinMaxOptions options;
          static_cast<OperatorOptions&>(options) = shared;
          status = MinMaxVao(options).Evaluate(ptrs).status();
        } else {
          TopKOptions options;
          static_cast<OperatorOptions&>(options) = shared;
          options.k = 3;
          status = TopKVao(options).Evaluate(ptrs).status();
        }
        const std::string where = std::string(task) + " " +
                                  testing::FaultKindName(fault) +
                                  " threads=" + std::to_string(threads);
        EXPECT_TRUE(status.Is(StatusCode::kNumericError))
            << where << ": " << status;
        EXPECT_EQ(status.message().rfind(task, 0), 0u)
            << where << ": " << status;
      }
    }
  }
}

TEST(SumWeightsTest, Helpers) {
  EXPECT_EQ(SumWeights(3), (std::vector<double>{1.0, 1.0, 1.0}));
  const auto ave = AveWeights(4);
  EXPECT_DOUBLE_EQ(ave[0], 0.25);
  EXPECT_EQ(AveWeights(0).size(), 0u);
}

// ---------------------------------------------------------------------------
// Hybrid SUM

TEST(HybridSumVaoTest, SkewDecision) {
  HybridSumVao::Options options;
  options.hot_fraction = 0.10;
  options.skew_threshold = 0.5;
  const HybridSumVao hybrid(options);

  // Uniform weights: top 10% holds ~10% of weight -> traditional path.
  EXPECT_FALSE(hybrid.ShouldUseVao(std::vector<double>(100, 1.0)));

  // Hot 10 items hold 90% of the weight -> VAO path.
  std::vector<double> skewed(100, 10.0 / 90.0);
  for (int i = 0; i < 10; ++i) skewed[i] = 9.0;
  EXPECT_TRUE(hybrid.ShouldUseVao(skewed));
}

TEST(HybridSumVaoTest, VaoPathMatchesSumVao) {
  std::vector<FakeResultObject> objects;
  objects.push_back(MakeFake(100.0, 10.0));
  objects.push_back(MakeFake(50.0, 10.0));
  std::vector<vao::ResultObject*> ptrs{&objects[0], &objects[1]};
  HybridSumVao::Options options;
  options.vao.epsilon = 1.0;
  options.skew_threshold = 0.5;
  const HybridSumVao hybrid(options);
  const auto outcome = hybrid.Evaluate(ptrs, {9.0, 1.0});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->used_vao);
  EXPECT_TRUE(outcome->sum.sum_bounds.Contains(9.0 * 100.0 + 50.0));
}

TEST(HybridSumVaoTest, TraditionalPathUsesCallback) {
  // 20 uniformly weighted objects: the top 10% holds ~10% of the weight,
  // well under the 50% threshold, so the hybrid picks the traditional path.
  std::vector<FakeResultObject> objects;
  for (int i = 0; i < 20; ++i) objects.push_back(MakeFake(100.0 + i, 10.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);
  HybridSumVao::Options options;
  options.vao.epsilon = 5.0;
  const HybridSumVao hybrid(options);
  int calls = 0;
  double truth = 0.0;
  for (int i = 0; i < 20; ++i) truth += 100.0 + i;
  const auto outcome = hybrid.Evaluate(
      ptrs, std::vector<double>(20, 1.0),
      [&](std::size_t i) -> Result<double> {
        ++calls;
        return 100.0 + static_cast<double>(i);
      });
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->used_vao);
  EXPECT_EQ(calls, 20);
  EXPECT_TRUE(outcome->sum.sum_bounds.Contains(truth));
  // No VAO iterations happened.
  EXPECT_EQ(objects[0].iterations(), 0);
}

TEST(HybridSumVaoTest, TraditionalFallbackConvergesObjects) {
  std::vector<FakeResultObject> objects;
  for (int i = 0; i < 20; ++i) objects.push_back(MakeFake(100.0, 10.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);
  HybridSumVao::Options options;
  options.vao.epsilon = 5.0;
  const HybridSumVao hybrid(options);
  const auto outcome =
      hybrid.Evaluate(ptrs, std::vector<double>(20, 1.0));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->used_vao);
  EXPECT_LT(objects[0].bounds().Width(), 0.01);
  EXPECT_TRUE(outcome->sum.sum_bounds.Contains(20.0 * 100.0));
}


// ---------------------------------------------------------------------------
// Range (BETWEEN) selection

TEST(RangeSelectionVaoTest, DecidesInsideWithoutFullConvergence) {
  auto object = MakeFake(100.0, 3.0);  // [97, 103] inside [90, 110]
  const RangeSelectionVao vao(90.0, 110.0);
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->passes);
  EXPECT_EQ(outcome->stats.iterations, 0u);
}

TEST(RangeSelectionVaoTest, DecidesOutsideEitherSide) {
  auto low = MakeFake(50.0, 3.0);
  auto high = MakeFake(150.0, 3.0);
  const RangeSelectionVao vao(90.0, 110.0);
  EXPECT_FALSE(vao.Evaluate(&low)->passes);
  EXPECT_FALSE(vao.Evaluate(&high)->passes);
}

TEST(RangeSelectionVaoTest, IteratesWhenStraddlingAnEndpoint) {
  auto object = MakeFake(95.0, 20.0);  // straddles the 90 endpoint
  const RangeSelectionVao vao(90.0, 110.0);
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->passes);
  EXPECT_GT(outcome->stats.iterations, 0u);
}

TEST(RangeSelectionVaoTest, EndpointEqualityFollowsInclusivity) {
  auto inclusive_obj = MakeFake(90.0, 16.0);  // exactly on the endpoint
  const RangeSelectionVao inclusive(90.0, 110.0, /*inclusive=*/true);
  auto outcome = inclusive.Evaluate(&inclusive_obj);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->resolved_as_equal);
  EXPECT_TRUE(outcome->passes);

  auto exclusive_obj = MakeFake(90.0, 16.0);
  const RangeSelectionVao exclusive(90.0, 110.0, /*inclusive=*/false);
  outcome = exclusive.Evaluate(&exclusive_obj);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->resolved_as_equal);
  EXPECT_FALSE(outcome->passes);
}

TEST(RangeSelectionVaoTest, AgreesWithExactMembershipOnRandomInputs) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const double truth = rng.Uniform(60.0, 140.0);
    const double lo = rng.Uniform(70.0, 100.0);
    const double hi = lo + rng.Uniform(1.0, 40.0);
    auto object = MakeFake(truth, rng.Uniform(1.0, 30.0),
                           rng.Uniform(0.1, 0.9));
    const RangeSelectionVao vao(lo, hi);
    const auto outcome = vao.Evaluate(&object);
    ASSERT_TRUE(outcome.ok());
    if (!outcome->resolved_as_equal) {
      EXPECT_EQ(outcome->passes, truth >= lo && truth <= hi)
          << "truth " << truth << " range [" << lo << ", " << hi << "]";
    }
  }
}

TEST(RangeSelectionVaoTest, InputValidation) {
  const RangeSelectionVao bad(10.0, 5.0);
  auto object = MakeFake(7.0);
  EXPECT_FALSE(bad.Evaluate(&object).ok());
  const RangeSelectionVao ok(5.0, 10.0);
  EXPECT_FALSE(ok.Evaluate(nullptr).ok());
}


// ---------------------------------------------------------------------------
// Multi-predicate (shared) selection

TEST(MultiSelectionVaoTest, AllPredicatesDecidedInOnePass) {
  auto object = MakeFake(105.0, 30.0);
  const MultiSelectionVao vao({{Comparator::kGreaterThan, 100.0},
                               {Comparator::kGreaterThan, 110.0},
                               {Comparator::kLessThan, 90.0},
                               {Comparator::kLessEqual, 200.0}});
  const auto outcome = vao.Evaluate(&object);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->passes.size(), 4u);
  EXPECT_TRUE(outcome->passes[0]);   // 105 > 100
  EXPECT_FALSE(outcome->passes[1]);  // 105 > 110 is false
  EXPECT_FALSE(outcome->passes[2]);  // 105 < 90 is false
  EXPECT_TRUE(outcome->passes[3]);   // 105 <= 200
}

TEST(MultiSelectionVaoTest, SharedWorkBeatsSeparateEvaluation) {
  // m predicates over one object: shared evaluation iterates the object
  // once to the hardest predicate; separate evaluation repeats all the
  // early iterations per predicate.
  const std::vector<MultiSelectionVao::Predicate> predicates{
      {Comparator::kGreaterThan, 104.0},
      {Comparator::kGreaterThan, 95.0},
      {Comparator::kGreaterThan, 80.0},
      {Comparator::kGreaterThan, 120.0}};

  WorkMeter shared_meter;
  auto shared_object = MakeFake(105.0, 40.0, 0.5, &shared_meter);
  const MultiSelectionVao shared(predicates);
  ASSERT_TRUE(shared.Evaluate(&shared_object).ok());

  WorkMeter separate_meter;
  for (const auto& p : predicates) {
    auto object = MakeFake(105.0, 40.0, 0.5, &separate_meter);
    const SelectionVao vao(p.cmp, p.constant);
    ASSERT_TRUE(vao.Evaluate(&object).ok());
  }
  EXPECT_LT(shared_meter.Total(), separate_meter.Total());
}

TEST(MultiSelectionVaoTest, AgreesWithSingleSelectionPerPredicate) {
  Rng rng(456);
  for (int trial = 0; trial < 50; ++trial) {
    const double truth = rng.Uniform(80.0, 120.0);
    const double half_width = rng.Uniform(2.0, 30.0);
    const double skew = rng.Uniform(0.1, 0.9);
    std::vector<MultiSelectionVao::Predicate> predicates;
    for (int i = 0; i < 5; ++i) {
      predicates.push_back({rng.Bernoulli(0.5) ? Comparator::kGreaterThan
                                               : Comparator::kLessThan,
                            rng.Uniform(80.0, 120.0)});
    }
    auto shared_object = MakeFake(truth, half_width, skew);
    const MultiSelectionVao shared(predicates);
    const auto multi = shared.Evaluate(&shared_object);
    ASSERT_TRUE(multi.ok());
    for (std::size_t i = 0; i < predicates.size(); ++i) {
      auto object = MakeFake(truth, half_width, skew);
      const SelectionVao single(predicates[i].cmp, predicates[i].constant);
      const auto outcome = single.Evaluate(&object);
      ASSERT_TRUE(outcome.ok());
      if (!multi->resolved_as_equal[i] && !outcome->resolved_as_equal) {
        EXPECT_EQ(multi->passes[i], outcome->passes)
            << "trial " << trial << " predicate " << i;
      }
    }
  }
}

TEST(MultiSelectionVaoTest, InputValidation) {
  const MultiSelectionVao empty({});
  auto object = MakeFake(1.0);
  EXPECT_FALSE(empty.Evaluate(&object).ok());
  const MultiSelectionVao ok({{Comparator::kGreaterThan, 0.0}});
  EXPECT_FALSE(ok.Evaluate(nullptr).ok());
}

}  // namespace
}  // namespace vaolib::operators
