// Tests for the deterministic fault-injection layer (ChaosResultObject /
// ChaosFunction) and for the graceful-degradation paths it exists to
// exercise: bounds sanitization at operator ingest, refinement stall guards,
// iteration budgets, and the executor's strict/degrade resilience policies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "engine/executor.h"
#include "engine/multi_query.h"
#include "operators/min_max.h"
#include "operators/selection.h"
#include "operators/sum_ave.h"
#include "testing/chaos_result_object.h"
#include "testing/invariant_checker.h"
#include "testing/workload_gen.h"
#include "vao/black_box.h"
#include "vao/parallel.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::testing {
namespace {

vao::SyntheticResultObject::Config HonestConfig(double true_value,
                                                WorkMeter* meter = nullptr) {
  vao::SyntheticResultObject::Config config;
  config.true_value = true_value;
  config.initial_half_width = 8.0;
  config.shrink = 0.5;
  config.min_width = 0.01;
  config.meter = meter;
  return config;
}

vao::ResultObjectPtr Poisoned(double true_value, FaultKind kind,
                              int trigger = 0) {
  FaultPlan plan;
  plan.kind = kind;
  plan.trigger_iteration = trigger;
  return std::make_unique<ChaosResultObject>(
      std::make_unique<vao::SyntheticResultObject>(HonestConfig(true_value)),
      plan);
}

TEST(FaultPlanTest, DrawReplaysFromSeed) {
  Rng a(42);
  Rng b(42);
  const FaultPlan first = FaultPlan::Draw(FaultKind::kLyingEstimates, &a);
  const FaultPlan second = FaultPlan::Draw(FaultKind::kLyingEstimates, &b);
  EXPECT_EQ(first.kind, second.kind);
  EXPECT_EQ(first.trigger_iteration, second.trigger_iteration);
  EXPECT_DOUBLE_EQ(first.cost_factor, second.cost_factor);
  EXPECT_DOUBLE_EQ(first.width_factor, second.width_factor);
  EXPECT_GE(first.trigger_iteration, 0);
  EXPECT_LE(first.trigger_iteration, 6);
  EXPECT_GE(first.cost_factor, 1.0 / 16.0);
  EXPECT_LE(first.cost_factor, 16.0);
}

TEST(FaultPlanTest, NamesAndToString) {
  EXPECT_STREQ(FaultKindName(FaultKind::kNanBounds), "nan-bounds");
  FaultPlan plan;
  plan.kind = FaultKind::kStalledConvergence;
  plan.trigger_iteration = 3;
  EXPECT_EQ(plan.ToString(), "stalled-convergence@3");
}

TEST(ChaosFunctionTest, PlanDependsOnArgsNotInvocationOrder) {
  std::vector<vao::SyntheticResultObject::Config> configs;
  for (int row = 0; row < 8; ++row) {
    configs.push_back(HonestConfig(10.0 * row));
  }
  const SyntheticTableFunction inner(std::move(configs));
  ChaosOptions options;
  options.seed = 7;
  options.fault_probability = 1.0;
  const ChaosFunction chaos(&inner, options);

  // PlanFor is a pure function of (args, seed).
  std::vector<FaultPlan> forward;
  for (int row = 0; row < 8; ++row) {
    forward.push_back(chaos.PlanFor({static_cast<double>(row)}));
  }
  for (int row = 7; row >= 0; --row) {
    const FaultPlan replay = chaos.PlanFor({static_cast<double>(row)});
    EXPECT_EQ(replay.kind, forward[row].kind) << "row " << row;
    EXPECT_EQ(replay.trigger_iteration, forward[row].trigger_iteration);
  }

  // Invoke() applies exactly the advertised plan, in any order.
  WorkMeter meter;
  auto object = chaos.Invoke({3.0}, &meter);
  ASSERT_TRUE(object.ok()) << object.status();
  const auto* wrapped =
      dynamic_cast<const ChaosResultObject*>(object.value().get());
  ASSERT_NE(wrapped, nullptr);
  EXPECT_EQ(wrapped->plan().kind, forward[3].kind);
}

TEST(ChaosFunctionTest, HashArgsIsOrderSensitive) {
  EXPECT_NE(HashArgs({1.0, 2.0}), HashArgs({2.0, 1.0}));
  EXPECT_NE(HashArgs({0.0}), HashArgs({-0.0}));  // distinct bit patterns
  EXPECT_EQ(HashArgs({5.0, 7.0}), HashArgs({5.0, 7.0}));
}

// --- Satellite: NaN/Inf/inverted bounds are sanitized at operator ingest ---

TEST(BoundsSanitizationTest, GreaterThanRejectsNanBounds) {
  auto object = Poisoned(10.0, FaultKind::kNanBounds);
  const operators::SelectionVao vao(operators::Comparator::kGreaterThan, 5.0);
  const auto outcome = vao.Evaluate(object.get());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNumericError);
}

TEST(BoundsSanitizationTest, LessThanRejectsInfBounds) {
  auto object = Poisoned(10.0, FaultKind::kInfBounds);
  const operators::SelectionVao vao(operators::Comparator::kLessThan, 5.0);
  const auto outcome = vao.Evaluate(object.get());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNumericError);
}

TEST(BoundsSanitizationTest, BetweenRejectsInvertedBounds) {
  auto object = Poisoned(10.0, FaultKind::kInvertedBounds);
  const operators::RangeSelectionVao vao(5.0, 15.0);
  const auto outcome = vao.Evaluate(object.get());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNumericError);
}

TEST(BoundsSanitizationTest, FaultArmingMidRefinementStillCaught) {
  // The object is honest for 2 iterations, then its bounds go NaN; the
  // operator must catch the corruption on the later read, not just at entry.
  auto object = Poisoned(10.0, FaultKind::kNanBounds, /*trigger=*/2);
  const operators::SelectionVao vao(operators::Comparator::kGreaterThan,
                                    10.001);
  const auto outcome = vao.Evaluate(object.get());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNumericError);
}

TEST(ChaosResultObjectTest, IterateFailurePropagatesAsError) {
  auto object = Poisoned(10.0, FaultKind::kIterateFailure, /*trigger=*/1);
  const operators::SelectionVao vao(operators::Comparator::kGreaterThan,
                                    10.001);
  const auto outcome = vao.Evaluate(object.get());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNumericError);
  EXPECT_NE(outcome.status().ToString().find("injected"), std::string::npos);
}

// --- Satellite: stall guards and iteration budgets, never a hang ---

TEST(StallGuardTest, StalledConvergenceExhaustsSelection) {
  // Frozen wide bounds keep straddling the constant; the stall guard must
  // cut the loop instead of iterating forever.
  auto object = Poisoned(10.0, FaultKind::kStalledConvergence);
  const operators::SelectionVao vao(operators::Comparator::kGreaterThan,
                                    10.0);
  const auto outcome = vao.Evaluate(object.get());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

TEST(StallGuardTest, ConvergeToMinWidthDetectsStall) {
  auto object = Poisoned(10.0, FaultKind::kStalledConvergence, /*trigger=*/3);
  const auto converged = vao::ConvergeToMinWidth(object.get());
  ASSERT_FALSE(converged.ok());
  EXPECT_EQ(converged.status().code(), StatusCode::kResourceExhausted);
}

TEST(IterationBudgetTest, ConvergeToMinWidthHonorsBudget) {
  // Honest but slow: a tiny budget must surface ResourceExhausted rather
  // than converge.
  auto config = HonestConfig(10.0);
  config.shrink = 0.9;
  vao::SyntheticResultObject object(config);
  const auto converged = vao::ConvergeToMinWidth(&object, /*max_iterations=*/3);
  ASSERT_FALSE(converged.ok());
  EXPECT_EQ(converged.status().code(), StatusCode::kResourceExhausted);
}

TEST(IterationBudgetTest, ConvergeAllReportsLowestFailingObject) {
  auto healthy = std::make_unique<vao::SyntheticResultObject>(
      HonestConfig(1.0));
  auto stalled = Poisoned(2.0, FaultKind::kStalledConvergence);
  auto healthy2 = std::make_unique<vao::SyntheticResultObject>(
      HonestConfig(3.0));
  const std::vector<vao::ResultObject*> objects = {
      healthy.get(), stalled.get(), healthy2.get()};
  for (const int threads : {1, 3}) {
    auto fresh_stalled = Poisoned(2.0, FaultKind::kStalledConvergence);
    auto h1 = std::make_unique<vao::SyntheticResultObject>(HonestConfig(1.0));
    auto h3 = std::make_unique<vao::SyntheticResultObject>(HonestConfig(3.0));
    const std::vector<vao::ResultObject*> batch = {
        h1.get(), fresh_stalled.get(), h3.get()};
    const Status status = vao::ConvergeAllToMinWidth(batch, threads);
    ASSERT_FALSE(status.ok()) << "threads=" << threads;
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    // The healthy objects were still attempted.
    EXPECT_TRUE(h1->AtStoppingCondition());
    EXPECT_TRUE(h3->AtStoppingCondition());
  }
}

// --- Lying estimates may waste work but never change answers ---

TEST(LyingEstimatesTest, MinMaxAnswerUnchanged) {
  const std::vector<double> values = {3.0, 41.0, -7.0, 18.0, 40.0};
  for (const double width_factor : {1.0 / 16.0, 1.0, 16.0}) {
    std::vector<vao::ResultObjectPtr> owned;
    std::vector<vao::ResultObject*> objects;
    for (const double v : values) {
      FaultPlan plan;
      plan.kind = FaultKind::kLyingEstimates;
      plan.cost_factor = 1.0 / width_factor;
      plan.width_factor = width_factor;
      owned.push_back(std::make_unique<ChaosResultObject>(
          std::make_unique<vao::SyntheticResultObject>(HonestConfig(v)),
          plan));
      objects.push_back(owned.back().get());
    }
    operators::MinMaxOptions options;
    options.kind = operators::ExtremeKind::kMax;
    options.epsilon = 0.05;
    const auto outcome = operators::MinMaxVao(options).Evaluate(objects);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->winner_index, 1u) << "width_factor=" << width_factor;
    EXPECT_TRUE(outcome->winner_bounds.Contains(41.0));
    EXPECT_LE(outcome->winner_bounds.Width(), 0.05 + 1e-12);
  }
}

TEST(LyingEstimatesTest, SumAnswerStaysSound) {
  const std::vector<double> values = {3.0, 41.0, -7.0, 18.0};
  double true_sum = 0.0;
  std::vector<vao::ResultObjectPtr> owned;
  std::vector<vao::ResultObject*> objects;
  for (const double v : values) {
    true_sum += v;
    FaultPlan plan;
    plan.kind = FaultKind::kLyingEstimates;
    plan.cost_factor = 16.0;
    plan.width_factor = 1.0 / 16.0;  // wildly overpromises progress
    owned.push_back(std::make_unique<ChaosResultObject>(
        std::make_unique<vao::SyntheticResultObject>(HonestConfig(v)), plan));
    objects.push_back(owned.back().get());
  }
  operators::SumAveOptions options;
  options.epsilon = 0.5;
  const auto outcome = operators::SumAveVao(options).Evaluate(
      objects, std::vector<double>(values.size(), 1.0));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->sum_bounds.Contains(true_sum));
  EXPECT_LE(outcome->sum_bounds.Width(), 0.5 + 1e-12);
}

// --- Executor resilience policies under injected faults ---

class ChaosExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { workload_ = MakeWorkload(WorkloadSpec{}, 20260805); }

  engine::Query SelectQuery(const vao::VariableAccuracyFunction* function,
                            double constant) const {
    engine::Query query;
    query.kind = engine::QueryKind::kSelect;
    query.function = function;
    query.args = {engine::ArgRef::RelationField("id")};
    query.cmp = operators::Comparator::kGreaterThan;
    query.constant = constant;
    return query;
  }

  engine::Query SumQuery(const vao::VariableAccuracyFunction* function) const {
    engine::Query query;
    query.kind = engine::QueryKind::kSum;
    query.function = function;
    query.args = {engine::ArgRef::RelationField("id")};
    query.epsilon = 1.0;
    return query;
  }

  Workload workload_;
};

TEST_F(ChaosExecutorTest, StrictPolicyFailsTheTick) {
  ChaosOptions options;
  options.fault_probability = 1.0;
  options.kinds = {FaultKind::kNanBounds};
  const ChaosFunction chaos(workload_.function.get(), options);
  auto executor = engine::CqExecutor::Create(
      &workload_.relation, engine::Schema{}, SelectQuery(&chaos, 0.0),
      engine::ExecutionMode::kVao, /*threads=*/1,
      engine::ResiliencePolicy::kStrict);
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto tick = executor.value()->ProcessTick({});
  ASSERT_FALSE(tick.ok());
  EXPECT_EQ(tick.status().code(), StatusCode::kNumericError);
}

TEST_F(ChaosExecutorTest, DegradePolicyQuarantinesSelectionRows) {
  ChaosOptions options;
  options.fault_probability = 0.5;
  options.kinds = {FaultKind::kNanBounds, FaultKind::kIterateFailure,
                   FaultKind::kStalledConvergence};
  const ChaosFunction chaos(workload_.function.get(), options);
  for (const int threads : {1, 3}) {
    auto executor = engine::CqExecutor::Create(
        &workload_.relation, engine::Schema{}, SelectQuery(&chaos, 0.0),
        engine::ExecutionMode::kVao, threads,
        engine::ResiliencePolicy::kDegrade);
    ASSERT_TRUE(executor.ok()) << executor.status();
    const auto tick = executor.value()->ProcessTick({});
    ASSERT_TRUE(tick.ok()) << tick.status();
    EXPECT_TRUE(tick->degraded);
    EXPECT_FALSE(tick->degradation_cause.ok());
    EXPECT_FALSE(tick->quarantined_rows.empty());
    EXPECT_TRUE(InvariantChecker::CheckTickAccounting(*tick).ok())
        << InvariantChecker::CheckTickAccounting(*tick);
    // Quarantined rows never appear among the passing rows.
    for (const std::size_t row : tick->quarantined_rows) {
      EXPECT_EQ(std::count(tick->passing_rows.begin(),
                           tick->passing_rows.end(), row),
                0);
    }
    // Healthy rows still answer correctly against the known true values.
    for (const std::size_t row : tick->passing_rows) {
      EXPECT_GT(workload_.true_values[row], 0.0 - workload_.min_width);
    }
  }
}

TEST_F(ChaosExecutorTest, QuarantineSetIsThreadCountInvariant) {
  ChaosOptions options;
  options.fault_probability = 0.5;
  options.kinds = {FaultKind::kNanBounds};
  const ChaosFunction chaos(workload_.function.get(), options);
  std::vector<std::size_t> reference;
  for (const int threads : {1, 2, 4}) {
    auto executor = engine::CqExecutor::Create(
        &workload_.relation, engine::Schema{}, SelectQuery(&chaos, 0.0),
        engine::ExecutionMode::kVao, threads,
        engine::ResiliencePolicy::kDegrade);
    ASSERT_TRUE(executor.ok()) << executor.status();
    const auto tick = executor.value()->ProcessTick({});
    ASSERT_TRUE(tick.ok()) << tick.status();
    if (threads == 1) {
      reference = tick->quarantined_rows;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(tick->quarantined_rows, reference) << "threads=" << threads;
    }
  }
}

TEST_F(ChaosExecutorTest, TransientFaultFallsBackToBlackBox) {
  // The fault fires only on the first Invoke() per argument vector; the
  // degrade policy's calibrated black-box fallback re-invokes and succeeds.
  ChaosOptions options;
  options.fault_probability = 1.0;
  options.kinds = {FaultKind::kIterateFailure};
  options.transient = true;
  const ChaosFunction chaos(workload_.function.get(), options);
  auto executor = engine::CqExecutor::Create(
      &workload_.relation, engine::Schema{}, SumQuery(&chaos),
      engine::ExecutionMode::kVao, /*threads=*/1,
      engine::ResiliencePolicy::kDegrade);
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto tick = executor.value()->ProcessTick({});
  ASSERT_TRUE(tick.ok()) << tick.status();
  EXPECT_TRUE(tick->degraded);
  EXPECT_EQ(tick->degradation_cause.code(), StatusCode::kNumericError);
  ASSERT_TRUE(tick->aggregate_bounds.IsValid());
  double true_sum = 0.0;
  double slack = 0.0;
  for (std::size_t row = 0; row < workload_.true_values.size(); ++row) {
    true_sum += workload_.true_values[row];
    slack += workload_.min_width;
  }
  EXPECT_GE(true_sum, tick->aggregate_bounds.lo - slack);
  EXPECT_LE(true_sum, tick->aggregate_bounds.hi + slack);
}

TEST_F(ChaosExecutorTest, EveryFaultKindDegradesGracefully) {
  // Acceptance sweep: each fault category, pushed through both a selection
  // and an aggregate, must produce either an answer or an error Status --
  // never a crash or a hang.
  const FaultKind kinds[] = {
      FaultKind::kLyingEstimates,  FaultKind::kStalledConvergence,
      FaultKind::kNanBounds,       FaultKind::kInfBounds,
      FaultKind::kInvertedBounds,  FaultKind::kIterateFailure,
  };
  for (const FaultKind kind : kinds) {
    ChaosOptions options;
    options.fault_probability = 0.5;
    options.kinds = {kind};
    const ChaosFunction chaos(workload_.function.get(), options);
    for (const engine::Query& query :
         {SelectQuery(&chaos, 0.0), SumQuery(&chaos)}) {
      auto executor = engine::CqExecutor::Create(
          &workload_.relation, engine::Schema{}, query,
          engine::ExecutionMode::kVao, /*threads=*/1,
          engine::ResiliencePolicy::kDegrade);
      ASSERT_TRUE(executor.ok()) << executor.status();
      const auto tick = executor.value()->ProcessTick({});
      if (tick.ok()) {
        EXPECT_TRUE(InvariantChecker::CheckTickAccounting(*tick).ok())
            << FaultKindName(kind) << ": "
            << InvariantChecker::CheckTickAccounting(*tick);
      } else {
        // A persistent aggregate fault can defeat the fallback too; it must
        // then surface as a real error code, not as a wrong answer.
        EXPECT_FALSE(tick.status().ToString().empty());
      }
    }
  }
}

TEST_F(ChaosExecutorTest, StalledMaxIsDegradedInBothExecutors) {
  // A MAX whose objects stall above minWidth still answers soundly, but
  // coarser than epsilon: both executors must flag that the same way.
  ChaosOptions options;
  options.fault_probability = 1.0;
  options.kinds = {FaultKind::kStalledConvergence};
  const ChaosFunction chaos(workload_.function.get(), options);
  engine::Query max;
  max.kind = engine::QueryKind::kMax;
  max.function = &chaos;
  max.args = {engine::ArgRef::RelationField("id")};
  max.epsilon = 0.05;

  auto solo = engine::CqExecutor::Create(&workload_.relation,
                                         engine::Schema{}, max,
                                         engine::ExecutionMode::kVao);
  ASSERT_TRUE(solo.ok()) << solo.status();
  const auto solo_tick = solo.value()->ProcessTick({});
  ASSERT_TRUE(solo_tick.ok()) << solo_tick.status();

  auto multi = engine::MultiQueryExecutor::Create(&workload_.relation,
                                                  engine::Schema{}, {max});
  ASSERT_TRUE(multi.ok()) << multi.status();
  const auto multi_ticks = multi.value()->ProcessTick({});
  ASSERT_TRUE(multi_ticks.ok()) << multi_ticks.status();
  const engine::TickResult& multi_tick = (*multi_ticks)[0];

  for (const engine::TickResult* tick : {&*solo_tick, &multi_tick}) {
    EXPECT_GT(tick->stats.stalled_objects, 0u);
    EXPECT_TRUE(tick->degraded);
    EXPECT_EQ(tick->degradation_cause.code(),
              StatusCode::kResourceExhausted);
    EXPECT_TRUE(InvariantChecker::CheckTickAccounting(*tick).ok())
        << InvariantChecker::CheckTickAccounting(*tick);
  }
  EXPECT_EQ(multi_tick.degradation_cause.message(),
            solo_tick->degradation_cause.message());
  EXPECT_EQ(multi_tick.winner_row, solo_tick->winner_row);
}

TEST_F(ChaosExecutorTest, StalledSelectionIsDegradedInBothExecutors) {
  // Every row's refinement freezes after a few iterates. Rows whose frozen
  // bounds still straddle the constant cannot be decided; under any policy
  // both executors must quarantine them (never decide them by the minWidth
  // equality rule) and flag the tick degraded.
  ChaosOptions options;
  options.fault_probability = 1.0;
  options.kinds = {FaultKind::kStalledConvergence};
  const ChaosFunction chaos(workload_.function.get(), options);
  engine::Query select = SelectQuery(&chaos, workload_.true_values[3] - 0.5);
  select.cmp = operators::Comparator::kGreaterEqual;

  auto solo = engine::CqExecutor::Create(&workload_.relation,
                                         engine::Schema{}, select,
                                         engine::ExecutionMode::kVao);
  ASSERT_TRUE(solo.ok()) << solo.status();
  const auto solo_tick = solo.value()->ProcessTick({});
  ASSERT_TRUE(solo_tick.ok()) << solo_tick.status();

  auto multi = engine::MultiQueryExecutor::Create(&workload_.relation,
                                                  engine::Schema{}, {select});
  ASSERT_TRUE(multi.ok()) << multi.status();
  const auto multi_ticks = multi.value()->ProcessTick({});
  ASSERT_TRUE(multi_ticks.ok()) << multi_ticks.status();
  const engine::TickResult& multi_tick = (*multi_ticks)[0];

  for (const engine::TickResult* tick : {&*solo_tick, &multi_tick}) {
    EXPECT_FALSE(tick->quarantined_rows.empty());
    EXPECT_EQ(tick->stats.stalled_objects, tick->quarantined_rows.size());
    EXPECT_TRUE(tick->degraded);
    EXPECT_EQ(tick->degradation_cause.code(),
              StatusCode::kResourceExhausted);
    EXPECT_TRUE(InvariantChecker::CheckTickAccounting(*tick).ok())
        << InvariantChecker::CheckTickAccounting(*tick);
    // Every row that did answer answers correctly.
    for (const std::size_t row : tick->passing_rows) {
      EXPECT_GE(workload_.true_values[row],
                select.constant - workload_.min_width)
          << "row " << row;
    }
  }
  EXPECT_EQ(multi_tick.quarantined_rows, solo_tick->quarantined_rows);
  EXPECT_EQ(multi_tick.passing_rows, solo_tick->passing_rows);
  EXPECT_EQ(multi_tick.degradation_cause.message(),
            solo_tick->degradation_cause.message());
}

TEST_F(ChaosExecutorTest, GroupTickReportSumsStallsAndQuarantines) {
  // The tick-wide report of a group sums the operator section over its
  // queries, stall and quarantine counts included, so
  // vaolib_query_stalled_objects reads the group's stalls.
  ChaosOptions options;
  options.fault_probability = 1.0;
  options.kinds = {FaultKind::kStalledConvergence};
  const ChaosFunction chaos(workload_.function.get(), options);
  engine::Query select = SelectQuery(&chaos, workload_.true_values[3] - 0.5);
  select.cmp = operators::Comparator::kGreaterEqual;
  engine::Query max = select;
  max.kind = engine::QueryKind::kMax;
  max.epsilon = 0.05;

  auto multi = engine::MultiQueryExecutor::Create(
      &workload_.relation, engine::Schema{}, {select, max});
  ASSERT_TRUE(multi.ok()) << multi.status();
  const auto ticks = multi.value()->ProcessTick({});
  ASSERT_TRUE(ticks.ok()) << ticks.status();
  std::uint64_t stalled = 0;
  std::uint64_t quarantined = 0;
  for (const engine::TickResult& tick : *ticks) {
    stalled += tick.report.stalled_objects;
    quarantined += tick.report.rows_quarantined;
  }
  EXPECT_GT(stalled, 0u);
  EXPECT_GT(quarantined, 0u);
  const obs::ExecutionReport& report = multi.value()->last_tick_report();
  EXPECT_EQ(report.stalled_objects, stalled);
  EXPECT_EQ(report.rows_quarantined, quarantined);
}

TEST(InvariantCheckerTest, CheckRefinementAcceptsHonestObject) {
  WorkMeter meter;
  vao::SyntheticResultObject object(HonestConfig(5.0, &meter));
  EXPECT_TRUE(InvariantChecker::CheckRefinement(&object, 256, &meter).ok());
}

TEST(InvariantCheckerTest, CheckTickAccountingChecksSelectionQuarantine) {
  engine::TickResult healthy;
  healthy.kind = engine::QueryKind::kSelect;
  healthy.passing_rows = {0, 4};
  healthy.quarantined_rows = {1, 3};
  healthy.report.rows_quarantined = 2;
  healthy.stats.stalled_objects = 1;
  healthy.report.stalled_objects = 1;
  healthy.degraded = true;
  healthy.degradation_cause = Status::ResourceExhausted("stalled");
  EXPECT_TRUE(InvariantChecker::CheckTickAccounting(healthy).ok())
      << InvariantChecker::CheckTickAccounting(healthy);

  engine::TickResult unsorted = healthy;
  unsorted.quarantined_rows = {3, 1};
  engine::TickResult overlapping = healthy;
  overlapping.passing_rows = {0, 3};
  engine::TickResult uncounted_stall = healthy;
  uncounted_stall.stats.stalled_objects = 3;
  uncounted_stall.report.stalled_objects = 3;
  engine::TickResult undegraded = healthy;
  undegraded.degraded = false;
  undegraded.degradation_cause = Status::OK();
  for (const engine::TickResult* tick :
       {&unsorted, &overlapping, &uncounted_stall, &undegraded}) {
    EXPECT_EQ(InvariantChecker::CheckTickAccounting(*tick).code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(InvariantCheckerTest, CheckRefinementFlagsEscapingBounds) {
  // Inverted bounds violate nesting (and validity) immediately.
  auto object = Poisoned(5.0, FaultKind::kInvertedBounds, /*trigger=*/1);
  const Status status = InvariantChecker::CheckRefinement(object.get());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace vaolib::testing
