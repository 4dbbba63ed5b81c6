// Tests for the approximate answer tier: row samplers (determinism,
// uniformity, allocation), the numerically stable accumulators behind the
// CLT intervals, NormalQuantile, the vao::Answer value type, and
// SampledSumTask end to end (soundness at full exhaustion, early stopping,
// n == N degeneration to hard bounds).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/stats.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/sampling/sampled_sum.h"
#include "engine/sampling/sampler.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "operators/iteration_task.h"
#include "testing/chaos_result_object.h"
#include "testing/workload_gen.h"
#include "vao/answer.h"
#include "vao/synthetic_result_object.h"

namespace vaolib {
namespace {

using engine::sampling::PrefixSampler;
using engine::sampling::ReservoirSample;
using engine::sampling::SampledAggregateOptions;
using engine::sampling::SampledSumTask;

// ---------------------------------------------------------------------------
// PrefixSampler

TEST(PrefixSamplerTest, DrawsAreUniqueInRangeAndDeterministic) {
  PrefixSampler a(100, 7);
  PrefixSampler b(100, 7);
  const auto first_a = a.Draw(10);
  const auto first_b = b.Draw(10);
  EXPECT_EQ(first_a, first_b);
  const auto second_a = a.Draw(25);
  EXPECT_EQ(second_a, b.Draw(25));
  EXPECT_EQ(a.drawn(), 35u);

  std::set<std::size_t> seen(a.sample().begin(), a.sample().end());
  EXPECT_EQ(seen.size(), a.drawn());  // no repeats
  for (const std::size_t row : a.sample()) EXPECT_LT(row, 100u);
}

TEST(PrefixSamplerTest, ExhaustionYieldsFullPermutation) {
  PrefixSampler sampler(17, 3);
  sampler.Draw(5);
  EXPECT_FALSE(sampler.Exhausted());
  const auto rest = sampler.Draw(100);  // over-ask: clamps to remaining
  EXPECT_EQ(rest.size(), 12u);
  EXPECT_TRUE(sampler.Exhausted());
  EXPECT_TRUE(sampler.Draw(1).empty());

  std::set<std::size_t> seen(sampler.sample().begin(),
                             sampler.sample().end());
  EXPECT_EQ(seen.size(), 17u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 16u);
}

TEST(PrefixSamplerTest, FirstDrawRoughlyUniform) {
  // The first drawn row over many seeds should hit every slot of a small
  // population at ~1/n frequency; a loose band catches gross bias.
  constexpr std::size_t kPop = 8;
  constexpr int kTrials = 2000;
  std::vector<int> counts(kPop, 0);
  for (int t = 0; t < kTrials; ++t) {
    PrefixSampler sampler(kPop, 1000 + static_cast<std::uint64_t>(t));
    ++counts[sampler.Draw(1).front()];
  }
  for (const int c : counts) {
    EXPECT_GT(c, kTrials / kPop / 2);
    EXPECT_LT(c, kTrials / kPop * 2);
  }
}

// ---------------------------------------------------------------------------
// ReservoirSample / allocation / stratified

TEST(ReservoirSampleTest, WholePopulationWhenKCoversIt) {
  const auto all = ReservoirSample(6, 6, 11);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(ReservoirSample(6, 99, 11).size(), 6u);
  EXPECT_TRUE(ReservoirSample(6, 0, 11).empty());
}

TEST(ReservoirSampleTest, SortedUniqueDeterministic) {
  const auto s1 = ReservoirSample(1000, 40, 5);
  const auto s2 = ReservoirSample(1000, 40, 5);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 40u);
  EXPECT_TRUE(std::is_sorted(s1.begin(), s1.end()));
  EXPECT_EQ(std::set<std::size_t>(s1.begin(), s1.end()).size(), 40u);
  EXPECT_LT(s1.back(), 1000u);
  // A different seed must (overwhelmingly) pick a different set.
  EXPECT_NE(s1, ReservoirSample(1000, 40, 6));
}

// ---------------------------------------------------------------------------
// Accumulators

TEST(NeumaierSumTest, RecoversCancelledLowOrderBits) {
  // The classic case naive += gets wrong: 1 + 1e100 + 1 - 1e100 == 2.
  NeumaierSum sum;
  sum.Add(1.0);
  sum.Add(1e100);
  sum.Add(1.0);
  sum.Add(-1e100);
  EXPECT_DOUBLE_EQ(sum.Sum(), 2.0);

  double naive = 0.0;
  for (const double x : {1.0, 1e100, 1.0, -1e100}) naive += x;
  EXPECT_NE(naive, 2.0);
}

TEST(NormalQuantileTest, KnownValuesAndSymmetry) {
  EXPECT_DOUBLE_EQ(NormalQuantile(0.5), 0.0);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644854, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.025), -NormalQuantile(0.975), 1e-9);
  EXPECT_EQ(NormalQuantile(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(NormalQuantile(1.0), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(NormalQuantile(-0.1)));
  EXPECT_TRUE(std::isnan(NormalQuantile(1.1)));
}

// ---------------------------------------------------------------------------
// vao::Answer

TEST(AnswerTest, BoundsLiftIsExactMode) {
  const Bounds b(1.0, 3.0);
  const vao::Answer answer = b;  // implicit lift
  EXPECT_EQ(answer.mode, vao::AnswerMode::kExact);
  EXPECT_FALSE(answer.approximate());
  EXPECT_DOUBLE_EQ(answer.confidence, 1.0);
  EXPECT_EQ(answer.sample_size, 0u);
  EXPECT_DOUBLE_EQ(answer.deterministic_width, 2.0);
  EXPECT_DOUBLE_EQ(answer.sampling_width, 0.0);
  // Derived-to-base comparisons keep working at every old call site.
  EXPECT_EQ(answer.bounds(), b);
  EXPECT_TRUE(answer.Contains(2.0));
  EXPECT_DOUBLE_EQ(answer.Width(), 2.0);
}

TEST(AnswerTest, ApproximateFactoryCarriesProvenance) {
  const vao::Answer answer = vao::Answer::Approximate(
      Bounds(10.0, 20.0), 0.95, 64, 1000, 4.0, 6.0);
  EXPECT_TRUE(answer.approximate());
  EXPECT_STREQ(vao::AnswerModeName(answer.mode), "approximate");
  EXPECT_DOUBLE_EQ(answer.confidence, 0.95);
  EXPECT_EQ(answer.sample_size, 64u);
  EXPECT_EQ(answer.population_size, 1000u);
  EXPECT_DOUBLE_EQ(answer.deterministic_width + answer.sampling_width,
                   answer.Width());
}

// ---------------------------------------------------------------------------
// SampledSumTask

struct DrivenSum {
  engine::sampling::SampledSumOutcome outcome;
  double true_sum = 0.0;
  std::size_t rows = 0;
};

// Builds a positive-valued synthetic workload and drives a sampled unit-
// weight SUM over it to completion.
Result<DrivenSum> DriveSampledSum(std::size_t rows, double target_rel_error,
                                  std::uint64_t seed,
                                  std::size_t max_samples = 0,
                                  double epsilon = 1.0) {
  testing::WorkloadSpec spec;
  spec.rows = rows;
  spec.value_lo = 50.0;
  spec.value_hi = 150.0;
  const testing::Workload workload = testing::MakeWorkload(spec, seed);

  SampledAggregateOptions options;
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = target_rel_error;
  options.spec.seed = seed;
  options.spec.initial_samples = 16;
  options.spec.max_samples = max_samples;
  options.epsilon = epsilon;

  WorkMeter meter;
  const auto* function = workload.function.get();
  VAOLIB_ASSIGN_OR_RETURN(
      auto task,
      SampledSumTask::Create(
          options, rows,
          [function, &meter](std::size_t row) {
            return function->Invoke({static_cast<double>(row)}, &meter);
          },
          [](std::size_t) { return 1.0; }));

  VAOLIB_RETURN_IF_ERROR(operators::DriveTask(task.get(), &meter));

  DrivenSum result;
  result.outcome = task->Snapshot();
  result.rows = rows;
  NeumaierSum truth;
  for (const double v : workload.true_values) truth.Add(v);
  result.true_sum = truth.Sum();
  return result;
}

TEST(SampledSumTaskTest, UnreachableTargetDegeneratesToHardBounds) {
  // An impossible relative-error target (epsilon floor disabled too) forces
  // the task to exhaust the population; at n == N the sampling term
  // vanishes and the interval is the hard weighted bound sum, which must
  // contain the truth outright.
  const auto driven =
      DriveSampledSum(60, 1e-12, 21, /*max_samples=*/0, /*epsilon=*/1e-9)
          .ValueOrDie();
  const vao::Answer& answer = driven.outcome.answer;
  EXPECT_TRUE(answer.approximate());
  EXPECT_EQ(answer.sample_size, driven.rows);
  EXPECT_EQ(answer.population_size, driven.rows);
  EXPECT_DOUBLE_EQ(answer.sampling_width, 0.0);
  EXPECT_TRUE(answer.Contains(driven.true_sum))
      << answer << " vs " << driven.true_sum;
  EXPECT_TRUE(driven.outcome.limited_by_min_width);
}

TEST(SampledSumTaskTest, LooseTargetStopsEarlyAndCovers) {
  const auto driven = DriveSampledSum(400, 0.05, 33).ValueOrDie();
  const vao::Answer& answer = driven.outcome.answer;
  EXPECT_TRUE(driven.outcome.converged);
  EXPECT_TRUE(answer.approximate());
  EXPECT_GE(answer.sample_size, 2u);
  EXPECT_LT(answer.sample_size, driven.rows);  // genuinely sampled
  EXPECT_DOUBLE_EQ(answer.confidence, 0.95);
  EXPECT_GT(answer.sampling_width, 0.0);
  // Combined interval met the relative target...
  EXPECT_LE(answer.Width(),
            2.0 * 0.05 * std::abs(answer.Mid()) + 1e-9);
  // ...and covers the truth on this seed (deterministic replay).
  EXPECT_TRUE(answer.Contains(driven.true_sum))
      << answer << " vs " << driven.true_sum;
  // Deterministic: same seed, same answer.
  const auto again = DriveSampledSum(400, 0.05, 33).ValueOrDie();
  EXPECT_DOUBLE_EQ(again.outcome.answer.lo, answer.lo);
  EXPECT_DOUBLE_EQ(again.outcome.answer.hi, answer.hi);
  EXPECT_EQ(again.outcome.answer.sample_size, answer.sample_size);
}

TEST(SampledSumTaskTest, MaxSamplesCapIsHonored) {
  const auto driven = DriveSampledSum(200, 1e-12, 5, /*max_samples=*/32);
  ASSERT_TRUE(driven.ok());
  const vao::Answer& answer = driven.ValueOrDie().outcome.answer;
  EXPECT_LE(answer.sample_size, 32u);
  // Capped below the population, the run cannot claim convergence on an
  // impossible target.
  EXPECT_FALSE(driven.ValueOrDie().outcome.converged);
}

TEST(SampledSumTaskTest, CreateValidatesConfig) {
  SampledAggregateOptions options;
  const auto broken = [](std::size_t) -> Result<vao::ResultObjectPtr> {
    return Status::NumericError("row exploded");
  };
  const auto weight = [](std::size_t) { return 1.0; };
  EXPECT_FALSE(SampledSumTask::Create(options, 0, broken, weight).ok());
  options.spec.confidence = 1.5;
  EXPECT_FALSE(SampledSumTask::Create(options, 10, broken, weight).ok());
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = 0.0;
  EXPECT_FALSE(SampledSumTask::Create(options, 10, broken, weight).ok());
  options.spec.target_rel_error = 0.01;
  EXPECT_FALSE(SampledSumTask::Create(options, 10, nullptr, weight).ok());

  // Create() draws the initial sample, so row materialization failures
  // surface here rather than at the first Step().
  const auto exploded = SampledSumTask::Create(options, 10, broken, weight);
  ASSERT_FALSE(exploded.ok());
  EXPECT_TRUE(exploded.status().Is(StatusCode::kNumericError));

  // A working factory yields a snapshot-ready task.
  testing::WorkloadSpec spec;
  spec.rows = 10;
  const testing::Workload workload = testing::MakeWorkload(spec, 4);
  const auto* function = workload.function.get();
  const auto created = SampledSumTask::Create(
      options, spec.rows,
      [function](std::size_t row) {
        return function->Invoke({static_cast<double>(row)}, nullptr);
      },
      weight);
  ASSERT_TRUE(created.ok()) << created.status();
}

TEST(SampledSumTaskTest, SnapshotBeforeAnyStepIsVarianceBacked) {
  // A budgeted scheduler may consume a snapshot before the task's first
  // Step(). The eager initial draw must make that snapshot rest on a real
  // variance estimate -- never a zero-width interval around 0 presented at
  // the stated confidence.
  testing::WorkloadSpec spec;
  spec.rows = 200;
  spec.value_lo = 50.0;
  spec.value_hi = 150.0;
  const testing::Workload workload = testing::MakeWorkload(spec, 17);

  SampledAggregateOptions options;
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = 1e-9;  // no instant convergence
  options.spec.seed = 17;
  options.spec.initial_samples = 16;
  const auto* function = workload.function.get();
  auto task = SampledSumTask::Create(
                  options, spec.rows,
                  [function](std::size_t row) {
                    return function->Invoke({static_cast<double>(row)},
                                            nullptr);
                  },
                  [](std::size_t) { return 1.0; })
                  .ValueOrDie();

  const vao::Answer answer = task->Snapshot().answer;  // no Step() ever ran
  EXPECT_GE(answer.sample_size, 2u);
  EXPECT_DOUBLE_EQ(answer.confidence, 0.95);
  EXPECT_TRUE(answer.bounds().IsValid());
  EXPECT_GT(answer.Width(), 0.0);
  EXPECT_GT(answer.sampling_width, 0.0);
  NeumaierSum truth;
  for (const double v : workload.true_values) truth.Add(v);
  EXPECT_TRUE(answer.Contains(truth.Sum())) << answer << " vs "
                                            << truth.Sum();
}

TEST(SampledSumTaskTest, SampleCapBelowTwoIsHonoredAndClaimsNothing) {
  // max_samples=1 is a (pathological but legal) hard cap: the task must not
  // draw past it, and with no variance estimate possible it must mark its
  // snapshot confidence 0 instead of fabricating an interval.
  const auto driven =
      DriveSampledSum(50, 0.05, 9, /*max_samples=*/1).ValueOrDie();
  const vao::Answer& answer = driven.outcome.answer;
  EXPECT_LE(answer.sample_size, 1u);
  EXPECT_DOUBLE_EQ(answer.confidence, 0.0);
  EXPECT_TRUE(answer.bounds().IsValid());
  EXPECT_FALSE(driven.outcome.converged);
}

TEST(SampledSumTaskTest, IllConditionedMeanKeepsVarianceEstimate) {
  // Large mean, tiny spread: the naive sum-of-squares variance cancels
  // catastrophically here (clamping to 0 -> overconfident zero sampling
  // width, or surviving as ulp garbage -> absurdly wide). The pivoted
  // accumulator must keep the sampling width positive and sane.
  testing::WorkloadSpec spec;
  spec.rows = 400;
  spec.value_lo = 1e9;
  spec.value_hi = 1e9 + 1e-3;
  spec.min_width = 1e-6;
  spec.initial_half_width_lo = 1e-4;
  spec.initial_half_width_hi = 5e-4;
  const testing::Workload workload = testing::MakeWorkload(spec, 12);

  SampledAggregateOptions options;
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = 1e-15;  // unreachable: exhaust the cap
  options.spec.seed = 12;
  options.spec.initial_samples = 16;
  options.spec.max_samples = 64;
  options.epsilon = 1e-9;
  WorkMeter meter;
  const auto* function = workload.function.get();
  auto task = SampledSumTask::Create(
                  options, spec.rows,
                  [function, &meter](std::size_t row) {
                    return function->Invoke({static_cast<double>(row)},
                                            &meter);
                  },
                  [](std::size_t) { return 1.0; })
                  .ValueOrDie();
  ASSERT_TRUE(operators::DriveTask(task.get(), &meter).ok());

  const vao::Answer answer = task->Snapshot().answer;
  ASSERT_LT(answer.sample_size, static_cast<std::size_t>(spec.rows));
  // The true per-row spread is ~1e-3, so the correct CLT width at n=64 of
  // N=400 is well under 1.0; naive-cancellation failure modes land at
  // exactly 0 or in the hundreds-to-thousands.
  EXPECT_GT(answer.sampling_width, 0.0);
  EXPECT_LT(answer.sampling_width, 1.0);
  NeumaierSum truth;
  for (const double v : workload.true_values) truth.Add(v);
  EXPECT_TRUE(answer.Contains(truth.Sum())) << answer << " vs "
                                            << truth.Sum();
}

TEST(SampledSumTaskTest, StallingObjectIsQuarantinedThroughSettle) {
  // One sampled row freezes its bounds while Iterate() keeps succeeding.
  // The shared settle step quarantines it: one "stall" trace instant, one
  // stalled object in the stats, and its frozen (sound) bounds stay in the
  // interval.
  constexpr std::size_t kRows = 8;
  constexpr std::size_t kStalledRow = 3;
  const obs::TraceMode previous = obs::CurrentTraceMode();
  obs::SetTraceMode(obs::TraceMode::kFlight);
  obs::ClearTrace();

  WorkMeter meter;
  SampledAggregateOptions options;
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = 1e-12;  // unreachable: refine every row
  options.spec.seed = 3;
  options.spec.initial_samples = kRows;  // the whole population up front
  options.epsilon = 1e-9;
  options.meter = &meter;
  auto task = SampledSumTask::Create(
      options, kRows,
      [&meter](std::size_t row) -> Result<vao::ResultObjectPtr> {
        vao::SyntheticResultObject::Config config;
        config.true_value = 10.0 * static_cast<double>(row + 1);
        config.meter = &meter;
        vao::ResultObjectPtr object =
            std::make_unique<vao::SyntheticResultObject>(config);
        if (row != kStalledRow) return object;
        testing::FaultPlan plan;
        plan.kind = testing::FaultKind::kStalledConvergence;
        return vao::ResultObjectPtr(std::make_unique<testing::ChaosResultObject>(
            std::move(object), plan));
      },
      [](std::size_t) { return 1.0; });
  ASSERT_TRUE(task.ok()) << task.status();
  ASSERT_TRUE(operators::DriveTask(task->get(), &meter).ok());

  const obs::TraceSnapshot trace = obs::SnapshotTrace();
  obs::ClearTrace();
  obs::SetTraceMode(previous);

  const engine::sampling::SampledSumOutcome outcome = (*task)->Snapshot();
  EXPECT_EQ(outcome.stats.stalled_objects, 1u);
  EXPECT_EQ(outcome.stats.objects_touched, kRows);
  EXPECT_TRUE(outcome.limited_by_min_width);
  EXPECT_TRUE(outcome.answer.Contains(10.0 * 36.0)) << outcome.answer;
#ifndef VAOLIB_OBS_DISABLED
  std::size_t stall_instants = 0;
  for (const obs::TraceEvent& event : trace.events) {
    if (event.kind == obs::TraceEvent::Kind::kInstant &&
        std::string(event.cat) == "stall" &&
        std::string(event.name) == "sampled_sum") {
      ++stall_instants;
    }
  }
  EXPECT_EQ(stall_instants, 1u);
#endif
}

TEST(SampledSumTaskTest, BudgetedRunTakesWhatItsAllowanceCoversThenParks) {
  // Rows cost 5 units to create and 64 per iterate. A budget of 12 covers
  // one draw of 2 rows; after it neither a row nor an iterate fits what is
  // left, so the task parks instead of overspending, and still answers.
  constexpr std::size_t kRows = 40;
  constexpr std::uint64_t kBudget = 12;
  WorkMeter meter;
  SampledAggregateOptions options;
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = 1e-9;
  options.spec.seed = 5;
  options.spec.initial_samples = 8;
  options.epsilon = 1e-9;
  options.meter = &meter;
  auto task = SampledSumTask::Create(
      options, kRows,
      [&meter](std::size_t row) -> Result<vao::ResultObjectPtr> {
        meter.Charge(WorkKind::kExec, 5);
        vao::SyntheticResultObject::Config config;
        config.true_value = static_cast<double>(row);
        config.cost_per_iteration = 64;
        config.meter = &meter;
        return vao::ResultObjectPtr(
            std::make_unique<vao::SyntheticResultObject>(config));
      },
      [](std::size_t) { return 1.0; });
  ASSERT_TRUE(task.ok()) << task.status();
  const std::size_t drawn = (*task)->sample_size();

  engine::SchedulerOptions scheduler_options;
  scheduler_options.budget = kBudget;
  engine::WorkScheduler scheduler(scheduler_options);
  const std::uint64_t before = meter.Total();
  const auto stats = scheduler.Run({{task->get(), {}}}, &meter);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(meter.Total() - before, 10u);
  EXPECT_TRUE((*stats)[0].parked);
  EXPECT_EQ((*task)->sample_size(), drawn + 2);

  const engine::sampling::SampledSumOutcome outcome = (*task)->Snapshot();
  EXPECT_FALSE(outcome.converged);
  EXPECT_EQ(outcome.stats.iterations, 0u);
  EXPECT_TRUE(outcome.answer.approximate());
  EXPECT_TRUE(outcome.answer.bounds().IsValid());
}

// ---------------------------------------------------------------------------
// Executor integration: the approximate tier behind Query::approx.

TEST(ApproxExecutorTest, SampledSumThroughCqExecutor) {
  testing::WorkloadSpec spec;
  spec.rows = 300;
  spec.value_lo = 50.0;
  spec.value_hi = 150.0;
  const testing::Workload workload = testing::MakeWorkload(spec, 78);

  engine::Query query;
  query.kind = engine::QueryKind::kSum;
  query.function = workload.function.get();
  query.args = {engine::ArgRef::RelationField("id")};
  query.epsilon = 1.0;
  engine::ApproxSpec approx;
  approx.confidence = 0.95;
  approx.target_rel_error = 0.05;
  approx.seed = 78;
  query.approx = approx;

  auto executor = engine::CqExecutor::Create(&workload.relation,
                                             engine::Schema{}, query,
                                             engine::ExecutionMode::kVao, 1)
                      .ValueOrDie();
  const engine::TickResult tick = executor->ProcessTick({}).ValueOrDie();
  const vao::Answer& answer = tick.aggregate_bounds;
  EXPECT_TRUE(answer.approximate());
  EXPECT_GT(answer.sample_size, 0u);
  EXPECT_EQ(answer.population_size, 300u);
  EXPECT_EQ(tick.report.answer_mode, "approximate");
  EXPECT_EQ(tick.report.sample_size, answer.sample_size);
  EXPECT_EQ(tick.report.rows_scanned, answer.sample_size);

  NeumaierSum truth;
  for (const double v : workload.true_values) truth.Add(v);
  EXPECT_TRUE(answer.Contains(truth.Sum())) << answer << " vs "
                                            << truth.Sum();
}

TEST(ApproxExecutorTest, ApproxRequiresVaoModeAndAggregateKind) {
  testing::WorkloadSpec spec;
  spec.rows = 10;
  const testing::Workload workload = testing::MakeWorkload(spec, 1);

  engine::Query query;
  query.kind = engine::QueryKind::kSum;
  query.function = workload.function.get();
  query.args = {engine::ArgRef::RelationField("id")};
  query.approx = engine::ApproxSpec{};

  EXPECT_FALSE(engine::CqExecutor::Create(&workload.relation, engine::Schema{},
                                          query,
                                          engine::ExecutionMode::kTraditional,
                                          1)
                   .ok());
  engine::Query select = query;
  select.kind = engine::QueryKind::kSelect;
  EXPECT_FALSE(engine::CqExecutor::Create(&workload.relation, engine::Schema{},
                                          select, engine::ExecutionMode::kVao,
                                          1)
                   .ok());
  engine::Query bad_conf = query;
  bad_conf.approx->confidence = 1.0;
  EXPECT_FALSE(engine::CqExecutor::Create(&workload.relation, engine::Schema{},
                                          bad_conf,
                                          engine::ExecutionMode::kVao, 1)
                   .ok());
}

TEST(ApproxExecutorTest, ApproxTopKSamplesAndMapsWinners) {
  testing::WorkloadSpec spec;
  spec.rows = 120;
  const testing::Workload workload = testing::MakeWorkload(spec, 13);

  engine::Query query;
  query.kind = engine::QueryKind::kTopK;
  query.k = 3;
  query.function = workload.function.get();
  query.args = {engine::ArgRef::RelationField("id")};
  query.epsilon = 0.5;
  engine::ApproxSpec approx;
  approx.seed = 13;
  approx.max_samples = 40;
  query.approx = approx;

  auto executor = engine::CqExecutor::Create(&workload.relation,
                                             engine::Schema{}, query,
                                             engine::ExecutionMode::kVao, 1)
                      .ValueOrDie();
  const engine::TickResult tick = executor->ProcessTick({}).ValueOrDie();
  EXPECT_EQ(tick.top_rows.size(), 3u);
  std::set<std::size_t> rows(tick.top_rows.begin(), tick.top_rows.end());
  EXPECT_EQ(rows.size(), 3u);
  for (const std::size_t row : tick.top_rows) EXPECT_LT(row, 120u);
  const vao::Answer& answer = tick.aggregate_bounds;
  EXPECT_TRUE(answer.approximate());
  EXPECT_EQ(answer.sample_size, 40u);
  EXPECT_EQ(answer.population_size, 120u);
  // The winners' bounds must contain their rows' true values: sampling
  // limits which rows compete, not the soundness of their intervals.
  for (std::size_t i = 0; i < tick.top_rows.size(); ++i) {
    EXPECT_TRUE(
        tick.top_bounds[i].Contains(workload.true_values[tick.top_rows[i]]));
  }
}

}  // namespace
}  // namespace vaolib
