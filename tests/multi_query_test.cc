// Tests for the shared multi-query executor: result equivalence with
// per-query executors, work savings from sharing, in-place edits of the
// query set, and validation.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/multi_query.h"
#include "finance/bond_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/portfolio_gen.h"

namespace vaolib::engine {
namespace {

class MultiQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::PortfolioSpec spec;
    spec.count = 6;
    bonds_ = workload::GeneratePortfolio(4242, spec);
    function_ = std::make_unique<finance::BondPricingFunction>(
        bonds_, finance::BondModelConfig{});
    relation_ = std::make_unique<Relation>(Schema(
        {{"bond_index", ColumnType::kDouble},
         {"position", ColumnType::kDouble}}));
    for (std::size_t i = 0; i < bonds_.size(); ++i) {
      ASSERT_TRUE(
          relation_
              ->Append({static_cast<double>(i), i == 0 ? 5.0 : 1.0})
              .ok());
    }
  }

  Query BaseQuery(QueryKind kind) const {
    Query query;
    query.kind = kind;
    query.function = function_.get();
    query.args = {ArgRef::StreamField("rate"),
                  ArgRef::RelationField("bond_index")};
    return query;
  }

  Schema StreamSchema() const {
    return Schema({{"rate", ColumnType::kDouble}});
  }

  std::vector<finance::Bond> bonds_;
  std::unique_ptr<finance::BondPricingFunction> function_;
  std::unique_ptr<Relation> relation_;
};

TEST_F(MultiQueryTest, MatchesPerQueryExecutors) {
  // A realistic standing-query mix: two alerts, the best bond, the
  // portfolio value, and a top-2 leaderboard.
  Query alert_100 = BaseQuery(QueryKind::kSelect);
  alert_100.constant = 100.0;
  Query alert_95 = BaseQuery(QueryKind::kSelect);
  alert_95.cmp = operators::Comparator::kLessThan;
  alert_95.constant = 95.0;
  Query best = BaseQuery(QueryKind::kMax);
  best.epsilon = 0.01;
  Query portfolio = BaseQuery(QueryKind::kSum);
  portfolio.weight_column = "position";
  portfolio.epsilon = 0.10;
  Query top2 = BaseQuery(QueryKind::kTopK);
  top2.k = 2;
  top2.epsilon = 0.01;

  const std::vector<Query> queries{alert_100, alert_95, best, portfolio,
                                   top2};
  auto shared = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                           queries);
  ASSERT_TRUE(shared.ok()) << shared.status();

  const Tuple tick{0.0575};
  const auto shared_results = (*shared)->ProcessTick(tick);
  ASSERT_TRUE(shared_results.ok()) << shared_results.status();
  ASSERT_EQ(shared_results->size(), queries.size());

  // Reference: each query through its own CqExecutor.
  std::uint64_t separate_work = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto solo = CqExecutor::Create(relation_.get(), StreamSchema(),
                                   queries[q], ExecutionMode::kVao);
    ASSERT_TRUE(solo.ok());
    const auto solo_result = (*solo)->ProcessTick(tick);
    ASSERT_TRUE(solo_result.ok());
    separate_work += solo_result->work_units;

    const TickResult& ours = (*shared_results)[q];
    EXPECT_EQ(ours.passing_rows, solo_result->passing_rows) << "query " << q;
    if (solo_result->winner_row.has_value() && !solo_result->tie &&
        !ours.tie) {
      EXPECT_EQ(ours.winner_row, solo_result->winner_row) << "query " << q;
    }
    if (queries[q].kind == QueryKind::kSum) {
      EXPECT_NEAR(ours.aggregate_bounds.Mid(),
                  solo_result->aggregate_bounds.Mid(),
                  queries[q].epsilon + 0.10);
    }
    if (queries[q].kind == QueryKind::kTopK) {
      EXPECT_EQ(ours.top_rows, solo_result->top_rows);
    }
  }

  // Sharing must beat running the queries independently.
  EXPECT_LT((*shared)->meter().Total(), separate_work);
}

TEST_F(MultiQueryTest, SharedBeatsSeparateAcrossTicks) {
  Query a = BaseQuery(QueryKind::kSelect);
  a.constant = 95.0;
  Query b = BaseQuery(QueryKind::kSelect);
  b.constant = 105.0;
  Query c = BaseQuery(QueryKind::kMax);
  c.epsilon = 0.01;

  auto shared = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                           {a, b, c});
  ASSERT_TRUE(shared.ok());
  auto solo_a =
      CqExecutor::Create(relation_.get(), StreamSchema(), a,
                         ExecutionMode::kVao);
  auto solo_b =
      CqExecutor::Create(relation_.get(), StreamSchema(), b,
                         ExecutionMode::kVao);
  auto solo_c =
      CqExecutor::Create(relation_.get(), StreamSchema(), c,
                         ExecutionMode::kVao);
  ASSERT_TRUE(solo_a.ok());
  ASSERT_TRUE(solo_b.ok());
  ASSERT_TRUE(solo_c.ok());

  for (const double rate : {0.055, 0.0575, 0.06}) {
    ASSERT_TRUE((*shared)->ProcessTick({rate}).ok());
    ASSERT_TRUE((*solo_a)->ProcessTick({rate}).ok());
    ASSERT_TRUE((*solo_b)->ProcessTick({rate}).ok());
    ASSERT_TRUE((*solo_c)->ProcessTick({rate}).ok());
  }
  const std::uint64_t separate = (*solo_a)->meter().Total() +
                                 (*solo_b)->meter().Total() +
                                 (*solo_c)->meter().Total();
  EXPECT_LT((*shared)->meter().Total(), separate);
}

TEST(MultiQueryDefaultPathTest, SumBearingMixMetersBelowSeparateExecution) {
  // Regression guard on the default (unbudgeted) tick: the standing-query
  // example's mix -- two alerts, the best bond, a top-3 leaderboard and a
  // weighted portfolio SUM over 80 bonds -- must stay cheaper than running
  // each query through its own CqExecutor. Running the tasks to completion
  // in query order meters ~15.7M units per tick against ~18.1M separate; a
  // default that interleaved greedily would let the broad SUM lock onto
  // the deeply refined objects and meter ~10x more (DESIGN.md 4d).
  workload::PortfolioSpec spec;
  spec.count = 80;
  const auto bonds = workload::GeneratePortfolio(/*seed=*/55, spec);
  const finance::BondPricingFunction model(bonds, finance::BondModelConfig{});
  Relation relation(Schema({{"bond_index", ColumnType::kDouble},
                            {"position", ColumnType::kDouble}}));
  for (std::size_t i = 0; i < bonds.size(); ++i) {
    ASSERT_TRUE(
        relation.Append({static_cast<double>(i), i % 9 == 0 ? 8.0 : 1.0})
            .ok());
  }
  const Schema stream_schema({{"rate", ColumnType::kDouble}});
  auto base = [&] {
    return Query::Builder(&model).Args({ArgRef::StreamField("rate"),
                                        ArgRef::RelationField("bond_index")});
  };
  const std::vector<Query> queries{
      base().Select(operators::Comparator::kGreaterThan, 100.0).Build(),
      base().Select(operators::Comparator::kLessThan, 90.0).Build(),
      base().Max().Epsilon(0.01).Build(),
      base().TopK(3).Epsilon(0.01).Build(),
      base().Sum().WeightColumn("position").Epsilon(20.0).Build()};

  auto shared = MultiQueryExecutor::Create(&relation, stream_schema, queries);
  ASSERT_TRUE(shared.ok()) << shared.status();
  for (const double rate : {0.0575, 0.0564, 0.0600}) {
    const std::uint64_t before = (*shared)->meter().Total();
    const auto results = (*shared)->ProcessTick({rate});
    ASSERT_TRUE(results.ok()) << results.status();
    const std::uint64_t metered = (*shared)->meter().Total() - before;
    EXPECT_EQ((*shared)->last_tick_report().work.Total(), metered);

    std::uint64_t separate = 0;
    for (const Query& query : queries) {
      auto solo = CqExecutor::Create(&relation, stream_schema, query,
                                     ExecutionMode::kVao);
      ASSERT_TRUE(solo.ok()) << solo.status();
      const auto result = (*solo)->ProcessTick({rate});
      ASSERT_TRUE(result.ok()) << result.status();
      separate += result->work_units;
    }
    EXPECT_LT(metered, separate) << "rate " << rate;
  }
}

TEST_F(MultiQueryTest, ValidatesSharedBindings) {
  Query a = BaseQuery(QueryKind::kSelect);
  Query b = BaseQuery(QueryKind::kSelect);
  b.args = {ArgRef::Constant(0.05), ArgRef::RelationField("bond_index")};
  EXPECT_FALSE(MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {a, b})
                   .ok());

  // Different function pointer rejected.
  finance::BondPricingFunction other(bonds_, finance::BondModelConfig{});
  Query c = BaseQuery(QueryKind::kSelect);
  c.function = &other;
  EXPECT_FALSE(MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {a, c})
                   .ok());

  EXPECT_FALSE(
      MultiQueryExecutor::Create(relation_.get(), StreamSchema(), {}).ok());
  EXPECT_FALSE(
      MultiQueryExecutor::Create(nullptr, StreamSchema(), {a}).ok());

  Query bad_weights = BaseQuery(QueryKind::kSum);
  bad_weights.weight_column = "missing";
  EXPECT_FALSE(MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {bad_weights})
                   .ok());
}

// Field by field: answers, attribution and the per-query report.
void ExpectSameTick(const TickResult& edited, const TickResult& fresh) {
  EXPECT_EQ(edited.kind, fresh.kind);
  EXPECT_EQ(edited.passing_rows, fresh.passing_rows);
  EXPECT_EQ(edited.winner_row, fresh.winner_row);
  EXPECT_EQ(edited.top_rows, fresh.top_rows);
  ASSERT_EQ(edited.top_bounds.size(), fresh.top_bounds.size());
  for (std::size_t i = 0; i < fresh.top_bounds.size(); ++i) {
    EXPECT_EQ(edited.top_bounds[i].lo, fresh.top_bounds[i].lo);
    EXPECT_EQ(edited.top_bounds[i].hi, fresh.top_bounds[i].hi);
  }
  EXPECT_EQ(edited.tie, fresh.tie);
  EXPECT_EQ(edited.aggregate_bounds.lo, fresh.aggregate_bounds.lo);
  EXPECT_EQ(edited.aggregate_bounds.hi, fresh.aggregate_bounds.hi);
  EXPECT_EQ(edited.work_units, fresh.work_units);
  EXPECT_EQ(edited.converged, fresh.converged);
  EXPECT_TRUE(edited.report == fresh.report);
}

TEST_F(MultiQueryTest, InsertAndRemoveTickLikeAFreshExecutor) {
  // A group edited in place -- inserts at the end, the front and the
  // middle, then removes down to one query -- ticks exactly like an
  // executor created fresh over the same queries in the same order: same
  // answers, same per-query work and the same meter total over 3 ticks.
  Query alert = BaseQuery(QueryKind::kSelect);
  alert.constant = 100.0;
  Query best = BaseQuery(QueryKind::kMax);
  best.epsilon = 0.01;
  Query portfolio = BaseQuery(QueryKind::kSum);
  portfolio.weight_column = "position";
  portfolio.epsilon = 0.10;
  Query top2 = BaseQuery(QueryKind::kTopK);
  top2.k = 2;
  top2.epsilon = 0.01;
  Query mean = BaseQuery(QueryKind::kAve);
  mean.epsilon = 0.05;

  const auto plan = [&](const Query& query) {
    auto made = QueryPlan::Create(query, StreamSchema(), relation_.get());
    EXPECT_TRUE(made.ok()) << made.status();
    return std::move(made).value();
  };
  const auto expect_like_fresh = [&](MultiQueryExecutor& edited,
                                     const std::vector<Query>& queries) {
    ASSERT_EQ(edited.query_count(), queries.size());
    auto fresh =
        MultiQueryExecutor::Create(relation_.get(), StreamSchema(), queries);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    edited.ResetMeter();
    for (const double rate : {0.05, 0.0575, 0.065}) {
      SCOPED_TRACE(::testing::Message() << "rate " << rate);
      const auto ours = edited.ProcessTick({rate});
      const auto theirs = (*fresh)->ProcessTick({rate});
      ASSERT_TRUE(ours.ok()) << ours.status();
      ASSERT_TRUE(theirs.ok()) << theirs.status();
      ASSERT_EQ(ours->size(), theirs->size());
      for (std::size_t q = 0; q < ours->size(); ++q) {
        SCOPED_TRACE(::testing::Message() << "query " << q);
        ExpectSameTick((*ours)[q], (*theirs)[q]);
      }
    }
    EXPECT_EQ(edited.meter().Total(), (*fresh)->meter().Total());
  };

  auto group = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {best});
  ASSERT_TRUE(group.ok()) << group.status();
  MultiQueryExecutor& edited = **group;
  ASSERT_TRUE(edited.Insert(1, plan(portfolio)).ok());  // end
  ASSERT_TRUE(edited.Insert(0, plan(alert)).ok());      // front
  ASSERT_TRUE(edited.Insert(2, plan(top2)).ok());       // middle
  expect_like_fresh(edited, {alert, best, top2, portfolio});

  ASSERT_TRUE(edited.Insert(1, plan(mean)).ok());
  edited.Remove(0);  // front: {mean, best, top2, portfolio}
  edited.Remove(3);  // end: {mean, best, top2}
  edited.Remove(1);  // middle: {mean, top2}
  expect_like_fresh(edited, {mean, top2});

  edited.Remove(0);
  expect_like_fresh(edited, {top2});
}

TEST_F(MultiQueryTest, InsertRejectsAnotherBindingAndLeavesTheGroupAsIs) {
  auto group = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {BaseQuery(QueryKind::kMax)});
  ASSERT_TRUE(group.ok()) << group.status();
  Query constant_rate = BaseQuery(QueryKind::kSelect);
  constant_rate.args = {ArgRef::Constant(0.05),
                        ArgRef::RelationField("bond_index")};
  auto plan =
      QueryPlan::Create(constant_rate, StreamSchema(), relation_.get());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ((*group)->Insert(1, std::move(plan).value()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*group)->query_count(), 1u);
  EXPECT_TRUE((*group)->ProcessTick({0.05}).ok());

  // Down to no query, the executor stays valid but has nothing to tick.
  (*group)->Remove(0);
  EXPECT_EQ((*group)->ProcessTick({0.05}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(MultiQueryTest, ApproxQueriesRunWithAndWithoutBudget) {
  // A mixed standing set: one exact MAX, one sampled SUM, one sampled
  // TOP-2. The sampled answers must carry full provenance whether the tick
  // runs to completion or is cut off by a budget (half the unbudgeted
  // spend), and the exact query must stay in exact mode. Last, the sampled
  // SUM alone gets a budget of 10 units, less than its next iterate costs.
  Query best = BaseQuery(QueryKind::kMax);
  best.epsilon = 0.01;
  Query sum = BaseQuery(QueryKind::kSum);
  sum.epsilon = 0.10;
  sum.approx = ApproxSpec{};
  sum.approx->confidence = 0.95;
  sum.approx->target_rel_error = 0.05;
  sum.approx->seed = 11;
  sum.approx->initial_samples = 4;
  Query top2 = BaseQuery(QueryKind::kTopK);
  top2.k = 2;
  top2.epsilon = 0.01;
  top2.approx = sum.approx;
  const std::vector<Query> queries{best, sum, top2};

  std::uint64_t unbudgeted_spend = 0;
  for (const bool budgeted : {false, true}) {
    MultiQueryOptions options;
    if (budgeted) {
      ASSERT_GT(unbudgeted_spend, 2u);
      options.scheduler.budget = unbudgeted_spend / 2;
    }
    auto executor = MultiQueryExecutor::Create(relation_.get(),
                                               StreamSchema(), queries,
                                               options);
    ASSERT_TRUE(executor.ok()) << executor.status();
    const auto results = (*executor)->ProcessTick({0.0575});
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_EQ(results->size(), 3u);
    if (!budgeted) {
      unbudgeted_spend = (*executor)->last_tick_report().scheduler_spent;
    }

    EXPECT_FALSE((*results)[0].aggregate_bounds.approximate());
    EXPECT_EQ((*results)[0].report.answer_mode, "exact");

    for (const std::size_t q : {std::size_t{1}, std::size_t{2}}) {
      const vao::Answer& answer = (*results)[q].aggregate_bounds;
      EXPECT_TRUE(answer.approximate()) << "budgeted=" << budgeted;
      EXPECT_EQ(answer.population_size, bonds_.size());
      EXPECT_GE(answer.sample_size, 2u);
      EXPECT_LE(answer.sample_size, bonds_.size());
      EXPECT_LE(answer.lo, answer.hi);
      EXPECT_EQ((*results)[q].report.answer_mode, "approximate");
      EXPECT_EQ((*results)[q].report.sample_size, answer.sample_size);
      EXPECT_EQ((*results)[q].report.rows_scanned, answer.sample_size);
    }
    // The sampled TOP-2 still returns two distinct in-range winners.
    const TickResult& top = (*results)[2];
    ASSERT_EQ(top.top_rows.size(), 2u);
    EXPECT_NE(top.top_rows[0], top.top_rows[1]);
    for (const std::size_t row : top.top_rows) {
      EXPECT_LT(row, bonds_.size());
    }

    // Seeded sampling: a fresh executor replays the tick bit-for-bit.
    auto replay = MultiQueryExecutor::Create(relation_.get(),
                                             StreamSchema(), queries,
                                             options);
    ASSERT_TRUE(replay.ok());
    const auto replayed = (*replay)->ProcessTick({0.0575});
    ASSERT_TRUE(replayed.ok());
    for (std::size_t q = 1; q < 3; ++q) {
      EXPECT_EQ((*replayed)[q].aggregate_bounds.lo,
                (*results)[q].aggregate_bounds.lo)
          << "budgeted=" << budgeted << " query " << q;
      EXPECT_EQ((*replayed)[q].aggregate_bounds.hi,
                (*results)[q].aggregate_bounds.hi)
          << "budgeted=" << budgeted << " query " << q;
      EXPECT_EQ((*replayed)[q].aggregate_bounds.sample_size,
                (*results)[q].aggregate_bounds.sample_size)
          << "budgeted=" << budgeted << " query " << q;
    }
  }

  // Every task prices its step against the allowance, the sampled SUM's
  // iterates and row draws included, so the tick ends within its budget
  // and the SUM still answers with a sound, replayable estimate.
  Query exact_sum = sum;
  exact_sum.approx.reset();
  exact_sum.epsilon = 1e-6;
  auto exact = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {exact_sum});
  ASSERT_TRUE(exact.ok()) << exact.status();
  const auto truth = (*exact)->ProcessTick({0.0575});
  ASSERT_TRUE(truth.ok()) << truth.status();
  const double true_sum = (*truth)[0].aggregate_bounds.Mid();

  MultiQueryOptions tight;
  tight.scheduler.budget = 10;
  std::vector<vao::Answer> estimates;
  for (int replay = 0; replay < 2; ++replay) {
    auto executor = MultiQueryExecutor::Create(relation_.get(),
                                               StreamSchema(), {sum}, tight);
    ASSERT_TRUE(executor.ok()) << executor.status();
    const auto results = (*executor)->ProcessTick({0.0575});
    ASSERT_TRUE(results.ok()) << results.status();
    EXPECT_LE((*executor)->last_tick_report().scheduler_spent,
              tight.scheduler.budget);
    estimates.push_back((*results)[0].aggregate_bounds);
  }
  const vao::Answer& estimate = estimates[0];
  EXPECT_TRUE(estimate.approximate());
  EXPECT_GT(estimate.confidence, 0.0);
  EXPECT_GE(estimate.sample_size, 2u);
  EXPECT_TRUE(estimate.Contains(true_sum)) << estimate << " vs " << true_sum;
  EXPECT_EQ(estimates[1].lo, estimate.lo);
  EXPECT_EQ(estimates[1].hi, estimate.hi);
  EXPECT_EQ(estimates[1].sample_size, estimate.sample_size);
}

TEST_F(MultiQueryTest, AllApproxSetSkipsSharedObjectCreation) {
  // When every query runs on the sampled tier, the tick must not pay for
  // full-relation shared object creation: total work stays below one
  // object per row (creation alone costs >= 1 unit per row elsewhere).
  Query sum = BaseQuery(QueryKind::kSum);
  sum.epsilon = 0.10;
  sum.approx = ApproxSpec{};
  sum.approx->seed = 5;
  sum.approx->initial_samples = 2;
  sum.approx->max_samples = 3;
  sum.approx->target_rel_error = 1e-12;  // unreachable: cap binds

  auto executor = MultiQueryExecutor::Create(relation_.get(),
                                             StreamSchema(), {sum});
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto results = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(results.ok()) << results.status();
  const vao::Answer& answer = (*results)[0].aggregate_bounds;
  EXPECT_TRUE(answer.approximate());
  EXPECT_EQ(answer.sample_size, 3u);  // max_samples honored
  // Only the sampled rows were materialized.
  EXPECT_EQ((*results)[0].report.rows_scanned, 3u);
  EXPECT_FALSE((*results)[0].converged);
}

TEST_F(MultiQueryTest, AllApproxTickScansOnlyTheSampledRows) {
  // No shared object is created for an all-APPROX group, so the tick-wide
  // report scans exactly the rows the queries sampled.
  Query sum = BaseQuery(QueryKind::kSum);
  sum.epsilon = 0.10;
  sum.approx = ApproxSpec{};
  sum.approx->seed = 5;
  sum.approx->initial_samples = 2;
  sum.approx->max_samples = 3;
  sum.approx->target_rel_error = 1e-12;  // unreachable: cap binds
  Query top = BaseQuery(QueryKind::kTopK);
  top.k = 1;
  top.approx = ApproxSpec{};
  top.approx->seed = 9;
  top.approx->max_samples = 2;

  auto executor = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                             {sum, top});
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto results = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_EQ((*results)[0].report.rows_scanned, 3u);
  EXPECT_EQ((*results)[1].report.rows_scanned, 2u);
  EXPECT_EQ((*executor)->last_tick_report().rows_scanned, 3u + 2u);
}

TEST_F(MultiQueryTest, ApproxValidationRejectsBadSpecs) {
  Query sum = BaseQuery(QueryKind::kSum);
  sum.approx = ApproxSpec{};
  sum.approx->confidence = 1.0;  // must be strictly inside (0, 1)
  EXPECT_FALSE(MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {sum})
                   .ok());

  Query max = BaseQuery(QueryKind::kMax);
  max.approx = ApproxSpec{};  // APPROX is for SUM/AVE/TOP-K only
  EXPECT_FALSE(MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {max})
                   .ok());
}

#ifndef VAOLIB_OBS_DISABLED
TEST_F(MultiQueryTest, EachQueryReportCarriesItsOwnCalibrationSamples) {
  // A MAX and an AVE share one group's PDE objects. Each query's report
  // carries the calibration samples of its own task's iterates -- every
  // greedy and finalize iterate is sampled at one thread -- and the tick
  // report is their sum, added in query order.
  obs::SetEnabled(true);
  Query best = BaseQuery(QueryKind::kMax);
  best.epsilon = 0.01;
  Query mean = BaseQuery(QueryKind::kAve);
  mean.epsilon = 0.01;
  auto group = MultiQueryExecutor::Create(relation_.get(), StreamSchema(),
                                          {best, mean});
  ASSERT_TRUE(group.ok()) << group.status();
  const auto results = (*group)->ProcessTick({0.0575});
  ASSERT_TRUE(results.ok()) << results.status();

  constexpr int kPde = static_cast<int>(obs::SolverKind::kPde);
  obs::CalibrationKindStats summed[obs::kNumSolverKinds] = {};
  for (const TickResult& result : *results) {
    const obs::ExecutionReport& report = result.report;
    SCOPED_TRACE(report.query_kind);
    EXPECT_GT(report.calibration[kPde].samples, 0u);
    EXPECT_EQ(report.calibration[kPde].samples,
              report.greedy_iterations + report.finalize_iterations);
    for (int k = 0; k < obs::kNumSolverKinds; ++k) {
      const obs::CalibrationKindStats& c = report.calibration[k];
      summed[k].samples += c.samples;
      summed[k].cost_err_sum += c.cost_err_sum;
      summed[k].cost_abs_err_sum += c.cost_abs_err_sum;
      summed[k].lo_err_sum += c.lo_err_sum;
      summed[k].lo_abs_err_sum += c.lo_abs_err_sum;
      summed[k].hi_err_sum += c.hi_err_sum;
      summed[k].hi_abs_err_sum += c.hi_abs_err_sum;
    }
  }
  for (int k = 0; k < obs::kNumSolverKinds; ++k) {
    EXPECT_EQ((*group)->last_tick_report().calibration[k], summed[k])
        << "solver kind " << k;
  }
}
#endif  // VAOLIB_OBS_DISABLED

TEST_F(MultiQueryTest, ProcessTickValidatesTuple) {
  auto shared = MultiQueryExecutor::Create(
      relation_.get(), StreamSchema(), {BaseQuery(QueryKind::kSelect)});
  ASSERT_TRUE(shared.ok());
  EXPECT_FALSE((*shared)->ProcessTick({}).ok());
  EXPECT_FALSE((*shared)->ProcessTick({0.05, 0.06}).ok());
  (*shared)->ResetMeter();
  EXPECT_EQ((*shared)->meter().Total(), 0u);
  EXPECT_EQ((*shared)->query_count(), 1u);
}

}  // namespace
}  // namespace vaolib::engine
