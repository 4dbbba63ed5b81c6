// Unit tests for src/engine: Value/Schema/Relation plumbing and the
// continuous-query executor running Q1-Q3 over a small bond portfolio in
// both VAO and traditional modes.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/cost_history.h"
#include "engine/executor.h"
#include "engine/report_capture.h"
#include "engine/query.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/value.h"
#include "finance/bond_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/iteration_task.h"
#include "workload/portfolio_gen.h"

namespace vaolib::engine {
namespace {

TEST(ValueTest, TypedAccessors) {
  const Value i(std::int64_t{7});
  const Value d(2.5);
  const Value s("text");
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_DOUBLE_EQ(i.AsDouble().ValueOrDie(), 7.0);
  EXPECT_DOUBLE_EQ(d.AsDouble().ValueOrDie(), 2.5);
  EXPECT_FALSE(s.AsDouble().ok());
  EXPECT_EQ(i.AsInt().ValueOrDie(), 7);
  EXPECT_FALSE(d.AsInt().ok());
  EXPECT_EQ(s.AsString().ValueOrDie(), "text");
  EXPECT_EQ(i.ToString(), "7");
  EXPECT_EQ(s.ToString(), "text");
}

TEST(SchemaTest, IndexLookup) {
  const Schema schema({{"rate", ColumnType::kDouble},
                       {"name", ColumnType::kString}});
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.IndexOf("rate").ValueOrDie(), 0u);
  EXPECT_EQ(schema.IndexOf("name").ValueOrDie(), 1u);
  EXPECT_FALSE(schema.IndexOf("missing").ok());
}

TEST(RelationTest, SchemaCheckedAppend) {
  Relation relation(Schema({{"id", ColumnType::kInt},
                            {"weight", ColumnType::kDouble}}));
  EXPECT_TRUE(relation.Append({std::int64_t{0}, 1.5}).ok());
  EXPECT_FALSE(relation.Append({std::int64_t{0}}).ok());       // arity
  EXPECT_FALSE(relation.Append({1.5, std::int64_t{0}}).ok());  // types
  EXPECT_EQ(relation.size(), 1u);
  EXPECT_EQ(relation.At(0, 1).ValueOrDie().AsDouble().ValueOrDie(), 1.5);
  EXPECT_FALSE(relation.At(1, 0).ok());
  EXPECT_FALSE(relation.At(0, 5).ok());
}

TEST(RelationTest, NumericColumn) {
  Relation relation(Schema({{"w", ColumnType::kDouble}}));
  ASSERT_TRUE(relation.Append({1.0}).ok());
  ASSERT_TRUE(relation.Append({2.0}).ok());
  const auto column = relation.NumericColumn("w");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(*column, (std::vector<double>{1.0, 2.0}));
  EXPECT_FALSE(relation.NumericColumn("missing").ok());
}

// Fixture wiring a small bond portfolio into the engine.
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::PortfolioSpec spec;
    spec.count = 6;
    bonds_ = workload::GeneratePortfolio(2024, spec);
    function_ = std::make_unique<finance::BondPricingFunction>(
        bonds_, finance::BondModelConfig{});

    relation_ = std::make_unique<Relation>(
        Schema({{"bond_index", ColumnType::kDouble},
                {"weight", ColumnType::kDouble}}));
    for (std::size_t i = 0; i < bonds_.size(); ++i) {
      ASSERT_TRUE(
          relation_
              ->Append({static_cast<double>(i),
                        i == 0 ? 10.0 : 1.0})  // one hot bond
              .ok());
    }
    stream_schema_ = Schema({{"rate", ColumnType::kDouble}});
  }

  Query BaseQuery() const {
    Query query;
    query.function = function_.get();
    query.args = {ArgRef::StreamField("rate"),
                  ArgRef::RelationField("bond_index")};
    return query;
  }

  std::vector<finance::Bond> bonds_;
  std::unique_ptr<finance::BondPricingFunction> function_;
  std::unique_ptr<Relation> relation_;
  Schema stream_schema_;
};

TEST_F(ExecutorTest, SelectionAgreesAcrossModes) {
  Query query = BaseQuery();
  query.kind = QueryKind::kSelect;
  query.cmp = operators::Comparator::kGreaterThan;
  query.constant = 100.0;

  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  auto trad = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                 ExecutionMode::kTraditional);
  ASSERT_TRUE(vao.ok());
  ASSERT_TRUE(trad.ok());

  const Tuple tick{0.0575};
  const auto vao_result = (*vao)->ProcessTick(tick);
  const auto trad_result = (*trad)->ProcessTick(tick);
  ASSERT_TRUE(vao_result.ok()) << vao_result.status();
  ASSERT_TRUE(trad_result.ok()) << trad_result.status();
  EXPECT_EQ(vao_result->passing_rows, trad_result->passing_rows);
  EXPECT_FALSE(vao_result->passing_rows.empty());
  EXPECT_LT(vao_result->passing_rows.size(), bonds_.size());
  // The headline claim: far less work with VAOs.
  EXPECT_LT(vao_result->work_units, trad_result->work_units);
}

TEST_F(ExecutorTest, MaxAgreesAcrossModes) {
  Query query = BaseQuery();
  query.kind = QueryKind::kMax;
  query.epsilon = 0.01;

  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  auto trad = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                 ExecutionMode::kTraditional);
  ASSERT_TRUE(vao.ok());
  ASSERT_TRUE(trad.ok());
  const Tuple tick{0.0575};
  const auto vao_result = (*vao)->ProcessTick(tick);
  const auto trad_result = (*trad)->ProcessTick(tick);
  ASSERT_TRUE(vao_result.ok()) << vao_result.status();
  ASSERT_TRUE(trad_result.ok());
  ASSERT_TRUE(vao_result->winner_row.has_value());
  ASSERT_TRUE(trad_result->winner_row.has_value());
  EXPECT_EQ(*vao_result->winner_row, *trad_result->winner_row);
  EXPECT_LE(vao_result->aggregate_bounds.Width(), query.epsilon);
  EXPECT_TRUE(vao_result->aggregate_bounds.Contains(
      trad_result->aggregate_bounds.Mid()));
  EXPECT_LT(vao_result->work_units, trad_result->work_units);
}

TEST_F(ExecutorTest, MinAgreesAcrossModes) {
  Query query = BaseQuery();
  query.kind = QueryKind::kMin;
  query.epsilon = 0.01;
  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  auto trad = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                 ExecutionMode::kTraditional);
  ASSERT_TRUE(vao.ok());
  ASSERT_TRUE(trad.ok());
  const Tuple tick{0.0575};
  const auto vao_result = (*vao)->ProcessTick(tick);
  const auto trad_result = (*trad)->ProcessTick(tick);
  ASSERT_TRUE(vao_result.ok());
  ASSERT_TRUE(trad_result.ok());
  EXPECT_EQ(*vao_result->winner_row, *trad_result->winner_row);
}

TEST_F(ExecutorTest, WeightedSumBoundsContainTraditionalValue) {
  Query query = BaseQuery();
  query.kind = QueryKind::kSum;
  query.weight_column = "weight";
  query.epsilon = 0.15;  // 15 * $.01, matching the paper's scaling

  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  auto trad = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                 ExecutionMode::kTraditional);
  ASSERT_TRUE(vao.ok());
  ASSERT_TRUE(trad.ok());
  const Tuple tick{0.0575};
  const auto vao_result = (*vao)->ProcessTick(tick);
  const auto trad_result = (*trad)->ProcessTick(tick);
  ASSERT_TRUE(vao_result.ok()) << vao_result.status();
  ASSERT_TRUE(trad_result.ok());
  EXPECT_LE(vao_result->aggregate_bounds.Width(), query.epsilon + 1e-9);
  EXPECT_NEAR(vao_result->aggregate_bounds.Mid(),
              trad_result->aggregate_bounds.Mid(),
              query.epsilon);
}

TEST_F(ExecutorTest, AveUsesUniformWeights) {
  Query query = BaseQuery();
  query.kind = QueryKind::kAve;
  query.epsilon = 0.01;
  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  ASSERT_TRUE(vao.ok());
  const auto result = (*vao)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();
  // Average bond price should be near par for this portfolio.
  EXPECT_GT(result->aggregate_bounds.Mid(), 60.0);
  EXPECT_LT(result->aggregate_bounds.Mid(), 160.0);
}

TEST_F(ExecutorTest, MultipleTicksAccumulateWork) {
  Query query = BaseQuery();
  query.kind = QueryKind::kSelect;
  query.constant = 100.0;
  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  ASSERT_TRUE(vao.ok());
  ASSERT_TRUE((*vao)->ProcessTick({0.055}).ok());
  const auto after_one = (*vao)->meter().Total();
  ASSERT_TRUE((*vao)->ProcessTick({0.0575}).ok());
  EXPECT_GT((*vao)->meter().Total(), after_one);
  (*vao)->ResetMeter();
  EXPECT_EQ((*vao)->meter().Total(), 0u);
}

TEST_F(ExecutorTest, CreateValidatesBindings) {
  Query query = BaseQuery();
  query.args = {ArgRef::StreamField("rate")};  // wrong arity
  EXPECT_FALSE(CqExecutor::Create(relation_.get(), stream_schema_, query,
                                  ExecutionMode::kVao)
                   .ok());

  query = BaseQuery();
  query.args = {ArgRef::StreamField("nope"),
                ArgRef::RelationField("bond_index")};
  EXPECT_FALSE(CqExecutor::Create(relation_.get(), stream_schema_, query,
                                  ExecutionMode::kVao)
                   .ok());

  query = BaseQuery();
  query.weight_column = "missing";
  query.kind = QueryKind::kSum;
  EXPECT_FALSE(CqExecutor::Create(relation_.get(), stream_schema_, query,
                                  ExecutionMode::kVao)
                   .ok());

  query = BaseQuery();
  query.function = nullptr;
  EXPECT_FALSE(CqExecutor::Create(relation_.get(), stream_schema_, query,
                                  ExecutionMode::kVao)
                   .ok());
  EXPECT_FALSE(CqExecutor::Create(nullptr, stream_schema_, BaseQuery(),
                                  ExecutionMode::kVao)
                   .ok());
}

TEST_F(ExecutorTest, ProcessTickValidatesTuple) {
  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, BaseQuery(),
                                ExecutionMode::kVao);
  ASSERT_TRUE(vao.ok());
  EXPECT_FALSE((*vao)->ProcessTick({}).ok());
  EXPECT_FALSE((*vao)->ProcessTick({0.05, 0.06}).ok());
}

TEST_F(ExecutorTest, ConstantArgBinding) {
  // Bind the rate as a constant instead of a stream field.
  Query query = BaseQuery();
  query.args = {ArgRef::Constant(0.0575),
                ArgRef::RelationField("bond_index")};
  query.kind = QueryKind::kSelect;
  query.constant = 100.0;
  auto vao = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                ExecutionMode::kVao);
  ASSERT_TRUE(vao.ok());
  const auto result = (*vao)->ProcessTick({0.9});  // stream value unused
  ASSERT_TRUE(result.ok()) << result.status();
}

// ---------------------------------------------------------------------------
// Observed iterates: every task Iterate() is measured once, at the
// IterationTask seam, and that one record feeds the decision trace, the
// cost feedback + MAE audit, and the calibration accounts.

#ifndef VAOLIB_OBS_DISABLED

constexpr int kPde = static_cast<int>(obs::SolverKind::kPde);

using Calibration = std::array<obs::CalibrationKindStats, obs::kNumSolverKinds>;

Calibration CalibrationOf(const TickResult& result) {
  Calibration out;
  for (int k = 0; k < obs::kNumSolverKinds; ++k) {
    out[k] = result.report.calibration[k];
  }
  return out;
}

// Restores the trace mode it found and leaves the rings empty.
class DecisionTraceScope {
 public:
  DecisionTraceScope() : previous_(obs::CurrentTraceMode()) {
    obs::SetTraceMode(obs::TraceMode::kFlight);
    obs::ClearTrace();
  }
  ~DecisionTraceScope() {
    obs::ClearTrace();
    obs::SetTraceMode(previous_);
  }

  /// Decision events of operator \p op recorded so far.
  static std::vector<obs::TraceEvent> Decisions(const std::string& op) {
    const obs::TraceSnapshot snapshot = obs::SnapshotTrace();
    EXPECT_EQ(snapshot.dropped, 0u);
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& event : snapshot.events) {
      if (event.kind == obs::TraceEvent::Kind::kDecision && op == event.name) {
        out.push_back(event);
      }
    }
    return out;
  }

 private:
  obs::TraceMode previous_;
};

TEST_F(ExecutorTest, CalibrationIsInvariantUnderThreadCount) {
  // With threads > 1 the parallel coarse pre-phase iterates objects on pool
  // workers that all charge the executor's one meter. Those iterates run
  // outside the task seam and are not sampled, so the calibration account
  // is the serial adaptive loop's alone and cannot depend on the thread
  // count or on how the workers interleave. Nor does it depend on what the
  // process sampled before: a report sums its own task's samples, so a
  // large earlier sample leaves the next run's report bit-identical.
  obs::SetEnabled(true);
  for (const QueryKind kind : {QueryKind::kSum, QueryKind::kMax}) {
    Query query = BaseQuery();
    query.kind = kind;
    query.epsilon = 0.01;
    std::vector<Calibration> runs;
    auto run = [&](int threads) {
      auto executor =
          CqExecutor::Create(relation_.get(), stream_schema_, query,
                             ExecutionMode::kVao, threads);
      ASSERT_TRUE(executor.ok()) << executor.status();
      const auto result = (*executor)->ProcessTick({0.0575});
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_GT(result->stats.coarse_iterations, 0u);
      runs.push_back(CalibrationOf(*result));
    };
    for (const int threads : {2, 4}) {
      for (int rep = 0; rep < 3; ++rep) run(threads);
    }
    obs::RecordEstimatorSample(obs::SolverKind::kPde, /*est_cost=*/0.0,
                               /*est_lo=*/0.0, /*est_hi=*/0.0,
                               /*actual_cost=*/0.0, /*actual_lo=*/1e9,
                               /*actual_hi=*/0.0);
    run(2);
    ASSERT_EQ(runs.size(), 7u);
    EXPECT_GT(runs.front()[kPde].samples, 0u);
    for (std::size_t r = 1; r < runs.size(); ++r) {
      for (int k = 0; k < obs::kNumSolverKinds; ++k) {
        EXPECT_EQ(runs[r][k], runs.front()[k])
            << QueryKindName(kind) << " run " << r << " solver kind " << k;
      }
    }
  }
}

TEST_F(ExecutorTest, ObservedIterateSinksAgree) {
  // MAX, SUM and TOP-3 over PDE rows, one object per cycle and four per
  // batch cycle: every greedy/finalize iterate yields exactly one traced
  // decision, one PDE calibration sample and one audited cost, and the
  // traced costs account for every work unit the task spent iterating.
  obs::SetEnabled(true);
  const DecisionTraceScope trace;
  struct Variant {
    operators::StrategyKind strategy;
    int batch_k;
  };
  const Variant variants[] = {{operators::StrategyKind::kGreedy, 1},
                              {operators::StrategyKind::kBatchGreedy, 4}};
  for (const Variant& variant : variants) {
    for (const QueryKind kind :
         {QueryKind::kMax, QueryKind::kSum, QueryKind::kTopK}) {
      CostHistory history;
      for (const double rate : {0.0575, 0.061}) {
        SCOPED_TRACE(std::string(QueryKindName(kind)) +
                     " batch_k=" + std::to_string(variant.batch_k) +
                     " rate=" + std::to_string(rate));
        WorkMeter meter;
        std::vector<vao::ResultObjectPtr> owned;
        std::vector<vao::ResultObject*> objects;
        for (std::size_t i = 0; i < bonds_.size(); ++i) {
          auto object =
              function_->Invoke({rate, static_cast<double>(i)}, &meter);
          ASSERT_TRUE(object.ok()) << object.status();
          objects.push_back(object->get());
          owned.push_back(std::move(object).value());
        }
        history.BeginTick();
        obs::ClearTrace();
        const std::uint64_t work_before = meter.Total();
        const std::uint64_t choose_before =
            meter.Count(WorkKind::kChooseIter);

        auto stamp = [&](operators::OperatorOptions* options) {
          options->epsilon = 0.01;
          options->meter = &meter;
          options->strategy = variant.strategy;
          options->batch_k = variant.batch_k;
          options->feedback = &history;
        };
        std::unique_ptr<operators::IterationTask> task;
        std::function<operators::OperatorStats()> stats;
        if (kind == QueryKind::kMax) {
          operators::MinMaxOptions options;
          stamp(&options);
          auto created = operators::MinMaxIterationTask::Create(options,
                                                                objects);
          ASSERT_TRUE(created.ok()) << created.status();
          auto* raw = created->get();
          stats = [raw] { return raw->Snapshot().stats; };
          task = std::move(created).value();
        } else if (kind == QueryKind::kSum) {
          operators::SumAveOptions options;
          stamp(&options);
          auto created = operators::SumAveIterationTask::Create(
              options, objects, std::vector<double>(objects.size(), 1.0));
          ASSERT_TRUE(created.ok()) << created.status();
          auto* raw = created->get();
          stats = [raw] { return raw->Snapshot().stats; };
          task = std::move(created).value();
        } else {
          operators::TopKOptions options;
          stamp(&options);
          options.k = 3;
          auto created = operators::TopKIterationTask::Create(options,
                                                              objects);
          ASSERT_TRUE(created.ok()) << created.status();
          auto* raw = created->get();
          stats = [raw] { return raw->Snapshot().stats; };
          task = std::move(created).value();
        }
        const Status driven = operators::DriveTask(task.get(), &meter);
        ASSERT_TRUE(driven.ok()) << driven;
        ASSERT_TRUE(task->Done());

        const std::vector<obs::TraceEvent> decisions =
            DecisionTraceScope::Decisions(task->name());
        double traced_cost = 0.0;
        for (const obs::TraceEvent& decision : decisions) {
          traced_cost += decision.actual_cost;
        }
        const operators::OperatorStats s = stats();
        const std::uint64_t samples = s.calibration[kPde].samples;
        EXPECT_GT(decisions.size(), 0u);
        EXPECT_EQ(decisions.size(), samples);
        EXPECT_EQ(decisions.size(), s.cost_err_samples);
        EXPECT_EQ(decisions.size(),
                  s.greedy_iterations + s.finalize_iterations);
        EXPECT_EQ(traced_cost,
                  static_cast<double>(
                      (meter.Total() - work_before) -
                      (meter.Count(WorkKind::kChooseIter) - choose_before)));
      }
    }
  }
}

TEST_F(ExecutorTest, BlockingSelectionSamplesCalibration) {
  // CqExecutor's SELECT steps its compiled selection task with the tick's
  // meter; at one thread each row's spend in the batch notch is attributed,
  // so every refinement is costed and sampled.
  obs::SetEnabled(true);
  Query max_query = BaseQuery();
  max_query.kind = QueryKind::kMax;
  auto max_executor = CqExecutor::Create(relation_.get(), stream_schema_,
                                         max_query, ExecutionMode::kVao);
  ASSERT_TRUE(max_executor.ok());
  const auto max_result = (*max_executor)->ProcessTick({0.0575});
  ASSERT_TRUE(max_result.ok()) << max_result.status();

  // A constant at the best bond's value keeps its row undecided until it
  // has been refined.
  Query query = BaseQuery();
  query.kind = QueryKind::kSelect;
  query.constant = max_result->aggregate_bounds.Mid();
  auto executor = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                     ExecutionMode::kVao);
  ASSERT_TRUE(executor.ok());
  const auto result = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.iterations, 0u);
  EXPECT_EQ(result->report.calibration[kPde].samples,
            result->stats.iterations);
}

TEST_F(ExecutorTest, ApproximateSumIteratesAreTracedAndSampled) {
  // SampledSumTask refines its sampled rows through the same seam as the
  // exact aggregates.
  obs::SetEnabled(true);
  const DecisionTraceScope trace;
  Query query = BaseQuery();
  query.kind = QueryKind::kSum;
  query.epsilon = 1e-3;
  ApproxSpec approx;
  approx.target_rel_error = 1e-5;
  approx.seed = 7;
  query.approx = approx;
  auto executor = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                     ExecutionMode::kVao);
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto result = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();

  const std::vector<obs::TraceEvent> decisions =
      DecisionTraceScope::Decisions("sampled_sum");
  EXPECT_GT(decisions.size(), 0u);
  EXPECT_EQ(decisions.size(), result->stats.iterations);
  EXPECT_EQ(result->report.calibration[kPde].samples, decisions.size());
  for (const obs::TraceEvent& decision : decisions) {
    EXPECT_GT(decision.actual_cost, 0.0);
  }
}

#endif  // VAOLIB_OBS_DISABLED

}  // namespace
}  // namespace vaolib::engine
