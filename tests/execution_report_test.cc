// Unit tests for src/obs/execution_report and its engine wiring: the
// WorkByKind meter snapshots, the JSON round-trip (RenderJson -> FromJson),
// and -- the acceptance criterion of the
// observability layer -- that a SELECT query through CqExecutor yields a
// report whose work-unit total equals the legacy WorkMeter total exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/work_meter.h"
#include "obs/trace.h"
#include "engine/executor.h"
#include "engine/multi_query.h"
#include "engine/query.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "finance/bond_model.h"
#include "obs/execution_report.h"
#include "vao/function_cache.h"
#include "workload/portfolio_gen.h"

namespace vaolib::obs {
namespace {

TEST(WorkByKindTest, CaptureAndDeltaTrackTheMeter) {
  WorkMeter meter;
  meter.Charge(WorkKind::kExec, 10);
  meter.Charge(WorkKind::kGetState, 3);
  const WorkByKind before = WorkByKind::Capture(meter);
  EXPECT_EQ(before.exec, 10u);
  EXPECT_EQ(before.get_state, 3u);
  EXPECT_EQ(before.Total(), 13u);

  meter.Charge(WorkKind::kExec, 5);
  meter.Charge(WorkKind::kStoreState, 2);
  meter.Charge(WorkKind::kChooseIter, 1);
  const WorkByKind delta = WorkByKind::Capture(meter).DeltaSince(before);
  EXPECT_EQ(delta.exec, 5u);
  EXPECT_EQ(delta.get_state, 0u);
  EXPECT_EQ(delta.store_state, 2u);
  EXPECT_EQ(delta.choose_iter, 1u);
  EXPECT_EQ(delta.Total(), 8u);
  EXPECT_EQ(WorkByKind::Capture(meter).Total(), meter.Total());
}

// A report with every field set to a distinct value, so a round-trip that
// drops or swaps any field fails the equality check.
ExecutionReport FullySetReport() {
  ExecutionReport report;
  report.query_kind = "select";
  report.work = {101, 102, 103, 104};
  for (int k = 0; k < kNumSolverKinds; ++k) {
    report.solver_work[k] = 200u + static_cast<std::uint64_t>(k);
  }
  report.iterations = 301;
  report.coarse_iterations = 302;
  report.greedy_iterations = 303;
  report.finalize_iterations = 304;
  report.choose_steps = 305;
  report.objects_touched = 306;
  report.rows_scanned = 401;
  report.rows_short_circuited = 402;
  report.has_cache = true;
  report.cache_hits = 501;
  report.cache_misses = 502;
  report.cache_evictions = 503;
  report.cache_shards = {{511, 512, 513}, {521, 522, 523}};
  report.pool_parallel_fors = 601;
  report.pool_tasks_enqueued = 602;
  report.pool_chunks_executed = 603;
  report.pool_queue_wait_nanos = 604;
  report.scheduled = true;
  report.scheduler_policy = "deadline";
  report.scheduler_budget = 701;
  report.scheduler_spent = 702;
  report.scheduler_steps = 703;
  report.scheduler_finished_at = 704;
  report.converged = false;
  report.starved = true;
  report.missed_deadline = true;
  report.answer_mode = "approximate";
  report.answer_confidence = 0.975;
  report.sample_size = 711;
  report.sample_population = 712;
  report.deterministic_width = 0.25;  // dyadic: exact through %.17g
  report.sampling_width = 1.5;
  report.answer_width = 0.0625;  // dyadic: exact through %.17g
  report.answer_rel_width = 0.03125;
  report.limited_by_min_width = true;
  for (int k = 0; k < kNumSolverKinds; ++k) {
    CalibrationKindStats& c = report.calibration[k];
    const double base = static_cast<double>(k + 1);
    c.samples = 800u + static_cast<std::uint64_t>(k);
    c.cost_err_sum = -0.125 * base;  // dyadic: exact through %.17g
    c.cost_abs_err_sum = 0.25 * base;
    c.lo_err_sum = -0.5 * base;
    c.lo_abs_err_sum = 0.5 * base;
    c.hi_err_sum = 1.5 * base;
    c.hi_abs_err_sum = 2.5 * base;
  }
  return report;
}

TEST(ExecutionReportTest, JsonRoundTripPreservesEveryField) {
  const ExecutionReport original = FullySetReport();
  std::ostringstream os;
  original.RenderJson(os);

  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, original);
}

TEST(ExecutionReportTest, JsonRoundTripOfDefaultReport) {
  ExecutionReport original;
  original.query_kind = "max";
  std::ostringstream os;
  original.RenderJson(os);
  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, original);
  EXPECT_FALSE(parsed->has_cache);
  EXPECT_TRUE(parsed->cache_shards.empty());
}

TEST(ExecutionReportTest, AnswerSectionRoundTrips) {
  // A sampled aggregate's provenance survives JSON print/parse...
  ExecutionReport approx;
  approx.query_kind = "sum";
  approx.answer_mode = "approximate";
  approx.answer_confidence = 0.95;
  approx.sample_size = 40;
  approx.sample_population = 400;
  approx.deterministic_width = 0.5;
  approx.sampling_width = 2.5;
  std::ostringstream os;
  approx.RenderJson(os);
  EXPECT_NE(os.str().find("\"answer\""), std::string::npos);
  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, approx);

  // ...and exact reports round-trip with the default answer section
  // untouched.
  ExecutionReport exact;
  exact.query_kind = "sum";
  std::ostringstream exact_os;
  exact.RenderJson(exact_os);
  const auto exact_parsed = ExecutionReport::FromJson(exact_os.str());
  ASSERT_TRUE(exact_parsed.ok()) << exact_parsed.status();
  EXPECT_EQ(exact_parsed->answer_mode, "exact");
  EXPECT_EQ(exact_parsed->sample_size, 0u);
}

TEST(ExecutionReportTest, SchedulerFieldsSurviveTheRoundTrip) {
  ExecutionReport original;
  original.query_kind = "sum";
  original.scheduled = true;
  original.scheduler_policy = "fair_share";
  original.scheduler_budget = 1000;
  original.scheduler_spent = 999;
  original.scheduler_steps = 17;
  original.scheduler_finished_at = 0;  // unfinished
  original.converged = false;
  original.starved = true;
  original.missed_deadline = true;

  std::ostringstream os;
  original.RenderJson(os);
  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->scheduler_spent, 999u);
  EXPECT_TRUE(parsed->starved);
  EXPECT_TRUE(parsed->missed_deadline);
  EXPECT_FALSE(parsed->converged);
  EXPECT_EQ(*parsed, original);
}

TEST(ExecutionReportTest, CalibrationBlockRoundTripsAndDerivesBiasMae) {
  ExecutionReport original;
  original.query_kind = "max";
  CalibrationKindStats& ode =
      original.calibration[static_cast<int>(SolverKind::kOde)];
  ode.samples = 4;
  ode.cost_err_sum = -2.0;  // estimator overshot cost by 0.5/sample
  ode.cost_abs_err_sum = 3.0;
  ode.lo_err_sum = 1.0;
  ode.lo_abs_err_sum = 1.0;
  ode.hi_err_sum = -0.5;
  ode.hi_abs_err_sum = 0.5;

  std::ostringstream os;
  original.RenderJson(os);
  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, original);

  const CalibrationKindStats& back =
      parsed->calibration[static_cast<int>(SolverKind::kOde)];
  EXPECT_DOUBLE_EQ(back.CostBias(), -0.5);
  EXPECT_DOUBLE_EQ(back.CostMae(), 0.75);
  EXPECT_DOUBLE_EQ(back.LoBias(), 0.25);
  EXPECT_DOUBLE_EQ(back.HiMae(), 0.125);
  // Empty kinds stay all-zero with well-defined derived views.
  const CalibrationKindStats& empty =
      parsed->calibration[static_cast<int>(SolverKind::kRoot)];
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_DOUBLE_EQ(empty.CostBias(), 0.0);
}

TEST(ExecutionReportTest, ZeroSampleCalibrationNeverEmitsNaN) {
  // Regression: zero-sample solver kinds used to derive bias/MAE as 0/0 =
  // NaN, which leaked into the JSON and broke the round-trip. The guarded
  // accessors must return 0.0 for every derived view.
  const CalibrationKindStats empty;
  EXPECT_EQ(empty.CostBias(), 0.0);
  EXPECT_EQ(empty.CostMae(), 0.0);
  EXPECT_EQ(empty.LoBias(), 0.0);
  EXPECT_EQ(empty.LoMae(), 0.0);
  EXPECT_EQ(empty.HiBias(), 0.0);
  EXPECT_EQ(empty.HiMae(), 0.0);
}

TEST(ExecutionReportTest, PoisonedCalibrationSumsStillRoundTripAsJson) {
  // Even if a non-finite error sum sneaks into the report (a solver that
  // produced inf bounds before the sample filter), RenderJson must stay
  // parseable: non-finite doubles render as 0.
  ExecutionReport report;
  report.query_kind = "max";
  CalibrationKindStats& bad = report.calibration[0];
  bad.samples = 2;
  bad.cost_err_sum = std::numeric_limits<double>::quiet_NaN();
  bad.hi_abs_err_sum = std::numeric_limits<double>::infinity();
  std::ostringstream os;
  report.RenderJson(os);
  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const CalibrationKindStats& back = parsed->calibration[0];
  EXPECT_EQ(back.samples, 2u);
  EXPECT_TRUE(std::isfinite(back.cost_err_sum));
  EXPECT_TRUE(std::isfinite(back.hi_abs_err_sum));
  EXPECT_TRUE(std::isfinite(back.CostBias()));
  EXPECT_TRUE(std::isfinite(back.HiMae()));
}

TEST(ExecutionReportTest, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(ExecutionReport::FromJson("").ok());
  EXPECT_FALSE(ExecutionReport::FromJson("not json").ok());
  EXPECT_FALSE(ExecutionReport::FromJson("{\"query_kind\": \"x\"}").ok());
  EXPECT_FALSE(ExecutionReport::FromJson("{\"query_kind\": 3}").ok());
  // Trailing garbage after a valid value is an error, not ignored.
  std::ostringstream os;
  FullySetReport().RenderJson(os);
  EXPECT_FALSE(ExecutionReport::FromJson(os.str() + "x").ok());
}

#ifndef VAOLIB_OBS_DISABLED
TEST(ExecutionReportTest, RecordTickMetricsBumpsGlobalCounters) {
  ASSERT_TRUE(Enabled());
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* ticks = registry.GetCounter("vaolib_ticks_total");
  Counter* exec = registry.GetCounter("vaolib_work_units_total",
                                      {{"kind", "exec"}});
  const std::uint64_t ticks_before = ticks->Value();
  const std::uint64_t exec_before = exec->Value();

  RecordTickMetrics(FullySetReport());

  EXPECT_EQ(ticks->Value(), ticks_before + 1);
  EXPECT_EQ(exec->Value(), exec_before + 101);
}
#endif  // VAOLIB_OBS_DISABLED

// ---------------------------------------------------------------------------
// Engine integration: the per-query report attached to TickResult.

using engine::ArgRef;
using engine::ColumnType;
using engine::CqExecutor;
using engine::ExecutionMode;
using engine::MultiQueryExecutor;
using engine::Query;
using engine::QueryKind;
using engine::Relation;
using engine::Schema;
using engine::TickResult;
using engine::Tuple;

class ReportIntegrationTest : public ::testing::Test {
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
          relation_->Append({static_cast<double>(i), i == 0 ? 10.0 : 1.0})
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

// The acceptance criterion: report.work is an exact WorkMeter delta, so its
// total equals the legacy work_units field for the same tick.
TEST_F(ReportIntegrationTest, SelectReportWorkMatchesLegacyWorkUnits) {
  Query query = BaseQuery();
  query.kind = QueryKind::kSelect;
  query.cmp = operators::Comparator::kGreaterThan;
  query.constant = 100.0;

  auto executor =
      CqExecutor::Create(relation_.get(), stream_schema_, query,
                         ExecutionMode::kVao);
  ASSERT_TRUE(executor.ok());
  const auto result = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();

  const ExecutionReport& report = result->report;
  EXPECT_EQ(report.query_kind, "select");
  EXPECT_EQ(report.work.Total(), result->work_units);
  EXPECT_EQ(report.work.Total(), (*executor)->meter().Total());
  EXPECT_GT(report.work.exec, 0u);
  EXPECT_EQ(report.rows_scanned, bonds_.size());
  EXPECT_LE(report.rows_short_circuited, report.rows_scanned);
  EXPECT_LE(report.objects_touched, bonds_.size());
  // Selection is all greedy loop: no coarse pre-phase, no finalization.
  // (iterations can be zero when every row's initial bounds already decide
  // the predicate -- exactly the adaptive win the report exposes.)
  EXPECT_EQ(report.greedy_iterations, report.iterations);
  EXPECT_EQ(report.coarse_iterations, 0u);
  EXPECT_EQ(report.finalize_iterations, 0u);
  EXPECT_FALSE(report.has_cache);

  // A real executor report survives the JSON round-trip bit-for-bit.
  std::ostringstream os;
  report.RenderJson(os);
  const auto parsed = ExecutionReport::FromJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, report);
}

TEST_F(ReportIntegrationTest, TraditionalModeNeverShortCircuits) {
  Query query = BaseQuery();
  query.kind = QueryKind::kSelect;
  query.cmp = operators::Comparator::kGreaterThan;
  query.constant = 100.0;

  auto executor =
      CqExecutor::Create(relation_.get(), stream_schema_, query,
                         ExecutionMode::kTraditional);
  ASSERT_TRUE(executor.ok());
  const auto result = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->report.query_kind, "select");
  EXPECT_EQ(result->report.work.Total(), result->work_units);
  EXPECT_EQ(result->report.rows_scanned, bonds_.size());
  EXPECT_EQ(result->report.rows_short_circuited, 0u);
}

TEST_F(ReportIntegrationTest, AggregateReportsCountOperatorPhases) {
  Query query = BaseQuery();
  query.kind = QueryKind::kMax;
  query.epsilon = 0.01;

  // threads = 2 turns on the parallel coarse pre-phase in min_max.
  auto executor = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                     ExecutionMode::kVao, /*threads=*/2);
  ASSERT_TRUE(executor.ok());
  const auto result = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();

  const ExecutionReport& report = result->report;
  EXPECT_EQ(report.query_kind, "max");
  EXPECT_EQ(report.work.Total(), result->work_units);
  // min_max has a coarse pre-phase and a greedy refinement loop, and the
  // phase split must account for every Iterate() call.
  EXPECT_GT(report.coarse_iterations, 0u);
  EXPECT_GT(report.iterations, 0u);
  EXPECT_EQ(report.iterations, report.coarse_iterations +
                                   report.greedy_iterations +
                                   report.finalize_iterations);
}

TEST_F(ReportIntegrationTest, CachingFunctionPopulatesCacheSection) {
  const vao::CachingFunction cached(function_.get());
  Query query = BaseQuery();
  query.function = &cached;
  query.kind = QueryKind::kSelect;
  query.cmp = operators::Comparator::kGreaterThan;
  query.constant = 100.0;

  auto executor = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                     ExecutionMode::kVao);
  ASSERT_TRUE(executor.ok());

  const auto first = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->report.has_cache);
  EXPECT_FALSE(first->report.cache_shards.empty());
  EXPECT_GT(first->report.cache_misses, 0u);  // cold cache

  // Identical tick: bounds cached per (rate, bond) key, so lookups hit.
  const auto second = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->report.has_cache);
  EXPECT_GT(second->report.cache_hits, 0u);
  EXPECT_LE(second->report.work.Total(), first->report.work.Total());

  // Per-shard deltas sum to the headline hit/miss counts.
  std::uint64_t shard_hits = 0;
  std::uint64_t shard_misses = 0;
  for (const auto& shard : second->report.cache_shards) {
    shard_hits += shard.hits;
    shard_misses += shard.misses;
  }
  EXPECT_EQ(shard_hits, second->report.cache_hits);
  EXPECT_EQ(shard_misses, second->report.cache_misses);
}

TEST_F(ReportIntegrationTest, MultiQueryTickReportCoversWholeTick) {
  Query select = BaseQuery();
  select.kind = QueryKind::kSelect;
  select.cmp = operators::Comparator::kGreaterThan;
  select.constant = 100.0;
  Query max = BaseQuery();
  max.kind = QueryKind::kMax;
  max.epsilon = 0.01;

  auto executor = MultiQueryExecutor::Create(relation_.get(), stream_schema_,
                                             {select, max});
  ASSERT_TRUE(executor.ok()) << executor.status();
  const auto results = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);

  // Every per-query report's work section matches that query's work_units.
  for (const TickResult& result : *results) {
    EXPECT_EQ(result.report.work.Total(), result.work_units);
  }
  EXPECT_EQ((*results)[0].report.query_kind, "select");
  EXPECT_EQ((*results)[1].report.query_kind, "max");

  // The tick-wide report accounts for the whole meter, shared object
  // creation included.
  const ExecutionReport& tick = (*executor)->last_tick_report();
  EXPECT_EQ(tick.query_kind, "multi");
  EXPECT_EQ(tick.work.Total(), (*executor)->meter().Total());
  EXPECT_EQ(tick.rows_scanned, bonds_.size());
  EXPECT_EQ(tick.iterations, (*results)[0].report.iterations +
                                 (*results)[1].report.iterations);
}

// A CqExecutor tick runs as a one-query group: its report carries the
// group's scheduler section, its work covers the whole tick, and the tick's
// span and metrics are recorded once.
TEST_F(ReportIntegrationTest, CqExecutorTickCarriesTheSchedulerSection) {
  Query query = BaseQuery();
  query.kind = QueryKind::kMax;
  query.epsilon = 0.01;
  auto executor = CqExecutor::Create(relation_.get(), stream_schema_, query,
                                     ExecutionMode::kVao);
  ASSERT_TRUE(executor.ok()) << executor.status();

#ifndef VAOLIB_OBS_DISABLED
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* ticks = registry.GetCounter("vaolib_ticks_total");
  Counter* scanned = registry.GetCounter("vaolib_rows_scanned_total");
  std::vector<Counter*> work_counters;
  for (const char* kind : {"exec", "get_state", "store_state", "choose_iter"}) {
    work_counters.push_back(
        registry.GetCounter("vaolib_work_units_total", {{"kind", kind}}));
  }
  auto total_work = [&] {
    std::uint64_t total = 0;
    for (const Counter* counter : work_counters) total += counter->Value();
    return total;
  };
  const std::uint64_t ticks_before = ticks->Value();
  const std::uint64_t scanned_before = scanned->Value();
  const std::uint64_t work_before = total_work();
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();
#endif
  const auto result = (*executor)->ProcessTick({0.0575});
  ASSERT_TRUE(result.ok()) << result.status();
#ifndef VAOLIB_OBS_DISABLED
  const TraceSnapshot trace = SnapshotTrace();
  SetTraceMode(TraceMode::kOff);
  std::size_t tick_spans = 0;
  for (const TraceEvent& event : trace.events) {
    if (event.kind == TraceEvent::Kind::kSpan &&
        std::string(event.cat) == "tick") {
      ++tick_spans;
    }
  }
  EXPECT_EQ(tick_spans, 1u);
  EXPECT_EQ(ticks->Value(), ticks_before + 1);
  EXPECT_EQ(scanned->Value(), scanned_before + bonds_.size());
  EXPECT_EQ(total_work(), work_before + result->work_units);
#endif

  // Object creation: one Invoke() per relation row.
  WorkMeter creation;
  for (std::size_t i = 0; i < bonds_.size(); ++i) {
    ASSERT_TRUE(
        function_->Invoke({0.0575, static_cast<double>(i)}, &creation).ok());
  }
  const ExecutionReport& report = result->report;
  EXPECT_EQ(report.query_kind, "max");
  EXPECT_TRUE(report.scheduled);
  EXPECT_EQ(report.scheduler_policy, "deadline");
  EXPECT_EQ(report.scheduler_budget, 0u);
  EXPECT_GT(creation.Total(), 0u);
  EXPECT_EQ(report.scheduler_spent, result->work_units - creation.Total());
  EXPECT_GT(report.scheduler_steps, 0u);
  EXPECT_EQ(report.work.Total(), result->work_units);
  EXPECT_EQ(result->work_units, (*executor)->meter().Total());
  EXPECT_EQ(report.rows_scanned, bonds_.size());
}

TEST(ExecutionReportTest, ProgressBlockRoundTripsAndIsOptional) {
  ExecutionReport report;
  report.query_kind = "max";
  report.answer_width = 0.125;
  report.answer_rel_width = 0.0625;
  report.limited_by_min_width = true;

  std::ostringstream os;
  report.RenderJson(os);
  const std::string json = os.str();
  // The convergence trajectory the health plane's ProgressRing samples.
  EXPECT_NE(json.find("\"progress\": {\"width\": 0.125"),
            std::string::npos);
  EXPECT_NE(json.find("\"limited_by_min_width\": true"), std::string::npos);

  const auto parsed = ExecutionReport::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->answer_width, 0.125);
  EXPECT_DOUBLE_EQ(parsed->answer_rel_width, 0.0625);
  EXPECT_TRUE(parsed->limited_by_min_width);

  // Reports emitted before the progress block existed still parse; the
  // fields just stay at their zero defaults.
  std::string legacy_json = json;
  const std::size_t begin = legacy_json.find("\"progress\": {");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = legacy_json.find("}, ", begin);
  ASSERT_NE(end, std::string::npos);
  legacy_json.erase(begin, end - begin + 3);
  const auto legacy = ExecutionReport::FromJson(legacy_json);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_DOUBLE_EQ(legacy->answer_width, 0.0);
  EXPECT_FALSE(legacy->limited_by_min_width);
}

}  // namespace
}  // namespace vaolib::obs
