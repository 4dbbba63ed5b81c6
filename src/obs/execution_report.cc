#include "obs/execution_report.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "common/macros.h"
#include "common/status.h"
#include "obs/json_util.h"

namespace vaolib::obs {

namespace {

// max_digits10 rendering so FromJson (strtod) round-trips bit-exactly.
// Non-finite values would print "nan"/"inf" -- invalid JSON that breaks the
// round-trip -- so they render as 0 (they can only arise from a poisoned
// accumulator; the calibration sums drop non-finite samples upstream).
void AppendExactDouble(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

WorkByKind WorkByKind::Capture(const WorkMeter& meter) {
  WorkByKind w;
  w.exec = meter.Count(WorkKind::kExec);
  w.get_state = meter.Count(WorkKind::kGetState);
  w.store_state = meter.Count(WorkKind::kStoreState);
  w.choose_iter = meter.Count(WorkKind::kChooseIter);
  return w;
}

WorkByKind WorkByKind::DeltaSince(const WorkByKind& before) const {
  WorkByKind d;
  d.exec = exec - before.exec;
  d.get_state = get_state - before.get_state;
  d.store_state = store_state - before.store_state;
  d.choose_iter = choose_iter - before.choose_iter;
  return d;
}

void ExecutionReport::RenderJson(std::ostream& os) const {
  os << "{";
  os << "\"query_kind\": \"" << query_kind << "\", ";
  os << "\"work_units\": {\"exec\": " << work.exec
     << ", \"get_state\": " << work.get_state
     << ", \"store_state\": " << work.store_state
     << ", \"choose_iter\": " << work.choose_iter
     << ", \"total\": " << work.Total() << "}, ";
  os << "\"solver_work_units\": {";
  for (int k = 0; k < kNumSolverKinds; ++k) {
    if (k > 0) os << ", ";
    os << "\"" << SolverKindName(static_cast<SolverKind>(k))
       << "\": " << solver_work[k];
  }
  os << "}, ";
  os << "\"operator\": {\"iterations\": " << iterations
     << ", \"coarse_iterations\": " << coarse_iterations
     << ", \"greedy_iterations\": " << greedy_iterations
     << ", \"finalize_iterations\": " << finalize_iterations
     << ", \"choose_steps\": " << choose_steps
     << ", \"objects_touched\": " << objects_touched
     << ", \"stalled_objects\": " << stalled_objects << "}, ";
  os << "\"rows\": {\"scanned\": " << rows_scanned
     << ", \"short_circuited\": " << rows_short_circuited
     << ", \"quarantined\": " << rows_quarantined << "}, ";
  os << "\"cache\": {\"present\": " << (has_cache ? "true" : "false")
     << ", \"hits\": " << cache_hits << ", \"misses\": " << cache_misses
     << ", \"evictions\": " << cache_evictions << ", \"shards\": [";
  for (std::size_t s = 0; s < cache_shards.size(); ++s) {
    if (s > 0) os << ", ";
    os << "{\"hits\": " << cache_shards[s].hits
       << ", \"misses\": " << cache_shards[s].misses
       << ", \"evictions\": " << cache_shards[s].evictions << "}";
  }
  os << "]}, ";
  os << "\"thread_pool\": {\"parallel_fors\": " << pool_parallel_fors
     << ", \"tasks_enqueued\": " << pool_tasks_enqueued
     << ", \"chunks_executed\": " << pool_chunks_executed
     << ", \"queue_wait_nanos\": " << pool_queue_wait_nanos << "}, ";
  os << "\"scheduler\": {\"scheduled\": " << (scheduled ? "true" : "false")
     << ", \"policy\": \"" << scheduler_policy << "\""
     << ", \"budget\": " << scheduler_budget
     << ", \"spent\": " << scheduler_spent
     << ", \"steps\": " << scheduler_steps
     << ", \"finished_at\": " << scheduler_finished_at
     << ", \"converged\": " << (converged ? "true" : "false")
     << ", \"starved\": " << (starved ? "true" : "false")
     << ", \"missed_deadline\": " << (missed_deadline ? "true" : "false")
     << ", \"tenant\": \"" << tenant << "\""
     << "}, ";
  os << "\"answer\": {\"mode\": \"" << answer_mode << "\""
     << ", \"confidence\": ";
  AppendExactDouble(os, answer_confidence);
  os << ", \"sample_size\": " << sample_size
     << ", \"population\": " << sample_population
     << ", \"deterministic_width\": ";
  AppendExactDouble(os, deterministic_width);
  os << ", \"sampling_width\": ";
  AppendExactDouble(os, sampling_width);
  os << "}, ";
  os << "\"progress\": {\"width\": ";
  AppendExactDouble(os, answer_width);
  os << ", \"rel_width\": ";
  AppendExactDouble(os, answer_rel_width);
  os << ", \"limited_by_min_width\": "
     << (limited_by_min_width ? "true" : "false") << "}, ";
  os << "\"calibration\": {";
  for (int k = 0; k < kNumSolverKinds; ++k) {
    const CalibrationKindStats& c = calibration[k];
    if (k > 0) os << ", ";
    os << "\"" << SolverKindName(static_cast<SolverKind>(k))
       << "\": {\"samples\": " << c.samples << ", \"cost_err_sum\": ";
    AppendExactDouble(os, c.cost_err_sum);
    os << ", \"cost_abs_err_sum\": ";
    AppendExactDouble(os, c.cost_abs_err_sum);
    os << ", \"lo_err_sum\": ";
    AppendExactDouble(os, c.lo_err_sum);
    os << ", \"lo_abs_err_sum\": ";
    AppendExactDouble(os, c.lo_abs_err_sum);
    os << ", \"hi_err_sum\": ";
    AppendExactDouble(os, c.hi_err_sum);
    os << ", \"hi_abs_err_sum\": ";
    AppendExactDouble(os, c.hi_abs_err_sum);
    os << "}";
  }
  os << "}";
  os << "}";
}

Result<ExecutionReport> ExecutionReport::FromJson(const std::string& text) {
  // The shared obs/json_util.h reader (also used by the flight-recorder
  // replay path and trace_inspect) covers everything RenderJson emits.
  using json::Child;
  using json::GetBool;
  using json::GetDouble;
  using json::GetNumber;
  using json::JsonValue;
  VAOLIB_ASSIGN_OR_RETURN(const auto root, json::Parse(text));

  ExecutionReport report;
  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* kind, Child(*root, "query_kind"));
  if (kind->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("query_kind is not a string");
  }
  report.query_kind = kind->string;

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* work, Child(*root, "work_units"));
  VAOLIB_ASSIGN_OR_RETURN(report.work.exec, GetNumber(*work, "exec"));
  VAOLIB_ASSIGN_OR_RETURN(report.work.get_state,
                          GetNumber(*work, "get_state"));
  VAOLIB_ASSIGN_OR_RETURN(report.work.store_state,
                          GetNumber(*work, "store_state"));
  VAOLIB_ASSIGN_OR_RETURN(report.work.choose_iter,
                          GetNumber(*work, "choose_iter"));

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* solver,
                          Child(*root, "solver_work_units"));
  for (int k = 0; k < kNumSolverKinds; ++k) {
    VAOLIB_ASSIGN_OR_RETURN(
        report.solver_work[k],
        GetNumber(*solver, SolverKindName(static_cast<SolverKind>(k))));
  }

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* op, Child(*root, "operator"));
  VAOLIB_ASSIGN_OR_RETURN(report.iterations, GetNumber(*op, "iterations"));
  VAOLIB_ASSIGN_OR_RETURN(report.coarse_iterations,
                          GetNumber(*op, "coarse_iterations"));
  VAOLIB_ASSIGN_OR_RETURN(report.greedy_iterations,
                          GetNumber(*op, "greedy_iterations"));
  VAOLIB_ASSIGN_OR_RETURN(report.finalize_iterations,
                          GetNumber(*op, "finalize_iterations"));
  VAOLIB_ASSIGN_OR_RETURN(report.choose_steps,
                          GetNumber(*op, "choose_steps"));
  VAOLIB_ASSIGN_OR_RETURN(report.objects_touched,
                          GetNumber(*op, "objects_touched"));
  VAOLIB_ASSIGN_OR_RETURN(report.stalled_objects,
                          GetNumber(*op, "stalled_objects"));

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* rows, Child(*root, "rows"));
  VAOLIB_ASSIGN_OR_RETURN(report.rows_scanned, GetNumber(*rows, "scanned"));
  VAOLIB_ASSIGN_OR_RETURN(report.rows_short_circuited,
                          GetNumber(*rows, "short_circuited"));
  VAOLIB_ASSIGN_OR_RETURN(report.rows_quarantined,
                          GetNumber(*rows, "quarantined"));

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* cache, Child(*root, "cache"));
  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* present,
                          Child(*cache, "present"));
  if (present->type != JsonValue::Type::kBool) {
    return Status::InvalidArgument("cache.present is not a bool");
  }
  report.has_cache = present->boolean;
  VAOLIB_ASSIGN_OR_RETURN(report.cache_hits, GetNumber(*cache, "hits"));
  VAOLIB_ASSIGN_OR_RETURN(report.cache_misses, GetNumber(*cache, "misses"));
  VAOLIB_ASSIGN_OR_RETURN(report.cache_evictions,
                          GetNumber(*cache, "evictions"));
  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* shards, Child(*cache, "shards"));
  if (shards->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("cache.shards is not an array");
  }
  for (const auto& shard : shards->array) {
    CacheShardStats stats;
    VAOLIB_ASSIGN_OR_RETURN(stats.hits, GetNumber(*shard, "hits"));
    VAOLIB_ASSIGN_OR_RETURN(stats.misses, GetNumber(*shard, "misses"));
    VAOLIB_ASSIGN_OR_RETURN(stats.evictions, GetNumber(*shard, "evictions"));
    report.cache_shards.push_back(stats);
  }

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* pool, Child(*root, "thread_pool"));
  VAOLIB_ASSIGN_OR_RETURN(report.pool_parallel_fors,
                          GetNumber(*pool, "parallel_fors"));
  VAOLIB_ASSIGN_OR_RETURN(report.pool_tasks_enqueued,
                          GetNumber(*pool, "tasks_enqueued"));
  VAOLIB_ASSIGN_OR_RETURN(report.pool_chunks_executed,
                          GetNumber(*pool, "chunks_executed"));
  VAOLIB_ASSIGN_OR_RETURN(report.pool_queue_wait_nanos,
                          GetNumber(*pool, "queue_wait_nanos"));

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* sched, Child(*root, "scheduler"));
  VAOLIB_ASSIGN_OR_RETURN(report.scheduled, GetBool(*sched, "scheduled"));
  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* policy, Child(*sched, "policy"));
  if (policy->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("scheduler.policy is not a string");
  }
  report.scheduler_policy = policy->string;
  VAOLIB_ASSIGN_OR_RETURN(report.scheduler_budget,
                          GetNumber(*sched, "budget"));
  VAOLIB_ASSIGN_OR_RETURN(report.scheduler_spent, GetNumber(*sched, "spent"));
  VAOLIB_ASSIGN_OR_RETURN(report.scheduler_steps, GetNumber(*sched, "steps"));
  VAOLIB_ASSIGN_OR_RETURN(report.scheduler_finished_at,
                          GetNumber(*sched, "finished_at"));
  VAOLIB_ASSIGN_OR_RETURN(report.converged, GetBool(*sched, "converged"));
  VAOLIB_ASSIGN_OR_RETURN(report.starved, GetBool(*sched, "starved"));
  VAOLIB_ASSIGN_OR_RETURN(report.missed_deadline,
                          GetBool(*sched, "missed_deadline"));
  // Tolerated as absent: reports serialized before the tenant field existed.
  if (const auto tenant_field = Child(*sched, "tenant"); tenant_field.ok()) {
    if ((*tenant_field)->type != JsonValue::Type::kString) {
      return Status::InvalidArgument("scheduler.tenant is not a string");
    }
    report.tenant = (*tenant_field)->string;
  }

  // Tolerated as absent: reports serialized before the approximate tier.
  if (const auto answer = Child(*root, "answer"); answer.ok()) {
    VAOLIB_ASSIGN_OR_RETURN(const JsonValue* mode, Child(**answer, "mode"));
    if (mode->type != JsonValue::Type::kString) {
      return Status::InvalidArgument("answer.mode is not a string");
    }
    report.answer_mode = mode->string;
    VAOLIB_ASSIGN_OR_RETURN(report.answer_confidence,
                            GetDouble(**answer, "confidence"));
    VAOLIB_ASSIGN_OR_RETURN(report.sample_size,
                            GetNumber(**answer, "sample_size"));
    VAOLIB_ASSIGN_OR_RETURN(report.sample_population,
                            GetNumber(**answer, "population"));
    VAOLIB_ASSIGN_OR_RETURN(report.deterministic_width,
                            GetDouble(**answer, "deterministic_width"));
    VAOLIB_ASSIGN_OR_RETURN(report.sampling_width,
                            GetDouble(**answer, "sampling_width"));
  }

  // Tolerated as absent: reports serialized before the health plane.
  if (const auto progress = Child(*root, "progress"); progress.ok()) {
    VAOLIB_ASSIGN_OR_RETURN(report.answer_width,
                            GetDouble(**progress, "width"));
    VAOLIB_ASSIGN_OR_RETURN(report.answer_rel_width,
                            GetDouble(**progress, "rel_width"));
    VAOLIB_ASSIGN_OR_RETURN(report.limited_by_min_width,
                            GetBool(**progress, "limited_by_min_width"));
  }

  VAOLIB_ASSIGN_OR_RETURN(const JsonValue* calibration,
                          Child(*root, "calibration"));
  for (int k = 0; k < kNumSolverKinds; ++k) {
    VAOLIB_ASSIGN_OR_RETURN(
        const JsonValue* kind_stats,
        Child(*calibration, SolverKindName(static_cast<SolverKind>(k))));
    CalibrationKindStats& c = report.calibration[k];
    VAOLIB_ASSIGN_OR_RETURN(c.samples, GetNumber(*kind_stats, "samples"));
    VAOLIB_ASSIGN_OR_RETURN(c.cost_err_sum,
                            GetDouble(*kind_stats, "cost_err_sum"));
    VAOLIB_ASSIGN_OR_RETURN(c.cost_abs_err_sum,
                            GetDouble(*kind_stats, "cost_abs_err_sum"));
    VAOLIB_ASSIGN_OR_RETURN(c.lo_err_sum,
                            GetDouble(*kind_stats, "lo_err_sum"));
    VAOLIB_ASSIGN_OR_RETURN(c.lo_abs_err_sum,
                            GetDouble(*kind_stats, "lo_abs_err_sum"));
    VAOLIB_ASSIGN_OR_RETURN(c.hi_err_sum,
                            GetDouble(*kind_stats, "hi_err_sum"));
    VAOLIB_ASSIGN_OR_RETURN(c.hi_abs_err_sum,
                            GetDouble(*kind_stats, "hi_abs_err_sum"));
  }
  return report;
}

void RecordTickMetrics(const ExecutionReport& report) {
  static Counter* ticks =
      MetricsRegistry::Global().GetCounter("vaolib_ticks_total");
  static Counter* work_by_kind[] = {
      MetricsRegistry::Global().GetCounter("vaolib_work_units_total",
                                           {{"kind", "exec"}}),
      MetricsRegistry::Global().GetCounter("vaolib_work_units_total",
                                           {{"kind", "get_state"}}),
      MetricsRegistry::Global().GetCounter("vaolib_work_units_total",
                                           {{"kind", "store_state"}}),
      MetricsRegistry::Global().GetCounter("vaolib_work_units_total",
                                           {{"kind", "choose_iter"}}),
  };
  static Histogram* tick_work = MetricsRegistry::Global().GetHistogram(
      "vaolib_tick_work_units", {},
      {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8});
  static Counter* short_circuited = MetricsRegistry::Global().GetCounter(
      "vaolib_rows_short_circuited_total");
  static Counter* scanned =
      MetricsRegistry::Global().GetCounter("vaolib_rows_scanned_total");

  ticks->Increment();
  work_by_kind[0]->Add(report.work.exec);
  work_by_kind[1]->Add(report.work.get_state);
  work_by_kind[2]->Add(report.work.store_state);
  work_by_kind[3]->Add(report.work.choose_iter);
  tick_work->Observe(static_cast<double>(report.work.Total()));
  scanned->Add(report.rows_scanned);
  short_circuited->Add(report.rows_short_circuited);
}

}  // namespace vaolib::obs
