#include "engine/multi_query.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/macros.h"
#include "engine/report_capture.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vao/parallel.h"

namespace vaolib::engine {

namespace {

bool SameBinding(const ArgRef& a, const ArgRef& b) {
  return a.source == b.source && a.field == b.field &&
         a.constant == b.constant;
}

}  // namespace

MultiQueryExecutor::MultiQueryExecutor(const Relation* relation,
                                       Schema stream_schema,
                                       MultiQueryOptions options)
    : relation_(relation),
      stream_schema_(std::move(stream_schema)),
      options_(std::move(options)) {
  options_.threads = std::max(options_.threads, 1);
}

Result<std::unique_ptr<MultiQueryExecutor>> MultiQueryExecutor::Create(
    const Relation* relation, Schema stream_schema,
    std::vector<Query> queries, const MultiQueryOptions& options) {
  if (relation == nullptr) {
    return Status::InvalidArgument("multi-query executor needs a relation");
  }
  if (queries.empty()) {
    return Status::InvalidArgument("multi-query executor with no queries");
  }
  auto executor = std::make_unique<MultiQueryExecutor>(
      relation, std::move(stream_schema), options);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    VAOLIB_ASSIGN_OR_RETURN(
        QueryPlan plan,
        QueryPlan::Create(queries[q], executor->stream_schema_, relation));
    VAOLIB_RETURN_IF_ERROR(executor->Insert(q, std::move(plan)));
  }
  return executor;
}

Status MultiQueryExecutor::Insert(std::size_t q, QueryPlan plan,
                                  const std::string& owner) {
  if (!members_.empty()) {
    // Same function means same arity, so the bindings line up one to one.
    const Query& query = plan.query();
    const Query& first = members_.front().plan.query();
    if (query.function != first.function) {
      return Status::InvalidArgument(
          "shared execution requires all queries to use the same function");
    }
    for (std::size_t i = 0; i < query.args.size(); ++i) {
      if (!SameBinding(query.args[i], first.args[i])) {
        return Status::InvalidArgument(
            "shared execution requires identical argument bindings");
      }
    }
  }
  obs::Counter* owner_work = nullptr;
  if (!owner.empty()) {
    owner_work = obs::MetricsRegistry::Global().GetCounter(
        "vaolib_owner_work_units_total", {{"owner", owner}});
  }
  members_.insert(members_.begin() + q,
                  Member{std::move(plan), {}, owner, owner_work});
  return Status::OK();
}

void MultiQueryExecutor::Remove(std::size_t q) {
  members_.erase(members_.begin() + q);
}

Result<std::vector<TickResult>> MultiQueryExecutor::ProcessTick(
    const Tuple& stream_tuple) {
  if (stream_tuple.size() != stream_schema_.size()) {
    return Status::InvalidArgument("stream tuple does not match schema");
  }
  if (members_.empty()) {
    return Status::FailedPrecondition("multi-query executor with no queries");
  }
  const std::size_t n = relation_->size();
  if (n == 0) {
    return Status::FailedPrecondition("relation is empty");
  }
  const obs::ScopedSpan tick_span("tick", "multi");
  const QueryPlan& lead = members_.front().plan;
  const ReportCapture tick_capture(
      meter_, ReportCapture::CacheOf(lead.query().function));

  // One shared result object per relation row, created in bulk (row-parallel
  // on the shared pool when threads > 1; work totals are identical either
  // way). Sampled aggregates materialize private objects for their sampled
  // rows instead, so a tick whose queries are all approximate skips this.
  bool need_shared = false;
  bool need_every_object = false;
  for (const Member& member : members_) {
    const Query& query = member.plan.query();
    if (query.approx.has_value()) continue;
    need_shared = true;
    need_every_object = need_every_object ||
                        (query.kind != QueryKind::kSelect &&
                         query.kind != QueryKind::kSelectRange);
  }
  // A selection settles a row whose Invoke() failed like any other row
  // failure; the other exact kinds need every object, so there the lowest
  // failed row fails the tick.
  std::vector<vao::ResultObjectPtr> owned;
  std::vector<Status> invoke_status;
  if (need_shared) {
    VAOLIB_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> rows,
                            lead.BuildRows(stream_tuple));
    VAOLIB_ASSIGN_OR_RETURN(
        owned, vao::InvokeAll(*lead.query().function, rows, options_.threads,
                              &meter_, &invoke_status));
    const auto failed = std::find_if_not(
        invoke_status.begin(), invoke_status.end(), std::mem_fn(&Status::ok));
    if (failed != invoke_status.end() && need_every_object) {
      return *failed;
    }
  }
  std::vector<vao::ResultObject*> objects;
  objects.reserve(owned.size());
  for (const auto& object : owned) objects.push_back(object.get());

  // One task per query over the SHARED objects: a step granted to one query
  // tightens bounds every other query reads, so work composes across the
  // set -- the scheduler only decides the order and how far the budget
  // reaches. Approximate queries contribute their private sampled task to
  // the same run, so the scheduler trades exact refinement against
  // sampling work head-to-head.
  TickInputs inputs;
  inputs.stream_tuple = &stream_tuple;
  inputs.objects = &objects;
  inputs.meter = &meter_;
  inputs.threads = options_.threads;
  inputs.invoke_status = std::move(invoke_status);
  std::vector<CompiledQuery> compiled;
  compiled.reserve(members_.size());
  std::vector<WorkScheduler::Entry> entries(members_.size());
  for (std::size_t q = 0; q < members_.size(); ++q) {
    VAOLIB_ASSIGN_OR_RETURN(CompiledQuery query,
                            members_[q].plan.Compile(inputs));
    compiled.push_back(std::move(query));
    entries[q].task = compiled[q].task();
    entries[q].schedule = members_[q].schedule;
  }
  WorkScheduler scheduler(options_.scheduler);
  VAOLIB_ASSIGN_OR_RETURN(const std::vector<TaskScheduleStats> sched_stats,
                          scheduler.Run(entries, &meter_));

  const char* policy_name = SchedulerPolicyName(options_.scheduler.policy);
  last_tick_report_ = obs::ExecutionReport();
  obs::ExecutionReport& tick = last_tick_report_;
  tick.query_kind = "multi";
  // The shared objects when they were created, plus every sampled row.
  tick.rows_scanned = need_shared ? n : 0;
  tick.scheduled = true;
  tick.scheduler_policy = policy_name;
  tick.scheduler_budget = options_.scheduler.budget;
  std::vector<TickResult> results(members_.size());
  for (std::size_t q = 0; q < members_.size(); ++q) {
    const Member& member = members_[q];
    TickResult& result = results[q];
    VAOLIB_RETURN_IF_ERROR(compiled[q].Decode(options_.resilience, &result));
    const TaskScheduleStats& stats = sched_stats[q];

    // Exact attribution: the work units the scheduler granted this query.
    result.work_units = stats.spent;
    obs::ExecutionReport& report = result.report;
    report.work = stats.work;
    report.scheduled = true;
    report.scheduler_policy = policy_name;
    report.scheduler_budget = options_.scheduler.budget;
    report.scheduler_spent = stats.spent;
    report.scheduler_steps = stats.steps;
    report.scheduler_finished_at = stats.finished_at;
    report.converged = result.converged;
    report.starved = stats.starved;
    report.missed_deadline = stats.missed_deadline;
    if (member.owner_work != nullptr) {
      report.tenant = member.owner;
      member.owner_work->Add(stats.spent);
    }

    // Tick-wide account: operator section summed over every query.
    tick.iterations += report.iterations;
    tick.coarse_iterations += report.coarse_iterations;
    tick.greedy_iterations += report.greedy_iterations;
    tick.finalize_iterations += report.finalize_iterations;
    tick.choose_steps += report.choose_steps;
    tick.objects_touched += report.objects_touched;
    tick.stalled_objects += report.stalled_objects;
    tick.rows_quarantined += report.rows_quarantined;
    for (int k = 0; k < obs::kNumSolverKinds; ++k) {
      tick.calibration[k].Merge(report.calibration[k]);
    }
    if (member.plan.query().approx.has_value()) {
      tick.rows_scanned += report.rows_scanned;
    }
    tick.rows_short_circuited =
        std::max(tick.rows_short_circuited, report.rows_short_circuited);
    tick.scheduler_spent += stats.spent;
    tick.scheduler_steps += stats.steps;
    tick.converged = tick.converged && result.converged;
    tick.starved = tick.starved || stats.starved;
    tick.missed_deadline = tick.missed_deadline || stats.missed_deadline;
  }
  // Whole-tick work (shared object creation included), cache and pool.
  tick_capture.Finish(meter_, &tick);
  obs::RecordTickMetrics(tick);
  return results;
}

}  // namespace vaolib::engine
