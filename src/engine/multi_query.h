// Copyright 2026 The vaolib Authors.
// MultiQueryExecutor: shared execution of many standing queries over the
// same UDF -- the continuous-query deployment the paper's introduction
// motivates (many traders' queries over the same bond models). It is the
// engine's one VAO tick path: CqExecutor runs its query as a one-query
// group.
//
// All registered queries must bind the SAME function with the SAME argument
// references; that is exactly what makes sharing sound: per stream tick one
// result object is created per relation row, every query compiles (via its
// QueryPlan) into a resumable IterationTask over those shared objects, and
// since bounds only tighten, work done for one query is free for the next.
// A WorkScheduler steps the tasks. Without a budget the default kDeadline
// policy runs them to completion one after another in query order, so
// point selections cost what their hardest predicate costs, not the query
// count; with a budget every query still answers, soundly, when the budget
// runs out. Approximate queries compile into tasks over private row
// samples and compete for the same budget.

#ifndef VAOLIB_ENGINE_MULTI_QUERY_H_
#define VAOLIB_ENGINE_MULTI_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/work_meter.h"
#include "engine/query.h"
#include "engine/query_plan.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/scheduler.h"
#include "obs/metrics.h"

namespace vaolib::engine {

/// \brief How a MultiQueryExecutor runs its query set.
struct MultiQueryOptions {
  /// > 1 creates the per-tick shared objects through InvokeAll and runs
  /// row-parallel phases on the shared pool.
  int threads = 1;

  /// Who gets each work grant and how far the tick's budget reaches. The
  /// default, kDeadline with no budget and no deadlines, steps every query
  /// to completion in query order; greedy interleaving would let a broad
  /// SUM lock onto objects other queries refined deeply (DESIGN.md 4d).
  SchedulerOptions scheduler{.policy = SchedulerPolicy::kDeadline};

  /// How a failed selection row decodes: kStrict fails the tick with the
  /// lowest failed row's status, kDegrade quarantines the row.
  ResiliencePolicy resilience = ResiliencePolicy::kStrict;
};

/// \brief Shared-execution runner for a set of standing queries.
class MultiQueryExecutor {
 public:
  /// Builds the executor; every query must pass QueryPlan validation and
  /// have the same `function` and `args` bindings (InvalidArgument
  /// otherwise). Traditional mode is not supported here -- use one
  /// CqExecutor per query for baselines. With options.threads > 1 the
  /// per-tick shared objects are created through InvokeAll, selection rows
  /// refine row-parallel on the shared pool, and MIN/MAX/SUM/AVE run a
  /// parallel coarse phase (see MinMaxOptions/SumAveOptions).
  static Result<std::unique_ptr<MultiQueryExecutor>> Create(
      const Relation* relation, Schema stream_schema,
      std::vector<Query> queries, const MultiQueryOptions& options = {});

  /// An executor with no queries yet, edited with Insert() and Remove().
  /// \p relation is borrowed, non-null, and must outlive the executor.
  MultiQueryExecutor(const Relation* relation, Schema stream_schema,
                     MultiQueryOptions options);

  /// Inserts \p plan (built over this executor's relation and stream
  /// schema) as query \p q <= query_count(), with the default schedule. A
  /// non-empty \p owner (a tenant id) gets the query's exact per-tick spend
  /// on its report (`tenant`) and in vaolib_owner_work_units_total{owner}.
  /// InvalidArgument, leaving the executor as is, when the plan's function
  /// or argument bindings differ from those of the queries already in.
  Status Insert(std::size_t q, QueryPlan plan, const std::string& owner = {});
  /// Removes query \p q < query_count(); ticks fail while none is left.
  void Remove(std::size_t q);

  /// The scheduler's per-tick budget and query \p q's schedule, from the
  /// next tick on (a non-positive priority fails that tick).
  void set_budget(std::uint64_t budget) { options_.scheduler.budget = budget; }
  void set_schedule(std::size_t q, const QuerySchedule& schedule) {
    members_[q].schedule = schedule;
  }

  /// Re-evaluates every query for \p stream_tuple over shared result
  /// objects. Results are parallel to the current query list. Each
  /// TickResult's work_units is the exact work the scheduler granted that
  /// query (the spends sum to the scheduler run's meter delta); creating
  /// the shared objects is accounted only in last_tick_report(). converged
  /// reflects whether the query finished within the budget. A failed
  /// Invoke() of a shared row fails the tick when an exact aggregate needs
  /// the row; selections settle it under options().resilience.
  Result<std::vector<TickResult>> ProcessTick(const Tuple& stream_tuple);

  /// Cumulative work across all ticks and queries.
  const WorkMeter& meter() const { return meter_; }
  void ResetMeter() { meter_.Reset(); }

  /// Tick-wide observability account of the most recent ProcessTick():
  /// query_kind "multi", work/cache/pool sections covering the whole tick
  /// (shared object creation included), operator section (stalls and
  /// quarantines included) summed over the per-query reports, and
  /// rows_scanned counting the shared rows when they were created plus each
  /// approximate query's sampled rows. Each TickResult additionally carries
  /// its own report whose work section is that query's exact work_units
  /// split by kind.
  const obs::ExecutionReport& last_tick_report() const {
    return last_tick_report_;
  }

  std::size_t query_count() const { return members_.size(); }
  const QueryPlan& plan(std::size_t q) const { return members_[q].plan; }
  const MultiQueryOptions& options() const { return options_; }

 private:
  struct Member {
    QueryPlan plan;
    QuerySchedule schedule;
    std::string owner;
    /// vaolib_owner_work_units_total{owner}, resolved once at Insert();
    /// null without an owner.
    obs::Counter* owner_work = nullptr;
  };

  const Relation* relation_;
  Schema stream_schema_;
  std::vector<Member> members_;
  MultiQueryOptions options_;
  WorkMeter meter_;
  obs::ExecutionReport last_tick_report_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_MULTI_QUERY_H_
