// Copyright 2026 The vaolib Authors.
// ReportCapture: snapshot/delta scaffolding the executors use to assemble
// per-query ExecutionReports. Captures the instrumented globals (solver-kind
// counters, shared thread-pool stats, the query function's bounds cache if
// it has one) plus the executor's WorkMeter on construction; Finish() turns
// the deltas into a report. The WorkMeter section is exact per query; the
// global sections are exact for a single running query and best-effort
// attributions when queries run concurrently.

#ifndef VAOLIB_ENGINE_REPORT_CAPTURE_H_
#define VAOLIB_ENGINE_REPORT_CAPTURE_H_

#include <vector>

#include "common/thread_pool.h"
#include "common/work_meter.h"
#include "engine/query.h"
#include "obs/execution_report.h"
#include "obs/metrics.h"
#include "vao/function_cache.h"

namespace vaolib::engine {

/// \brief Source-level label for \p kind ("select", "select_range", "min",
/// "max", "sum", "ave", "top_k").
inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSelect: return "select";
    case QueryKind::kSelectRange: return "select_range";
    case QueryKind::kMax: return "max";
    case QueryKind::kMin: return "min";
    case QueryKind::kSum: return "sum";
    case QueryKind::kAve: return "ave";
    case QueryKind::kTopK: return "top_k";
  }
  return "unknown";
}

class ReportCapture {
 public:
  /// Snapshots everything attributable to the query about to run. \p cache
  /// may be null (non-caching function).
  ReportCapture(const WorkMeter& meter, const vao::BoundsCache* cache)
      : work_before_(obs::WorkByKind::Capture(meter)),
        solver_before_(obs::SolverWorkSnapshot::Capture()),
        pool_before_(ThreadPool::Shared().stats()),
        cache_(cache) {
    if (cache_ != nullptr) shards_before_ = cache_->PerShardStats();
  }

  /// Fills \p report's work/solver/cache/thread-pool sections with the
  /// deltas since construction. The caller fills query_kind, the operator
  /// phase section, and the row accounting.
  void Finish(const WorkMeter& meter, obs::ExecutionReport* report) const {
    report->work = obs::WorkByKind::Capture(meter).DeltaSince(work_before_);
    const obs::SolverWorkSnapshot solver_delta =
        obs::SolverWorkSnapshot::Capture().DeltaSince(solver_before_);
    for (int k = 0; k < obs::kNumSolverKinds; ++k) {
      report->solver_work[k] = solver_delta.units[k];
    }

    const ThreadPool::Stats pool_after = ThreadPool::Shared().stats();
    report->pool_parallel_fors =
        pool_after.parallel_for_calls - pool_before_.parallel_for_calls;
    report->pool_tasks_enqueued =
        pool_after.tasks_enqueued - pool_before_.tasks_enqueued;
    report->pool_chunks_executed =
        pool_after.chunks_executed - pool_before_.chunks_executed;
    report->pool_queue_wait_nanos =
        pool_after.queue_wait_nanos - pool_before_.queue_wait_nanos;

    if (cache_ != nullptr) {
      report->has_cache = true;
      const auto shards_after = cache_->PerShardStats();
      report->cache_shards.clear();
      report->cache_hits = 0;
      report->cache_misses = 0;
      report->cache_evictions = 0;
      for (std::size_t s = 0; s < shards_after.size(); ++s) {
        obs::CacheShardStats delta;
        delta.hits = shards_after[s].hits - shards_before_[s].hits;
        delta.misses = shards_after[s].misses - shards_before_[s].misses;
        delta.evictions =
            shards_after[s].evictions - shards_before_[s].evictions;
        report->cache_hits += delta.hits;
        report->cache_misses += delta.misses;
        report->cache_evictions += delta.evictions;
        report->cache_shards.push_back(delta);
      }
    }
  }

  /// The query function's bounds cache, or null when it is not a
  /// CachingFunction.
  static const vao::BoundsCache* CacheOf(
      const vao::VariableAccuracyFunction* function) {
    const auto* caching = dynamic_cast<const vao::CachingFunction*>(function);
    return caching != nullptr ? &caching->cache() : nullptr;
  }

 private:
  obs::WorkByKind work_before_;
  obs::SolverWorkSnapshot solver_before_;
  ThreadPool::Stats pool_before_;
  const vao::BoundsCache* cache_;
  std::vector<vao::BoundsCache::ShardStats> shards_before_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_REPORT_CAPTURE_H_
