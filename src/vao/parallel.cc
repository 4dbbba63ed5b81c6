#include "vao/parallel.h"

#include "common/stall_guard.h"
#include "common/thread_pool.h"
#include "vao/pde_profile_cache.h"

namespace vaolib::vao {

Result<std::vector<ResultObjectPtr>> InvokeAll(
    const VariableAccuracyFunction& function,
    const std::vector<std::vector<double>>& rows, int threads,
    WorkMeter* meter, std::vector<Status>* row_status) {
  const std::size_t n = rows.size();
  std::vector<ResultObjectPtr> objects(n);
  if (row_status != nullptr) row_status->assign(n, Status::OK());
  if (n == 0) return objects;

  // Every row is attempted; the body reports the first (lowest-indexed)
  // error in its contiguous chunk, and the pool returns the lowest-indexed
  // failing chunk's error -- together: the lowest-indexed failing row.
  // Rows are distinct per worker, so row_status needs no synchronization.
  PdeProfileCache* const cache = PdeProfileCache::Active();
  auto invoke_range = [&](std::size_t begin, std::size_t end,
                          WorkMeter* /*chunk_meter*/) {
    const PdeProfileCache::Scope scope(cache);  // the caller's, on workers
    Status first_error;
    for (std::size_t i = begin; i < end; ++i) {
      auto object = function.Invoke(rows[i], meter);
      if (!object.ok()) {
        if (row_status != nullptr) {
          (*row_status)[i] = object.status();
        } else if (first_error.ok()) {
          first_error = object.status();
        }
        continue;
      }
      objects[i] = std::move(object).value();
    }
    return first_error;
  };

  Status status;
  if (threads < 2 || n < 2) {
    status = invoke_range(0, n, nullptr);
  } else {
    ThreadPool::ForOptions options;
    options.max_parallelism = threads;
    // Objects stay bound to the caller's meter for later Iterate() calls,
    // so charge it directly (atomic) instead of per-chunk scratch meters;
    // totals are deterministic because per-row work is.
    status = ThreadPool::Shared().ParallelFor(n, options, /*meter=*/nullptr,
                                              invoke_range);
  }
  if (!status.ok()) return status;
  return objects;
}

Status ConvergeAllToMinWidth(const std::vector<ResultObject*>& objects,
                             int threads,
                             std::uint64_t max_iterations_per_object) {
  const std::size_t n = objects.size();
  for (const auto* object : objects) {
    if (object == nullptr) {
      return Status::InvalidArgument("null result object");
    }
  }
  if (n == 0) return Status::OK();

  auto converge_range = [&](std::size_t begin, std::size_t end,
                            WorkMeter* /*chunk_meter*/) {
    Status first_error;
    for (std::size_t i = begin; i < end; ++i) {
      std::uint64_t steps = 0;
      StallGuard guard;
      while (!objects[i]->AtStoppingCondition()) {
        if (steps >= max_iterations_per_object) {
          if (first_error.ok()) {
            first_error = Status::ResourceExhausted(
                "ConvergeAllToMinWidth exceeded the per-object iteration "
                "budget");
          }
          break;
        }
        const Status status = objects[i]->Iterate();
        if (!status.ok()) {
          if (first_error.ok()) first_error = status;
          break;  // this object cannot progress; move to the next one
        }
        ++steps;
        if (guard.Observe(objects[i]->bounds().Width())) {
          if (first_error.ok()) {
            first_error = Status::ResourceExhausted(
                "ConvergeAllToMinWidth stalled: bounds stopped tightening "
                "above minWidth");
          }
          break;
        }
      }
    }
    return first_error;
  };

  if (threads < 2 || n < 2) {
    return converge_range(0, n, nullptr);
  }
  ThreadPool::ForOptions options;
  options.max_parallelism = threads;
  return ThreadPool::Shared().ParallelFor(n, options, /*meter=*/nullptr,
                                          converge_range);
}

std::vector<Status> StepAll(const std::vector<ResultObject*>& objects,
                            int threads) {
  const std::size_t n = objects.size();
  std::vector<Status> statuses(n);
  // Objects are distinct per worker, so statuses needs no synchronization.
  PdeProfileCache* const cache = PdeProfileCache::Active();
  auto step_range = [&](std::size_t begin, std::size_t end,
                        WorkMeter* /*chunk_meter*/) {
    const PdeProfileCache::Scope scope(cache);  // the caller's, on workers
    for (std::size_t i = begin; i < end; ++i) {
      statuses[i] = objects[i] != nullptr
                        ? objects[i]->Iterate()
                        : Status::InvalidArgument("null result object");
    }
    return Status::OK();
  };

  if (threads < 2 || n < 2) {
    step_range(0, n, nullptr);
  } else {
    ThreadPool::ForOptions options;
    options.max_parallelism = threads;
    const Status pool = ThreadPool::Shared().ParallelFor(
        n, options, /*meter=*/nullptr, step_range);
    // A pool-level failure (a nested call, an escaped exception) may have
    // skipped objects: none of the unfailed ones can be vouched for.
    if (!pool.ok()) {
      for (Status& status : statuses) {
        if (status.ok()) status = pool;
      }
    }
  }
  return statuses;
}

}  // namespace vaolib::vao
