// Copyright 2026 The vaolib Authors.
// Parallel helpers for bulk result-object work. The paper notes its models
// are "easily parallelizable" and sizes production deployments in
// processors (Section 6.1); these helpers parallelize the embarrassingly
// parallel parts -- creating result objects for many rows, and converging
// many objects -- on the shared persistent ThreadPool (common/thread_pool.h),
// so a stream tick costs queue pushes rather than thread spawns.
//
// Thread-safety requirement: the function's Invoke() must be safe to call
// concurrently. That holds for the pure solver-backed functions in this
// library (Pde/Pde2d/Ode/Ivp/Integral/Root and the bond models) AND for
// CachingFunction, whose BoundsCache is sharded and locked per shard --
// lookups, updates, and destructor write-backs are safe from any worker.
//
// Determinism: work-unit totals and returned errors are identical for every
// thread count, including 1 (see the contracts on each helper). The caller's
// active PdeProfileCache is active on the workers too; its single-flight
// solves keep the totals thread-count independent.

#ifndef VAOLIB_VAO_PARALLEL_H_
#define VAOLIB_VAO_PARALLEL_H_

#include <cstdint>
#include <vector>

#include "vao/result_object.h"

namespace vaolib::vao {

/// \brief Invokes \p function on every row of \p rows using up to
/// \p threads workers of the shared pool. Returns the result objects in row
/// order; all work is charged to \p meter (if non-null), whose totals are
/// independent of \p threads. threads < 2 runs serially on the caller.
///
/// Objects are created against \p meter itself (not a per-chunk scratch
/// meter) so later Iterate() calls keep charging it; WorkMeter charging is
/// atomic, so this is safe from workers.
///
/// Error semantics: every row is attempted even after a failure, and the
/// returned error is deterministically that of the lowest-indexed failing
/// row regardless of thread count. With a non-null \p row_status the call
/// succeeds instead: (*row_status)[i] carries row i's Invoke() status, and
/// a failed row's object is null.
Result<std::vector<ResultObjectPtr>> InvokeAll(
    const VariableAccuracyFunction& function,
    const std::vector<std::vector<double>>& rows, int threads,
    WorkMeter* meter, std::vector<Status>* row_status = nullptr);

/// \brief Converges every object to its minWidth using up to \p threads
/// workers (each object is driven by exactly one worker, so per-object
/// Iterate() sequences are serial). Objects charge whatever meter they were
/// created against; WorkMeter charging is atomic, so caller-owned meters
/// (e.g. wired by InvokeAll) are safe.
///
/// Error semantics: every object is attempted even after a failure; returns
/// the error of the lowest-indexed failing object, deterministically.
///
/// Each object's loop is budgeted: ResourceExhausted after
/// \p max_iterations_per_object Iterate() calls, or as soon as its bounds
/// stop tightening while still above minWidth (StallGuard) -- one stalled
/// object would otherwise hang the whole bulk convergence.
Status ConvergeAllToMinWidth(const std::vector<ResultObject*>& objects,
                             int threads,
                             std::uint64_t max_iterations_per_object =
                                 50'000'000);

/// \brief Gives every listed object exactly one Iterate() call, using up to
/// \p threads workers of the shared pool (threads < 2 runs serially on the
/// caller). This is the batched form of a resumable task step: the engine's
/// scheduler refines many independent rows one notch per scheduling round,
/// and this fans one round out over the pool. Objects charge whatever meter
/// they were created against (atomic), so work totals are independent of
/// the thread count, and each object receives exactly one call regardless
/// of errors elsewhere.
///
/// Returns each object's Iterate() status, in input order (a null object
/// reads InvalidArgument and is skipped).
std::vector<Status> StepAll(const std::vector<ResultObject*>& objects,
                            int threads);

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_PARALLEL_H_
