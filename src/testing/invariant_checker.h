// Copyright 2026 The vaolib Authors.
// InvariantChecker: the structural properties every checked run must hold,
// independent of the answer itself -- bound nesting during refinement,
// work accounting that adds up (WorkMeter totals == ExecutionReport totals),
// and determinism across thread counts.

#ifndef VAOLIB_TESTING_INVARIANT_CHECKER_H_
#define VAOLIB_TESTING_INVARIANT_CHECKER_H_

#include <cstdint>

#include "common/status.h"
#include "common/work_meter.h"
#include "engine/executor.h"
#include "vao/result_object.h"

namespace vaolib::testing {

/// \brief Stateless validators returning the first violated invariant as an
/// error Status (FailedPrecondition with a description), OK otherwise.
class InvariantChecker {
 public:
  /// Drives \p object up to \p max_iterations Iterate() calls (stopping at
  /// its stopping condition) and checks, per step: bounds valid, each new
  /// interval nested inside the previous one (refinement never "forgets"),
  /// and \p meter (when non-null) monotonically non-decreasing.
  static Status CheckRefinement(vao::ResultObject* object,
                                int max_iterations = 256,
                                const WorkMeter* meter = nullptr);

  /// Checks a tick's internal accounting: report.work.Total() equals
  /// work_units, the report's operator section matches the tick stats, the
  /// phase split sums to the iteration total, quarantine counts agree, and
  /// any reported bounds are well-formed. Selections also need ascending
  /// quarantined rows disjoint from the passing rows, every stalled row
  /// quarantined, and a degraded tick whenever a row was quarantined.
  static Status CheckTickAccounting(const engine::TickResult& tick);

  /// Checks two ticks of the SAME query are identical: answers, tie flags,
  /// quarantines, and (when \p require_equal_work, e.g. for runs that only
  /// differ in thread count) work totals and iteration counts too.
  static Status CheckTicksEqual(const engine::TickResult& a,
                                const engine::TickResult& b,
                                bool require_equal_work);
};

}  // namespace vaolib::testing

#endif  // VAOLIB_TESTING_INVARIANT_CHECKER_H_
