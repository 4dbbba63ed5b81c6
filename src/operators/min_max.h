// Copyright 2026 The vaolib Authors.
// MIN/MAX aggregate VAO (Section 5.1) and the "Optimal" oracle baseline of
// Section 6.2.
//
// The MAX VAO returns bounds on the object o_max whose value dominates every
// other object, terminating when either (1) o_max's bounds exceed all other
// bounds, or (2) o_max and everything still overlapping it have reached
// their stopping conditions (indistinguishable within minWidth). Iterations
// are chosen greedily: the candidate whose predicted bounds shrinkage
// removes the most overlap with the current guess o'_max per estimated CPU
// cycle. MIN is the exact mirror image and shares the implementation
// through bound negation.

#ifndef VAOLIB_OPERATORS_MIN_MAX_H_
#define VAOLIB_OPERATORS_MIN_MAX_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/work_meter.h"
#include "operators/operator_base.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief Result of a MIN/MAX evaluation.
struct MinMaxOutcome {
  std::size_t winner_index = 0;  ///< index of the extreme object in the input
  Bounds winner_bounds;          ///< bounds on its value, width <= epsilon
  /// True when termination case (2) fired: the winner and tied_indices are
  /// mutually indistinguishable within their minWidths.
  bool tie = false;
  std::vector<std::size_t> tied_indices;  ///< overlapping converged rivals
  /// True when a refinement stall (see OperatorStats::stalled_objects) froze
  /// some bounds early: the answer is still sound, but winner_bounds may be
  /// wider than epsilon and ties may be coarser than minWidth would allow.
  bool precision_degraded = false;
  /// False when a scheduler budget cut the task off before termination: the
  /// winner is then the current best guess and winner_bounds a sound
  /// envelope for the true extreme, but neither is final.
  bool converged = true;
  OperatorStats stats;
};

/// \brief Configuration of a MIN/MAX VAO. All shared knobs (epsilon,
/// strategy, threads/coarse pre-phase, meter) live on
/// OperatorOptions; epsilon must additionally be at least the largest input
/// minWidth (the paper's footnote 10).
struct MinMaxOptions : OperatorOptions {
  ExtremeKind kind = ExtremeKind::kMax;
};

/// \brief Adaptive MIN/MAX aggregate over a set of result objects.
class MinMaxVao {
 public:
  explicit MinMaxVao(const MinMaxOptions& options) : options_(options) {}

  /// Runs the aggregate over \p objects (all non-null; at least one).
  ///
  /// \return InvalidArgument if epsilon < max minWidth or inputs malformed;
  /// NotConverged past kMaxTotalIterations.
  Result<MinMaxOutcome> Evaluate(
      const std::vector<vao::ResultObject*>& objects) const;

  const MinMaxOptions& options() const { return options_; }

 private:
  MinMaxOptions options_;
};

/// \brief Validates MIN/MAX inputs: at least one object, all non-null with
/// well-formed bounds, and \p epsilon >= the largest input minWidth (the
/// paper's footnote 10). Shared by the VAO, its IterationTask, and the
/// oracle baseline.
Status ValidateMinMaxInputs(const std::vector<vao::ResultObject*>& objects,
                            double epsilon);

/// \brief The Section 6.2 "Optimal" baseline: an iteration strategy that is
/// told the winning index a priori. It converges the winner to epsilon
/// first, then iterates each rival only until its bounds separate from the
/// winner's (or its stopping condition fires).
Result<MinMaxOutcome> OptimalExtremeOracle(
    const std::vector<vao::ResultObject*>& objects, std::size_t winner_index,
    ExtremeKind kind, double epsilon);

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_MIN_MAX_H_
