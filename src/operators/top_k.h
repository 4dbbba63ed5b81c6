// Copyright 2026 The vaolib Authors.
// TOP-K aggregate VAO: an extension generalizing the Section 5.1 MIN/MAX
// operator. Returns the k highest- (or lowest-) valued objects, refining
// bounds only until the chosen set separates from the rest.
//
// The paper's MAX VAO is the k = 1 special case; the greedy strategy
// generalizes from "reduce overlap with the guessed maximum" to "reduce
// overlap across the guessed selection boundary": the operator guesses the
// top-k set by upper bound and iterates whichever object most cheaply
// shrinks the overlap between the guessed members' lower bounds and the
// outsiders' upper bounds.

#ifndef VAOLIB_OPERATORS_TOP_K_H_
#define VAOLIB_OPERATORS_TOP_K_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/work_meter.h"
#include "operators/operator_base.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief Result of a TOP-K evaluation.
struct TopKOutcome {
  /// Indices of the selected objects, ordered by descending (ascending for
  /// kMin) bound midpoint.
  std::vector<std::size_t> winners;
  /// Bounds on each winner, parallel to `winners`, widths <= epsilon.
  std::vector<Bounds> winner_bounds;
  /// True when the boundary could not be fully separated within minWidths:
  /// the membership of the last slots is only determined up to ties.
  bool tie = false;
  /// True when a refinement stall (see OperatorStats::stalled_objects) froze
  /// some bounds early: the selection is still sound, but winner bounds may
  /// be wider than epsilon and ties coarser than minWidth would allow.
  bool precision_degraded = false;
  /// False when a scheduler budget cut the task off before termination: the
  /// winners are then the current best guess at the top-k set, each with its
  /// current (sound) bounds, but membership is not final.
  bool converged = true;
  OperatorStats stats;
};

/// \brief Configuration of a TOP-K VAO. All shared knobs (epsilon, strategy,
/// threads/coarse pre-phase, meter) live on OperatorOptions; epsilon
/// must additionally be at least the largest input minWidth (footnote-10
/// rule). TOP-K historically hard-wired the greedy strategy; it now honours
/// `strategy` like the other aggregates (kGreedy by default).
struct TopKOptions : OperatorOptions {
  std::size_t k = 1;
  ExtremeKind kind = ExtremeKind::kMax;
};

/// \brief Adaptive TOP-K aggregate over a set of result objects.
class TopKVao {
 public:
  explicit TopKVao(const TopKOptions& options) : options_(options) {}

  /// Runs the aggregate over \p objects. k must satisfy
  /// 1 <= k <= objects.size().
  Result<TopKOutcome> Evaluate(
      const std::vector<vao::ResultObject*>& objects) const;

  const TopKOptions& options() const { return options_; }

 private:
  TopKOptions options_;
};

/// \brief Validates TOP-K inputs: non-empty objects, 1 <= k <= n, all
/// non-null with well-formed bounds, epsilon >= the largest input minWidth.
/// Shared by the VAO and its IterationTask.
Status ValidateTopKInputs(const std::vector<vao::ResultObject*>& objects,
                          std::size_t k, double epsilon);

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_TOP_K_H_
