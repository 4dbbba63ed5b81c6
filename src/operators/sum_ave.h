// Copyright 2026 The vaolib Authors.
// SUM/AVE aggregate VAO (Section 5.2), its traditional counterpart, and the
// hybrid operator the paper sketches as future work in Section 6.3.
//
// The VAO computes the weighted-sum interval
//   [ sum_i w_i * L_i ,  sum_i w_i * H_i ]
// and iterates greedily -- highest estimated weighted error reduction per
// CPU cycle -- until the interval width satisfies the precision constraint
// epsilon or every object has reached its stopping condition. AVE is SUM
// with weights 1/N.

#ifndef VAOLIB_OPERATORS_SUM_AVE_H_
#define VAOLIB_OPERATORS_SUM_AVE_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/work_meter.h"
#include "operators/operator_base.h"
#include "vao/black_box.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief Result of a SUM/AVE evaluation.
struct SumOutcome {
  Bounds sum_bounds;     ///< bounds on the weighted sum, width <= epsilon
  /// True when the loop stopped because every object converged before the
  /// precision constraint was met (the constraint then holds as tightly as
  /// the inputs allow).
  bool limited_by_min_width = false;
  /// False when a scheduler budget cut the task off before termination:
  /// sum_bounds is still a sound interval for the weighted sum, merely wider
  /// than epsilon.
  bool converged = true;
  OperatorStats stats;
};

/// \brief Configuration of a SUM/AVE VAO. All shared knobs (epsilon,
/// strategy, threads/coarse pre-phase, meter) live on
/// OperatorOptions.
struct SumAveOptions : OperatorOptions {
  /// With kGreedy or kBatchGreedy, pick iterations through a lazy max-heap
  /// in O(log N) instead of the O(N) scan -- the indexing optimization the
  /// paper mentions as unnecessary at 500 bonds but available (Section 5.2).
  /// Valid because a SUM score depends only on its own object's state. The
  /// heap picks what the scan picks: equal scores go to the lowest index, a
  /// zero best score falls back to the scan's widest-width cycle. Objects
  /// settled since the last step, by this task or by one beside it (the
  /// settle-notice feed), are re-pushed with fresh scores, and each pop is
  /// re-validated against the object's live score and stopping condition,
  /// so a re-priced or converged object is re-scored or dropped. Other
  /// strategies always scan. Compiled queries (QueryPlan) turn it on; the
  /// default keeps the paper benches on the scan.
  bool use_heap_index = false;
};

/// \brief Adaptive weighted-SUM aggregate over result objects.
class SumAveVao {
 public:
  explicit SumAveVao(const SumAveOptions& options) : options_(options) {}

  /// Runs the aggregate over \p objects with nonnegative \p weights
  /// (same length). Pass weights of 1 for SUM, 1/N for AVE.
  Result<SumOutcome> Evaluate(const std::vector<vao::ResultObject*>& objects,
                              const std::vector<double>& weights) const;

  const SumAveOptions& options() const { return options_; }

 private:
  SumAveOptions options_;
};

/// \brief Validates SUM/AVE inputs: non-empty objects, all non-null with
/// well-formed bounds, matching nonnegative weights, epsilon > 0. Shared by
/// the VAO, its IterationTask, and the hybrid operator.
Status ValidateSumAveInputs(const std::vector<vao::ResultObject*>& objects,
                            const std::vector<double>& weights,
                            double epsilon);

/// \brief Weights vector of n ones (SUM semantics).
std::vector<double> SumWeights(std::size_t n);

/// \brief Weights vector of n entries 1/n (AVE semantics).
std::vector<double> AveWeights(std::size_t n);

/// \brief Traditional weighted SUM over a black-box UDF: full-accuracy call
/// per row, exact arithmetic on the returned values.
struct TraditionalSumOutcome {
  double sum = 0.0;
};
Result<TraditionalSumOutcome> TraditionalWeightedSum(
    const vao::BlackBoxFunction& function,
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& weights, WorkMeter* meter);

/// \brief The Section 6.3 future-work hybrid: chooses between the VAO and
/// the per-object traditional path using the weight skew of the workload.
///
/// Figure 12 shows the VAO pays off only when weight is concentrated: with
/// uniform weights every object must converge and the VAO adds intermediate
/// -iteration overhead. The hybrid computes the fraction of total weight
/// held by the top `hot_fraction` of objects and runs the VAO only when it
/// exceeds `skew_threshold`.
class HybridSumVao {
 public:
  struct Options {
    SumAveOptions vao;
    double hot_fraction = 0.10;    ///< top share of objects examined
    double skew_threshold = 0.5;   ///< min weight share to pick the VAO path
  };

  explicit HybridSumVao(const Options& options) : options_(options) {}

  /// Returns true when the weight profile favours the VAO path.
  bool ShouldUseVao(const std::vector<double>& weights) const;

  struct HybridOutcome {
    SumOutcome sum;
    bool used_vao = false;
  };

  /// Performs the traditional full-accuracy call for input index i, charging
  /// black-box cost to whatever meter the caller wired in.
  using TraditionalCall = std::function<Result<double>(std::size_t)>;

  /// Evaluates the weighted sum. The VAO path runs over \p objects; the
  /// traditional path invokes \p traditional per index (falling back to
  /// converging each object when \p traditional is empty, which charges VAO
  /// iteration costs instead of black-box costs).
  Result<HybridOutcome> Evaluate(
      const std::vector<vao::ResultObject*>& objects,
      const std::vector<double>& weights,
      const TraditionalCall& traditional = nullptr) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_SUM_AVE_H_
