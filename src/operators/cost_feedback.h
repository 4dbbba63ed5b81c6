// Copyright 2026 The vaolib Authors.
// CostFeedback: the operator-layer surface of the predictive-planning loop.
//
// The aggregate operators observe, on their serial adaptive paths, how much
// one Iterate() actually cost and how much it actually tightened the bounds
// versus what the object's estimates claimed. A CostFeedback sink receives
// those observations keyed by (object position, solver kind) and answers
// multiplicative correction ratios for future decisions. It is an operator
// option (OperatorOptions::feedback), read by the corrected strategies. The
// concrete store -- engine::CostHistory -- lives one layer up so that a
// caller running the same rows every tick can keep one store across ticks;
// operators only see this interface (operators must not depend on engine).

#ifndef VAOLIB_OPERATORS_COST_FEEDBACK_H_
#define VAOLIB_OPERATORS_COST_FEEDBACK_H_

#include <cstdint>

namespace vaolib::operators {

/// \name Ratio clamp shared by every actual/estimated correction (the
/// CostHistory EWMA and the ScoreCorrector's sentinel fit). Ratios outside
/// [kMinRatio, kMaxRatio] are almost certainly measurement artifacts
/// (first-iteration setup costs, a width that collapsed to the floor), so
/// one wild sample cannot zero out or explode a score. Denominators below
/// kMinDenominator (an estimate of ~0 work or ~0 shrink) carry no ratio
/// signal.
/// @{
inline constexpr double kMinRatio = 1.0 / 64.0;
inline constexpr double kMaxRatio = 64.0;
inline constexpr double kMinDenominator = 1e-12;
/// @}

/// \brief One serial-path Iterate() outcome versus its preceding estimates.
/// Costs are in work units; shrinks are bounds-width reductions (>= 0).
/// Negative actual_cost / actual_shrink mean "unknown" (e.g. an operator
/// run without a meter cannot attribute per-object work) -- the sink skips
/// the corresponding ratio.
struct CostObservation {
  double est_cost = 0.0;      ///< predicted work units (raw estimate)
  double actual_cost = -1.0;  ///< measured work units; < 0 = unknown
  double est_shrink = 0.0;    ///< predicted width reduction
  double actual_shrink = -1.0;///< measured width reduction; < 0 = unknown
};

/// \brief Sink + predictor for per-(object, kind) cost/shrink corrections.
/// \p kind is an obs::SolverKind index, or -1 for objects outside the
/// calibrated solver families (synthetic, chaos, custom black boxes).
/// Implementations must be safe to call from the single driving thread of
/// an operator; cross-operator sharing is the implementation's concern.
class CostFeedback {
 public:
  virtual ~CostFeedback() = default;

  /// Records one observation for object \p id of solver \p kind.
  virtual void Record(std::uint64_t id, int kind,
                      const CostObservation& observation) = 0;

  /// If enough history exists for (\p id, \p kind), fills
  /// \p cost_ratio (actual/estimated cost) and \p shrink_ratio
  /// (actual/estimated width reduction) and returns true. Either output
  /// may be left at 1.0 when that facet has no samples.
  virtual bool Predict(std::uint64_t id, int kind, double* cost_ratio,
                      double* shrink_ratio) const = 0;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_COST_FEEDBACK_H_
