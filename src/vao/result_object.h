// Copyright 2026 The vaolib Authors.
// The iterative UDF interface of Section 3.2 -- the paper's core abstraction.
//
// Instead of a single value, a variable-accuracy UDF call returns a
// ResultObject carrying:
//   * bounds()    -- the H and L error bounds on the true function value,
//   * Iterate()   -- spend more CPU to tighten the bounds,
//   * min_width() -- the width below which the answer is "as accurate as
//                    possible" and no further Iterate() calls should be made,
//   * est_cost()/est_bounds() -- the estCPU/estL/estH members that aggregate
//                    VAOs use to choose among candidate iterations.
//
// Concrete result objects (PDE, ODE, integral, root, shifted) live in
// sibling headers. All cost accounting flows through the WorkMeter supplied
// when the object is created.

#ifndef VAOLIB_VAO_RESULT_OBJECT_H_
#define VAOLIB_VAO_RESULT_OBJECT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bounds.h"
#include "common/result.h"
#include "common/status.h"
#include "common/work_meter.h"

namespace vaolib::vao {

/// \brief A refinable function result: the paper's result object.
///
/// Implementations must keep bounds() sound (always containing the true
/// function value) and should keep widths non-increasing across Iterate()
/// calls. est_bounds()/est_cost() are best-effort predictions and carry no
/// soundness guarantee (Section 3.2).
class ResultObject {
 public:
  virtual ~ResultObject() = default;

  /// Current error bounds [L, H] on the function value.
  virtual Bounds bounds() const = 0;

  /// The paper's L member.
  double lower() const { return bounds().lo; }

  /// The paper's H member.
  double upper() const { return bounds().hi; }

  /// Width floor below which no further Iterate() calls should be made.
  virtual double min_width() const = 0;

  /// Refines the bounds at the cost of more CPU cycles (charged to the
  /// WorkMeter supplied at creation).
  ///
  /// \return ResourceExhausted when the implementation's refinement limit is
  /// reached, NumericError on solver breakdown; otherwise OK.
  virtual Status Iterate() = 0;

  /// Estimated work units of the next Iterate() call (the paper's estCPU).
  virtual std::uint64_t est_cost() const = 0;

  /// Estimated bounds after the next Iterate() (the paper's estL/estH).
  virtual Bounds est_bounds() const = 0;

  /// Number of Iterate() calls made so far.
  virtual int iterations() const = 0;

  /// Work units a traditional one-shot solver would charge to reach the
  /// current accuracy (the paper's cost_trad of Section 3.2): the final-grid
  /// solve for finite-difference solvers, the cumulative evaluations for
  /// integrators and root solvers. Used to build calibrated black-box
  /// baselines exactly the way Section 6 does.
  virtual std::uint64_t traditional_cost() const = 0;

  /// True when bounds().Width() < min_width(): the stopping condition of
  /// Section 3.2. Operators must not call Iterate() past this point.
  bool AtStoppingCondition() const { return bounds().Width() < min_width(); }

  /// Batch-compatibility key for the next Iterate(). Two objects whose keys
  /// are equal and non-empty can have their next refinement executed
  /// together by one SoA batch kernel (vao::IterateBatch) with results
  /// bit-identical to calling Iterate() on each. The empty key (the
  /// default) means "not batchable right now" -- at a refinement cap, about
  /// to hit a memoized solve, or simply not backed by a batch kernel.
  virtual std::string batch_key() const { return {}; }

  /// Index into obs::SolverKind of the calibrated solver family this
  /// object's estimates come from, or -1 (the default) for objects outside
  /// those families (synthetic, custom black boxes). Operator tasks file
  /// their observed iterates' calibration samples under it, and the
  /// calibrated scoring path uses it to pick the right CalibrationSnapshot
  /// bias for a candidate; wrappers must forward it.
  virtual int calibration_kind() const { return -1; }

  /// Correlation-group key for sentinel re-ranking: objects sharing a
  /// non-empty key are expected to move together (same rate tick, same
  /// model family), so observations on a few members predict the rest.
  /// Defaults to batch_key() -- lockstep-batchable objects are correlated
  /// by construction -- but can be broader: correlated objects need not be
  /// kernel-batchable. Wrappers must forward it.
  virtual std::string correlation_key() const { return batch_key(); }
};

using ResultObjectPtr = std::unique_ptr<ResultObject>;

/// \brief Convenience base holding the meter pointer and iteration count.
class ResultObjectBase : public ResultObject {
 public:
  int iterations() const override { return iterations_; }

 protected:
  explicit ResultObjectBase(WorkMeter* meter) : meter_(meter) {}

  /// Charges \p units of \p kind to the meter if one is attached.
  void Charge(WorkKind kind, std::uint64_t units) const {
    if (meter_ != nullptr) meter_->Charge(kind, units);
  }

  /// Charges the per-iteration get/store state overhead of the cost model
  /// (Section 3.2); a handful of units, negligible by design.
  void ChargeStateOverhead() const {
    Charge(WorkKind::kGetState, 1);
    Charge(WorkKind::kStoreState, 1);
  }

  WorkMeter* meter() const { return meter_; }
  void BumpIterations() { ++iterations_; }

 private:
  WorkMeter* meter_;
  int iterations_ = 0;
};

/// \brief A variable-accuracy UDF: maps an argument vector to a fresh
/// ResultObject whose work is charged to \p meter. This is the interface the
/// query engine registers and VAO operators invoke.
class VariableAccuracyFunction {
 public:
  virtual ~VariableAccuracyFunction() = default;

  /// Human-readable function name (for plans and diagnostics).
  virtual const std::string& name() const = 0;

  /// Number of arguments Invoke() expects.
  virtual int arity() const = 0;

  /// Starts a new evaluation of the function at \p args. The returned object
  /// begins with the coarsest bounds the implementation supports.
  virtual Result<ResultObjectPtr> Invoke(const std::vector<double>& args,
                                         WorkMeter* meter) const = 0;
};

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_RESULT_OBJECT_H_
