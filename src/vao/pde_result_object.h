// Copyright 2026 The vaolib Authors.
// PdeResultObject: the Section 4.1 adaptation of a finite-difference PDE
// solver to the iterative VAO interface.
//
// Creation runs the solver at a coarse grid (dt*, dx*) plus the two
// half-step probes (dt*/2, dx*) and (dt*, dx*/2) needed to estimate the
// extrapolation coefficients K1 and K2; bounds follow from the Richardson
// model with the paper's safety factor. Each Iterate() halves whichever step
// size the error model says removes more error, re-solves, refreshes the
// matching coefficient, and updates bounds and the est* predictions. Work
// roughly doubles per iteration, giving the paper's
// sum-of-iterations ~= 2 * cost_trad property.
//
// An object created with a problem key while a vao::PdeProfileCache is
// active reads and publishes its t = 0 profiles there: a grid whose profile
// is cached costs the profile load, not the mesh (vao/pde_profile_cache.h).

#ifndef VAOLIB_VAO_PDE_RESULT_OBJECT_H_
#define VAOLIB_VAO_PDE_RESULT_OBJECT_H_

#include <map>
#include <utility>

#include "numeric/pde_solver.h"
#include "numeric/richardson.h"
#include "obs/metrics.h"
#include "vao/pde_profile_cache.h"
#include "vao/prepayable.h"
#include "vao/result_object.h"

namespace vaolib::vao {

/// \brief Tuning knobs for PDE result objects.
struct PdeResultOptions {
  numeric::PdeGrid initial_grid{8, 8};
  double min_width = 0.01;      ///< the paper's $.01 for bond prices
  double safety_factor = 3.0;   ///< Richardson inflation (paper uses 3)
  int max_iterations = 40;      ///< refinement cap (grid doubles per step)
};

/// \brief Result object for a parabolic PDE solution F(query_x, 0).
class PdeResultObject : public ResultObjectBase, public Prepayable {
 public:
  /// Solves the initial coarse grid and the two half-step probes, charging
  /// all three solves to \p meter. A non-empty \p problem_key (values that
  /// determine \p problem entirely) binds the object to the calling
  /// thread's active PdeProfileCache, if there is one.
  static Result<ResultObjectPtr> Create(
      numeric::Pde1dProblem problem, double query_x,
      const PdeResultOptions& options, WorkMeter* meter,
      const std::vector<double>& problem_key = {});

  Bounds bounds() const override { return bounds_; }
  double min_width() const override { return options_.min_width; }
  Status Iterate() override;
  /// What the next Iterate() charges beyond its fixed state overhead: 0
  /// for a memoized grid, the profile load (x_intervals + 1) for a cached
  /// profile, the steps a prepaid march has left, the mesh otherwise. A
  /// march of a cached profile reports itself to Prepayable::Find().
  std::uint64_t est_cost() const override;
  /// Marches the next grid's cached profile by as many whole time steps
  /// as \p units pays for, short of the last, and suspends it there
  /// (PdeProfileCache::Suspend). 0 without a profile cache.
  std::uint64_t Prepay(std::uint64_t units) const override;
  Bounds est_bounds() const override { return est_bounds_; }
  int calibration_kind() const override {
    return static_cast<int>(obs::SolverKind::kPde);
  }

  std::uint64_t traditional_cost() const override {
    return grid_.MeshEntries();
  }

  /// "pde:<nx>:<nt>" of the next refinement grid; empty at max_iterations or
  /// when the next solve is already memoized (batching a free solve would
  /// pay for it).
  std::string batch_key() const override;

  /// Runs one Iterate() on every object through the lockstep PDE kernel.
  /// Objects whose next profile is cached read it instead, and objects
  /// sharing a cached problem march it once: the first solves and publishes,
  /// the rest read its profile. Preconditions: all objects share the same
  /// non-empty batch_key() and the same WorkMeter. Per-object results are
  /// bit-identical to scalar Iterate(); \p spent receives each object's
  /// work-unit share, summing exactly to what the shared meter was charged.
  static std::vector<Status> IterateGroup(
      const std::vector<PdeResultObject*>& objects,
      std::vector<std::uint64_t>* spent);

  /// Grid currently backing the bounds (exposed for calibration/tests).
  const numeric::PdeGrid& current_grid() const { return grid_; }

  /// Raw solver output at the current grid (centre of the error model).
  double current_value() const { return value_; }

  /// The fitted extrapolation model (exposed for tests/ablations).
  const numeric::RichardsonModel& model() const { return model_; }

 private:
  PdeResultObject(numeric::Pde1dProblem problem, double query_x,
                  const PdeResultOptions& options, WorkMeter* meter);

  /// Solves at \p grid, memoizing so a grid is never paid for twice.
  Result<double> SolveAt(const numeric::PdeGrid& grid);

  /// The profile at \p grid from the profile cache: read (charging the
  /// load) or solved and published. \p charged receives the units charged.
  Result<PdeProfileCache::Profile> CachedProfile(const numeric::PdeGrid& grid,
                                                 std::uint64_t* charged);

  /// Finishes the owned \p march of \p grid and publishes its profile;
  /// \p charged receives the units charged (the steps it had left).
  Result<PdeProfileCache::Profile> FinishMarch(const numeric::PdeGrid& grid,
                                               numeric::PdeMarch march,
                                               std::uint64_t* charged) const;

  /// Charges reading a cached profile at \p grid (kGetState, one unit per
  /// x-node); returns the units.
  std::uint64_t ChargeProfileLoad(const numeric::PdeGrid& grid) const;

  /// Grid the next Iterate() will solve (preferred axis halved).
  numeric::PdeGrid NextRefinementGrid() const;

  /// Moves to \p next with value \p new_value, refreshing the coefficient
  /// of \p axis (the axis just halved from steps \p dt, \p dx).
  void Advance(const numeric::PdeGrid& next, double new_value,
               numeric::StepAxis axis, double dt, double dx);

  /// Refreshes bounds_, est_bounds_, est_cost_ from the model and grid.
  void RefreshDerivedState();

  numeric::Pde1dProblem problem_;
  double query_x_;
  PdeResultOptions options_;
  numeric::RichardsonModel model_;

  numeric::PdeGrid grid_;  ///< grid of the current value
  double value_ = 0.0;
  Bounds bounds_;
  Bounds est_bounds_;
  numeric::PdeGrid next_;         ///< NextRefinementGrid(), kept fresh
  std::uint64_t est_cost_ = 0;    ///< est_cost() without the profile cache

  /// Memoized solves keyed by (x_intervals, t_steps).
  std::map<std::pair<int, int>, double> solve_cache_;

  /// The profile cache this object reads and fills (null: solve always),
  /// and its problem's id there.
  PdeProfileCache* profile_cache_ = nullptr;
  std::uint64_t problem_id_ = 0;
};

/// \brief A VariableAccuracyFunction producing PdeResultObjects. The problem
/// builder maps the argument vector to a PDE problem and query point, which
/// is how the bond model binds (rate, bond) pairs to PDE instances.
class PdeFunction : public VariableAccuracyFunction {
 public:
  /// Builds a PDE problem plus query abscissa from UDF arguments.
  using ProblemBuilder =
      std::function<Result<std::pair<numeric::Pde1dProblem, double>>(
          const std::vector<double>& args)>;

  PdeFunction(std::string name, int arity, ProblemBuilder builder,
              PdeResultOptions options)
      : name_(std::move(name)),
        arity_(arity),
        builder_(std::move(builder)),
        options_(options) {}

  const std::string& name() const override { return name_; }
  int arity() const override { return arity_; }

  Result<ResultObjectPtr> Invoke(const std::vector<double>& args,
                                 WorkMeter* meter) const override;

  const PdeResultOptions& options() const { return options_; }

 private:
  std::string name_;
  int arity_;
  ProblemBuilder builder_;
  PdeResultOptions options_;
};

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_PDE_RESULT_OBJECT_H_
