// Copyright 2026 The vaolib Authors.
// Finite-difference solver for one-factor parabolic PDEs of the form used by
// the paper's bond model (Section 4.1):
//
//   a(x) F_xx + b(x) F_x + F_t - r(x) F + c(x) = 0,   F(x, t_end) = g(x)
//
// solved backward from the terminal condition to t = 0 with an implicit
// (backward-Euler in time, central-difference in space) scheme whose error is
// O(dt + dx^2) -- exactly the error form the paper's extrapolation assumes.
// The step matrix (I - dt*A) does not depend on the step, so the solver
// factors it once per solve (Thomas forward elimination) and each time step
// sweeps only its right-hand side and back-substitutes; the result is
// bit-identical to a full tridiagonal solve per step. The solver charges one
// WorkMeter exec unit per mesh entry computed, which is the paper's "compute
// work proportional to the number of mesh entries".

#ifndef VAOLIB_NUMERIC_PDE_SOLVER_H_
#define VAOLIB_NUMERIC_PDE_SOLVER_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/work_meter.h"
#include "numeric/batch.h"

namespace vaolib::numeric {

/// \brief Lateral (x-)boundary treatment for the PDE solver.
enum class BoundaryKind {
  kDirichlet,  ///< F(boundary, t) supplied by Pde1dProblem::*_value(t).
  kLinear,     ///< F_xx = 0 at the boundary (financial "linearity" condition).
};

/// \brief A one-dimensional parabolic terminal-value problem.
///
/// All coefficient callbacks must be pure functions of x (the problem class
/// of Section 4.1; the paper's bond PDE has constant a, r, c and affine b).
struct Pde1dProblem {
  std::function<double(double)> diffusion;   ///< a(x), > 0 on [x_min,x_max]
  std::function<double(double)> convection;  ///< b(x)
  std::function<double(double)> reaction;    ///< r(x)
  std::function<double(double)> source;      ///< c(x)
  std::function<double(double)> terminal;    ///< g(x) = F(x, t_end)

  double x_min = 0.0;
  double x_max = 1.0;
  double t_end = 1.0;  ///< horizon; solution is reported at t = 0

  BoundaryKind left_boundary = BoundaryKind::kLinear;
  BoundaryKind right_boundary = BoundaryKind::kLinear;
  /// Dirichlet values as functions of t; only consulted for kDirichlet.
  std::function<double(double)> left_value;
  std::function<double(double)> right_value;
};

/// \brief Discretization parameters: counts of intervals on each axis.
struct PdeGrid {
  int x_intervals = 8;  ///< dx cells; dx = (x_max - x_min) / x_intervals
  int t_steps = 8;      ///< number of dt steps; dt = t_end / t_steps

  double Dx(const Pde1dProblem& p) const {
    return (p.x_max - p.x_min) / x_intervals;
  }
  double Dt(const Pde1dProblem& p) const { return p.t_end / t_steps; }

  /// Total mesh entries computed by one solve (the paper's work measure).
  std::uint64_t MeshEntries() const {
    return static_cast<std::uint64_t>(x_intervals + 1) *
           static_cast<std::uint64_t>(t_steps);
  }
};

/// \brief Solves \p problem on \p grid and returns F(query_x, 0), linearly
/// interpolated between the two nearest x-nodes.
///
/// Charges grid.MeshEntries() exec units to \p meter (if non-null).
/// \return InvalidArgument for malformed problems/grids/query points,
/// NumericError if the factorization hits a zero pivot or a step produces
/// non-finite values.
Result<double> SolvePde(const Pde1dProblem& problem, const PdeGrid& grid,
                        double query_x, WorkMeter* meter);

/// \brief Solves and returns the entire final (t = 0) profile, one value per
/// x-node: AdvancePdeMarch over every step of a fresh march.
Result<std::vector<double>> SolvePdeProfile(const Pde1dProblem& problem,
                                            const PdeGrid& grid,
                                            WorkMeter* meter);

/// \brief A march of SolvePdeProfile stopped between time steps: the
/// profile after \p steps of the grid's t_steps. A fresh march (steps == 0)
/// starts from the terminal condition.
struct PdeMarch {
  int steps = 0;
  std::vector<double> profile;
};

/// \brief Continues \p march on \p grid by up to \p max_steps time steps,
/// so a solve can be paid for in installments. Each call charges
/// (x_intervals + 1) exec units per step it marched: the installments of a
/// march charge grid.MeshEntries() in all, and a finished march
/// (steps == t_steps) holds the profile SolvePdeProfile returns, bit for
/// bit. On error \p march is unchanged and nothing is charged.
Status AdvancePdeMarch(const Pde1dProblem& problem, const PdeGrid& grid,
                       int max_steps, PdeMarch* march, WorkMeter* meter);

/// \brief F(query_x, 0) from a t = 0 \p profile of \p problem on \p grid:
/// linear interpolation between the two nearest x-nodes. This is the one
/// interpolation every PDE value goes through, so a value read from a
/// stored profile is bit-identical to solving for it. Preconditions:
/// profile.size() == grid.x_intervals + 1 and query_x in
/// [problem.x_min, problem.x_max].
double InterpolateProfile(const Pde1dProblem& problem, const PdeGrid& grid,
                          const std::vector<double>& profile, double query_x);

/// \brief Marches K independent problems on the same grid in lockstep:
/// each lane is factored once as in SolvePdeProfile, and every step sweeps
/// the right-hand sides of all lanes together in struct-of-arrays planes.
/// Writes the t = 0 profile of each lane into \p profiles (values of failed
/// lanes are unspecified). Per-lane profiles are bit-identical to
/// SolvePdeProfile on the same problem and grid.
///
/// A lane whose factorization hits a zero pivot (time step 0) or whose step
/// produces a non-finite value is recorded in \p report with the time-step
/// index at which it failed and frozen; the remaining lanes keep marching.
/// Charges grid.MeshEntries() exec units per successful lane, matching the
/// scalar solver.
///
/// \return InvalidArgument when the batch is empty or any lane's problem is
/// malformed (nothing is charged then); numeric failures are per-lane.
Status SolvePdeProfileBatch(const std::vector<const Pde1dProblem*>& problems,
                            const PdeGrid& grid, WorkMeter* meter,
                            std::vector<std::vector<double>>* profiles,
                            BatchKernelReport* report);

}  // namespace vaolib::numeric

#endif  // VAOLIB_NUMERIC_PDE_SOLVER_H_
