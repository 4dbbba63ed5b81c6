#include "common/macros.h"
#include "numeric/pde_solver.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaolib::numeric {

namespace {

Status ValidateInputs(const Pde1dProblem& p, const PdeGrid& grid) {
  if (!p.diffusion || !p.convection || !p.reaction || !p.source ||
      !p.terminal) {
    return Status::InvalidArgument("PDE problem has unset coefficient(s)");
  }
  if (!(p.x_max > p.x_min)) {
    return Status::InvalidArgument("PDE domain requires x_max > x_min");
  }
  if (!(p.t_end > 0.0)) {
    return Status::InvalidArgument("PDE horizon requires t_end > 0");
  }
  if (grid.x_intervals < 2 || grid.t_steps < 1) {
    return Status::InvalidArgument(
        "PDE grid requires >= 2 x-intervals and >= 1 t-step");
  }
  if (p.left_boundary == BoundaryKind::kDirichlet && !p.left_value) {
    return Status::InvalidArgument("left Dirichlet boundary has no value fn");
  }
  if (p.right_boundary == BoundaryKind::kDirichlet && !p.right_value) {
    return Status::InvalidArgument("right Dirichlet boundary has no value fn");
  }
  return Status::OK();
}

// The step-invariant half of one problem's backward-Euler march: the matrix
// (I - dt*A) with the linearity folds applied, eliminated once. A step then
// sweeps only its right-hand side, doing per entry exactly the IEEE
// operations a full Thomas solve of the same system does, so the profile is
// bit-identical to re-assembling and re-solving on every step.
struct FactoredMarch {
  double dt = 0.0;
  std::vector<double> lower;     // sub-diagonal as assembled
  std::vector<double> pivot;     // diagonal, then the elimination pivots
  std::vector<double> c_prime;   // super-diagonal, then upper[i] / pivot[i]
  std::vector<double> dt_c;      // dt * c(x_i); 0 in the boundary rows
  std::vector<double> terminal;  // g(x_i), the profile the march starts from
};

// March in tau = t_end - t; F_tau = a F_xx + b F_x - r F + c, forward
// parabolic in tau. Backward Euler: (I - dt*A) U^{m+1} = U^m + dt*c, with
// the interior stencil of A at node i:
//   A U |_i = a_i (U_{i+1} - 2U_i + U_{i-1})/dx^2
//           + b_i (U_{i+1} - U_{i-1})/(2dx) - r_i U_i.
// Rows 0 and nx are identity rows: the Dirichlet value, or a placeholder
// for a linear boundary that is recovered after the solve.
// \return InvalidArgument for a non-positive diffusion coefficient,
// NumericError for a zero pivot.
Status FactorMarch(const Pde1dProblem& p, const PdeGrid& grid,
                   FactoredMarch* f) {
  const int nx = grid.x_intervals;  // nodes 0..nx
  const double dx = grid.Dx(p);
  const double dt = grid.Dt(p);
  f->dt = dt;
  f->lower.assign(nx + 1, 0.0);
  f->pivot.assign(nx + 1, 1.0);
  f->c_prime.assign(nx + 1, 0.0);
  f->dt_c.assign(nx + 1, 0.0);
  f->terminal.resize(nx + 1);
  for (int i = 0; i <= nx; ++i) {
    const double x = p.x_min + dx * i;
    const double a = p.diffusion(x);
    if (!(a > 0.0)) {
      return Status::InvalidArgument("diffusion coefficient must be > 0 at x=" +
                                     std::to_string(x));
    }
    f->terminal[i] = p.terminal(x);
    if (i == 0 || i == nx) continue;
    const double diff = a / (dx * dx);
    const double conv = p.convection(x) / (2.0 * dx);
    f->lower[i] = -dt * (diff - conv);
    f->pivot[i] = 1.0 + dt * (2.0 * diff + p.reaction(x));
    f->c_prime[i] = -dt * (diff + conv);
    f->dt_c[i] = dt * p.source(x);
  }

  if (p.left_boundary == BoundaryKind::kLinear) {
    // Linearity: U_0 - 2U_1 + U_2 = 0. Fold U_0 = 2U_1 - U_2 into row 1 so
    // the matrix stays tridiagonal.
    const double l1 = f->lower[1];
    f->lower[1] = 0.0;
    f->pivot[1] += 2.0 * l1;
    f->c_prime[1] -= l1;
  }
  if (p.right_boundary == BoundaryKind::kLinear) {
    // Linearity: U_nx = 2U_{nx-1} - U_{nx-2}; fold into row nx-1.
    const double unm1 = f->c_prime[nx - 1];
    f->c_prime[nx - 1] = 0.0;
    f->pivot[nx - 1] += 2.0 * unm1;
    f->lower[nx - 1] -= unm1;
  }

  for (int i = 0; i <= nx; ++i) {
    if (i > 0) f->pivot[i] -= f->lower[i] * f->c_prime[i - 1];
    if (std::abs(f->pivot[i]) < 1e-300) {
      return Status::NumericError("zero pivot at row " + std::to_string(i));
    }
    f->c_prime[i] /= f->pivot[i];
  }
  return Status::OK();
}

// Right-hand sides of boundary rows 0 and nx at time t.
std::pair<double, double> BoundaryRhs(const Pde1dProblem& p, double t) {
  std::pair<double, double> rhs(0.0, 0.0);
  if (p.left_boundary == BoundaryKind::kDirichlet) {
    rhs.first = p.left_value(t);
  }
  if (p.right_boundary == BoundaryKind::kDirichlet) {
    rhs.second = p.right_value(t);
  }
  return rhs;
}

// Recovers the linear-boundary values folded out of rows 1 and nx-1, then
// reports whether the step's profile (nodes v[0], v[stride], ...) is finite.
bool FinishStep(const Pde1dProblem& p, int nx, std::size_t stride,
                double* v) {
  const std::size_t last = static_cast<std::size_t>(nx) * stride;
  if (p.left_boundary == BoundaryKind::kLinear) {
    v[0] = 2.0 * v[stride] - v[2 * stride];
  }
  if (p.right_boundary == BoundaryKind::kLinear) {
    v[last] = 2.0 * v[last - stride] - v[last - 2 * stride];
  }
  for (std::size_t at = 0; at <= last; at += stride) {
    if (!std::isfinite(v[at])) return false;
  }
  return true;
}

}  // namespace

double InterpolateProfile(const Pde1dProblem& problem, const PdeGrid& grid,
                          const std::vector<double>& profile,
                          double query_x) {
  const double dx = grid.Dx(problem);
  const double pos = (query_x - problem.x_min) / dx;
  auto lo = static_cast<std::size_t>(pos);
  if (lo >= profile.size() - 1) lo = profile.size() - 2;
  const double frac = pos - static_cast<double>(lo);
  return profile[lo] * (1.0 - frac) + profile[lo + 1] * frac;
}

Status AdvancePdeMarch(const Pde1dProblem& problem, const PdeGrid& grid,
                       int max_steps, PdeMarch* march, WorkMeter* meter) {
  const obs::ScopedSpan span("solver", "pde", obs::TraceDetail::kFine);
  VAOLIB_RETURN_IF_ERROR(ValidateInputs(problem, grid));
  if (march->steps < 0 || march->steps > grid.t_steps ||
      (march->steps > 0 &&
       march->profile.size() !=
           static_cast<std::size_t>(grid.x_intervals) + 1)) {
    return Status::InvalidArgument("PDE march does not belong to this grid");
  }
  FactoredMarch f;
  VAOLIB_RETURN_IF_ERROR(FactorMarch(problem, grid, &f));

  const int nx = grid.x_intervals;
  const int first = march->steps;
  const int last = first + std::clamp(max_steps, 0, grid.t_steps - first);
  std::vector<double> u =
      first == 0 ? std::move(f.terminal) : march->profile;
  std::vector<double> next(nx + 1);
  for (int m = first; m < last; ++m) {
    const double t_next = problem.t_end - f.dt * (m + 1);
    const auto [left, right] = BoundaryRhs(problem, t_next);
    // Forward sweep of the rhs U^m + dt*c, then back-substitution, both in
    // place in next; d carries the previous row's value.
    double d = left / f.pivot[0];
    next[0] = d;
    for (int i = 1; i < nx; ++i) {
      d = ((u[i] + f.dt_c[i]) - f.lower[i] * d) / f.pivot[i];
      next[i] = d;
    }
    d = (right - f.lower[nx] * d) / f.pivot[nx];
    next[nx] = d;
    for (int i = nx; i-- > 0;) {
      d = next[i] - f.c_prime[i] * d;
      next[i] = d;
    }
    if (!FinishStep(problem, nx, 1, next.data())) {
      return Status::NumericError("PDE solve produced non-finite value");
    }
    u.swap(next);
  }

  const std::uint64_t units = static_cast<std::uint64_t>(nx + 1) *
                              static_cast<std::uint64_t>(last - first);
  if (meter != nullptr) meter->Charge(WorkKind::kExec, units);
  obs::CountSolverWork(obs::SolverKind::kPde, units);
  march->steps = last;
  march->profile = std::move(u);
  return Status::OK();
}

Result<std::vector<double>> SolvePdeProfile(const Pde1dProblem& problem,
                                            const PdeGrid& grid,
                                            WorkMeter* meter) {
  PdeMarch march;
  VAOLIB_RETURN_IF_ERROR(
      AdvancePdeMarch(problem, grid, grid.t_steps, &march, meter));
  return std::move(march.profile);
}

Status SolvePdeProfileBatch(const std::vector<const Pde1dProblem*>& problems,
                            const PdeGrid& grid, WorkMeter* meter,
                            std::vector<std::vector<double>>* profiles,
                            BatchKernelReport* report) {
  const obs::ScopedSpan span("solver", "pde_batch", obs::TraceDetail::kFine);
  const std::size_t lanes = problems.size();
  if (lanes == 0) return Status::InvalidArgument("PDE batch is empty");
  for (const Pde1dProblem* problem : problems) {
    if (problem == nullptr) {
      return Status::InvalidArgument("PDE batch contains null problem");
    }
    VAOLIB_RETURN_IF_ERROR(ValidateInputs(*problem, grid));
  }

  const int nx = grid.x_intervals;  // nodes 0..nx, shared across lanes
  const std::size_t rows = static_cast<std::size_t>(nx) + 1;
  const std::size_t plane = rows * lanes;
  report->Reset(lanes);

  // Each lane's factored march in SoA planes, plane[row * lanes + lane]. A
  // lane that fails to factor keeps identity rows and a zero profile. Lanes
  // never mix, so a frozen lane's sweep cannot disturb the live ones.
  std::vector<double> lower(plane, 0.0), pivot(plane, 1.0);
  std::vector<double> c_prime(plane, 0.0), dt_c(plane, 0.0);
  std::vector<double> u(plane, 0.0);  // current profiles
  std::vector<double> dt(lanes, 0.0);
  std::size_t num_active = 0;
  FactoredMarch f;
  for (std::size_t s = 0; s < lanes; ++s) {
    const Status factored = FactorMarch(*problems[s], grid, &f);
    if (factored.code() == StatusCode::kInvalidArgument) return factored;
    if (!factored.ok()) {
      report->failed_row[s] = 0;
      continue;
    }
    dt[s] = f.dt;
    ++num_active;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t at = i * lanes + s;
      lower[at] = f.lower[i];
      pivot[at] = f.pivot[i];
      c_prime[at] = f.c_prime[i];
      dt_c[at] = f.dt_c[i];
      u[at] = f.terminal[i];
    }
  }

  std::vector<double> next(plane);
  const std::size_t last = static_cast<std::size_t>(nx) * lanes;
  for (int m = 0; m < grid.t_steps && num_active > 0; ++m) {
    // The scalar march's sweeps, row by row across all lanes.
    for (std::size_t s = 0; s < lanes; ++s) {
      const double t_next = problems[s]->t_end - dt[s] * (m + 1);
      const auto [left, right] = BoundaryRhs(*problems[s], t_next);
      next[s] = left / pivot[s];
      next[last + s] = right;  // row nx's rhs until the sweep reaches it
    }
    for (std::size_t at = lanes; at < last; ++at) {
      const double rhs = u[at] + dt_c[at];
      next[at] = (rhs - lower[at] * next[at - lanes]) / pivot[at];
    }
    for (std::size_t at = last; at < plane; ++at) {
      next[at] = (next[at] - lower[at] * next[at - lanes]) / pivot[at];
    }
    for (std::size_t at = last; at-- > 0;) {
      next[at] = next[at] - c_prime[at] * next[at + lanes];
    }

    for (std::size_t s = 0; s < lanes; ++s) {
      if (!report->ok(s)) continue;
      if (!FinishStep(*problems[s], nx, lanes, &next[s])) {
        report->failed_row[s] = m;
        --num_active;
        continue;
      }
      for (std::size_t at = s; at < plane; at += lanes) u[at] = next[at];
    }
  }

  const std::uint64_t ok_lanes = num_active;
  if (meter != nullptr && ok_lanes > 0) {
    meter->Charge(WorkKind::kExec, grid.MeshEntries() * ok_lanes);
  }
  if (ok_lanes > 0) {
    obs::CountSolverWork(obs::SolverKind::kPde, grid.MeshEntries() * ok_lanes);
  }

  profiles->assign(lanes, std::vector<double>());
  for (std::size_t s = 0; s < lanes; ++s) {
    std::vector<double>& profile = (*profiles)[s];
    profile.resize(rows);
    for (int i = 0; i <= nx; ++i) {
      profile[i] = u[static_cast<std::size_t>(i) * lanes + s];
    }
  }
  return Status::OK();
}

Result<double> SolvePde(const Pde1dProblem& problem, const PdeGrid& grid,
                        double query_x, WorkMeter* meter) {
  if (query_x < problem.x_min || query_x > problem.x_max) {
    return Status::OutOfRange("query_x outside PDE domain");
  }
  VAOLIB_ASSIGN_OR_RETURN(const std::vector<double> profile,
                          SolvePdeProfile(problem, grid, meter));
  return InterpolateProfile(problem, grid, profile, query_x);
}

}  // namespace vaolib::numeric
