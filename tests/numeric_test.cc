// Unit tests for src/numeric: tridiagonal solver, PDE solver, Richardson
// model, ODE solver, integration, root solvers -- validated against closed
// forms where they exist.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "finance/bond_model.h"
#include "numeric/integration.h"
#include "numeric/ode_solver.h"
#include "numeric/pde_solver.h"
#include "numeric/richardson.h"
#include "numeric/roots.h"
#include "numeric/tridiagonal.h"

namespace vaolib::numeric {
namespace {

TEST(TridiagonalTest, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  TridiagonalSystem sys;
  sys.Resize(3);
  sys.diag = {2, 2, 2};
  sys.lower = {0, 1, 1};
  sys.upper = {1, 1, 0};
  sys.rhs = {4, 8, 8};
  std::vector<double> x;
  ASSERT_TRUE(SolveTridiagonal(sys, &x).ok());
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(TridiagonalTest, SingleUnknown) {
  TridiagonalSystem sys;
  sys.Resize(1);
  sys.diag = {4};
  sys.rhs = {8};
  std::vector<double> x;
  ASSERT_TRUE(SolveTridiagonal(sys, &x).ok());
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(TridiagonalTest, RejectsEmptyAndMismatched) {
  TridiagonalSystem sys;
  std::vector<double> x;
  EXPECT_EQ(SolveTridiagonal(sys, &x).code(), StatusCode::kInvalidArgument);
  sys.Resize(3);
  sys.lower.resize(2);
  EXPECT_EQ(SolveTridiagonal(sys, &x).code(), StatusCode::kInvalidArgument);
}

TEST(TridiagonalTest, ReportsZeroPivot) {
  TridiagonalSystem sys;
  sys.Resize(2);
  sys.diag = {0.0, 1.0};
  std::vector<double> x;
  EXPECT_EQ(SolveTridiagonal(sys, &x).code(), StatusCode::kNumericError);
}

TEST(TridiagonalTest, LargeDiagonallyDominantSystem) {
  // -u'' = pi^2 sin(pi x) on (0,1), u(0)=u(1)=0 -> u = sin(pi x).
  const int n = 200;
  const double h = 1.0 / (n + 1);
  TridiagonalSystem sys;
  sys.Resize(n);
  for (int i = 0; i < n; ++i) {
    sys.lower[i] = -1.0;
    sys.diag[i] = 2.0;
    sys.upper[i] = -1.0;
    const double x = h * (i + 1);
    sys.rhs[i] = h * h * std::numbers::pi * std::numbers::pi *
                 std::sin(std::numbers::pi * x);
  }
  std::vector<double> u;
  ASSERT_TRUE(SolveTridiagonal(sys, &u).ok());
  for (int i = 0; i < n; ++i) {
    const double x = h * (i + 1);
    EXPECT_NEAR(u[i], std::sin(std::numbers::pi * x), 1e-3);
  }
}

// ---------------------------------------------------------------------------
// PDE solver

// Constant-reaction problem with closed form: if r(x) = rbar and c(x) = C
// with terminal F = 0, the solution is x-independent:
//   F(t) = (C/rbar) (1 - exp(-rbar (T - t))).
Pde1dProblem ConstantReactionProblem(double rbar, double c, double t_end) {
  Pde1dProblem p;
  p.diffusion = [](double) { return 1e-3; };
  p.convection = [](double x) { return 0.01 - 0.2 * x; };
  p.reaction = [rbar](double) { return rbar; };
  p.source = [c](double) { return c; };
  p.terminal = [](double) { return 0.0; };
  p.x_min = 0.0;
  p.x_max = 0.12;
  p.t_end = t_end;
  return p;
}

TEST(PdeSolverTest, MatchesAnnuityClosedForm) {
  const double rbar = 0.06, c = 23.0, t_end = 5.0;
  const auto problem = ConstantReactionProblem(rbar, c, t_end);
  const double expected = c / rbar * (1.0 - std::exp(-rbar * t_end));

  PdeGrid grid{32, 2048};
  WorkMeter meter;
  const auto result = SolvePde(problem, grid, 0.06, &meter);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result.value(), expected, 0.05);
  EXPECT_EQ(meter.ExecUnits(), grid.MeshEntries());
}

TEST(PdeSolverTest, FirstOrderConvergenceInTime) {
  const double rbar = 0.06, c = 23.0, t_end = 5.0;
  const auto problem = ConstantReactionProblem(rbar, c, t_end);
  const double expected = c / rbar * (1.0 - std::exp(-rbar * t_end));

  double prev_error = 0.0;
  for (int steps : {64, 128, 256}) {
    const auto result = SolvePde(problem, PdeGrid{16, steps}, 0.05, nullptr);
    ASSERT_TRUE(result.ok());
    const double error = std::abs(result.value() - expected);
    if (prev_error > 0.0) {
      // Error should roughly halve per dt halving (O(dt) scheme).
      EXPECT_LT(error, prev_error * 0.7);
    }
    prev_error = error;
  }
}

TEST(PdeSolverTest, HeatEquationWithDirichletBoundaries) {
  // F_t = a F_xx marched backward from terminal sin(pi x) with zero
  // Dirichlet boundaries on [0,1]:
  //   F(x, 0) = exp(-a pi^2 T) sin(pi x).
  const double a = 0.05, t_end = 1.0;
  Pde1dProblem p;
  p.diffusion = [a](double) { return a; };
  p.convection = [](double) { return 0.0; };
  p.reaction = [](double) { return 0.0; };
  p.source = [](double) { return 0.0; };
  p.terminal = [](double x) { return std::sin(std::numbers::pi * x); };
  p.x_min = 0.0;
  p.x_max = 1.0;
  p.t_end = t_end;
  p.left_boundary = BoundaryKind::kDirichlet;
  p.right_boundary = BoundaryKind::kDirichlet;
  p.left_value = [](double) { return 0.0; };
  p.right_value = [](double) { return 0.0; };

  const auto result = SolvePde(p, PdeGrid{64, 1024}, 0.5, nullptr);
  ASSERT_TRUE(result.ok());
  const double expected =
      std::exp(-a * std::numbers::pi * std::numbers::pi * t_end);
  EXPECT_NEAR(result.value(), expected, 2e-3);
}

TEST(PdeSolverTest, ProfileMatchesPointQueries) {
  const auto problem = ConstantReactionProblem(0.05, 10.0, 2.0);
  const PdeGrid grid{16, 64};
  const auto profile = SolvePdeProfile(problem, grid, nullptr);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile.value().size(), 17u);
  // Query exactly at node 4.
  const double x4 = problem.x_min + 4 * grid.Dx(problem);
  const auto point = SolvePde(problem, grid, x4, nullptr);
  ASSERT_TRUE(point.ok());
  EXPECT_NEAR(point.value(), profile.value()[4], 1e-12);
}

TEST(PdeSolverTest, RejectsMalformedInputs) {
  auto problem = ConstantReactionProblem(0.05, 10.0, 2.0);
  EXPECT_EQ(SolvePde(problem, PdeGrid{1, 8}, 0.05, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolvePde(problem, PdeGrid{8, 0}, 0.05, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolvePde(problem, PdeGrid{8, 8}, 99.0, nullptr).status().code(),
            StatusCode::kOutOfRange);
  problem.terminal = nullptr;
  EXPECT_EQ(SolvePde(problem, PdeGrid{8, 8}, 0.05, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  auto neg = ConstantReactionProblem(0.05, 10.0, 2.0);
  neg.diffusion = [](double) { return -1.0; };
  EXPECT_EQ(SolvePde(neg, PdeGrid{8, 8}, 0.05, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  auto dirichlet = ConstantReactionProblem(0.05, 10.0, 2.0);
  dirichlet.left_boundary = BoundaryKind::kDirichlet;  // no left_value
  EXPECT_EQ(
      SolvePde(dirichlet, PdeGrid{8, 8}, 0.05, nullptr).status().code(),
      StatusCode::kInvalidArgument);
}

// Reference backward-Euler march: assembles (I - dt*A) with the linearity
// folds and runs a full Thomas solve on every time step. SolvePdeProfile
// must reproduce it bit for bit, however it schedules the elimination.
std::vector<double> ReferenceMarch(const Pde1dProblem& p, const PdeGrid& grid) {
  const int nx = grid.x_intervals;
  const double dx = grid.Dx(p);
  const double dt = grid.Dt(p);
  std::vector<double> a(nx + 1), b(nx + 1), r(nx + 1), c(nx + 1), u(nx + 1);
  for (int i = 0; i <= nx; ++i) {
    const double x = p.x_min + dx * i;
    a[i] = p.diffusion(x);
    b[i] = p.convection(x);
    r[i] = p.reaction(x);
    c[i] = p.source(x);
    u[i] = p.terminal(x);
  }
  TridiagonalSystem sys;
  sys.Resize(nx + 1);
  std::vector<double> next;
  for (int m = 0; m < grid.t_steps; ++m) {
    const double t_next = p.t_end - dt * (m + 1);
    for (int i = 1; i < nx; ++i) {
      const double diff = a[i] / (dx * dx);
      const double conv = b[i] / (2.0 * dx);
      sys.lower[i] = -dt * (diff - conv);
      sys.diag[i] = 1.0 + dt * (2.0 * diff + r[i]);
      sys.upper[i] = -dt * (diff + conv);
      sys.rhs[i] = u[i] + dt * c[i];
    }
    sys.lower[0] = 0.0;
    sys.diag[0] = 1.0;
    sys.upper[0] = 0.0;
    sys.lower[nx] = 0.0;
    sys.diag[nx] = 1.0;
    sys.upper[nx] = 0.0;
    if (p.left_boundary == BoundaryKind::kDirichlet) {
      sys.rhs[0] = p.left_value(t_next);
    } else {
      sys.rhs[0] = 0.0;
      const double l1 = sys.lower[1];
      sys.lower[1] = 0.0;
      sys.diag[1] += 2.0 * l1;
      sys.upper[1] -= l1;
    }
    if (p.right_boundary == BoundaryKind::kDirichlet) {
      sys.rhs[nx] = p.right_value(t_next);
    } else {
      sys.rhs[nx] = 0.0;
      const double unm1 = sys.upper[nx - 1];
      sys.upper[nx - 1] = 0.0;
      sys.diag[nx - 1] += 2.0 * unm1;
      sys.lower[nx - 1] -= unm1;
    }
    EXPECT_TRUE(SolveTridiagonal(sys, &next).ok());
    if (p.left_boundary == BoundaryKind::kLinear) {
      next[0] = 2.0 * next[1] - next[2];
    }
    if (p.right_boundary == BoundaryKind::kLinear) {
      next[nx] = 2.0 * next[nx - 1] - next[nx - 2];
    }
    u.swap(next);
  }
  return u;
}

Pde1dProblem DirichletHeatProblem() {
  Pde1dProblem p;
  p.diffusion = [](double x) { return 0.05 + 0.02 * x; };
  p.convection = [](double x) { return 0.3 - 0.5 * x; };
  p.reaction = [](double x) { return 0.1 * x; };
  p.source = [](double x) { return 0.25 * x * (1.0 - x); };
  p.terminal = [](double x) { return std::sin(std::numbers::pi * x); };
  p.x_min = 0.0;
  p.x_max = 1.0;
  p.t_end = 0.75;
  p.left_boundary = BoundaryKind::kDirichlet;
  p.right_boundary = BoundaryKind::kDirichlet;
  p.left_value = [](double t) { return 0.2 * t; };
  p.right_value = [](double t) { return std::cos(t) - 1.0; };
  return p;
}

void ExpectReferenceMarch(const char* name, const Pde1dProblem& p) {
  SCOPED_TRACE(name);
  const PdeGrid grids[] = {{2, 1}, {8, 8}, {17, 33}, {64, 512}};
  for (const PdeGrid& grid : grids) {
    SCOPED_TRACE(grid.x_intervals);
    const auto profile = SolvePdeProfile(p, grid, nullptr);
    ASSERT_TRUE(profile.ok()) << profile.status();
    const std::vector<double> expected = ReferenceMarch(p, grid);
    ASSERT_EQ(profile.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(profile.value()[i], expected[i]) << "node=" << i;
    }
  }
}

TEST(PdeSolverTest, ProfileIsBitIdenticalToPerStepThomasMarch) {
  const finance::Bond bond;
  const finance::BondModelConfig config;
  ExpectReferenceMarch("bond", finance::MakeBondPdeProblem(bond, config));
  Pde1dProblem heat = DirichletHeatProblem();
  ExpectReferenceMarch("heat_dirichlet", heat);
  heat.left_boundary = BoundaryKind::kLinear;
  heat.right_boundary = BoundaryKind::kLinear;
  ExpectReferenceMarch("heat_linear", heat);
}

TEST(PdeSolverTest, MarchInInstallmentsEqualsOneSolve) {
  const auto problem =
      finance::MakeBondPdeProblem(finance::Bond{}, finance::BondModelConfig{});
  const PdeGrid grid{32, 40};
  WorkMeter solve_meter;
  const auto solved = SolvePdeProfile(problem, grid, &solve_meter);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_EQ(solve_meter.ExecUnits(), grid.MeshEntries());

  // Uneven installments, one of them empty, the last asking for more than
  // is left.
  WorkMeter meter;
  PdeMarch march;
  for (const int steps : {7, 0, 1, 13, 100}) {
    const int before = march.steps;
    const std::uint64_t exec_before = meter.ExecUnits();
    ASSERT_TRUE(AdvancePdeMarch(problem, grid, steps, &march, &meter).ok());
    const int marched = march.steps - before;
    EXPECT_EQ(marched, std::min(steps, grid.t_steps - before));
    EXPECT_EQ(meter.ExecUnits() - exec_before,
              static_cast<std::uint64_t>(grid.x_intervals + 1) * marched);
  }
  EXPECT_EQ(march.steps, grid.t_steps);
  EXPECT_EQ(meter.ExecUnits(), grid.MeshEntries());
  ASSERT_EQ(march.profile.size(), solved.value().size());
  for (std::size_t i = 0; i < march.profile.size(); ++i) {
    EXPECT_EQ(march.profile[i], solved.value()[i]) << "node=" << i;
  }

  // A march from another grid is refused, and nothing is charged.
  const std::uint64_t total = meter.ExecUnits();
  PdeMarch foreign = march;
  EXPECT_EQ(AdvancePdeMarch(problem, PdeGrid{16, 40}, 1, &foreign, &meter)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meter.ExecUnits(), total);
}

// ---------------------------------------------------------------------------
// Richardson model

TEST(RichardsonTest, RecoversCoefficientsFromSyntheticSolutions) {
  // Fabricate F(dt,dx) = A + K1 dt + K2 dx^2 exactly.
  const double A = 100.0, K1 = 2.0, K2 = -300.0;
  const double dt = 0.5, dx = 0.05;
  auto value = [&](double dt_, double dx_) {
    return A + K1 * dt_ + K2 * dx_ * dx_;
  };
  RichardsonModel model(3.0);
  model.EstimateK1(value(dt, dx), value(dt / 2, dx), dt);
  model.EstimateK2(value(dt, dx), value(dt, dx / 2), dx);
  EXPECT_NEAR(model.k1(), K1, 1e-9);
  EXPECT_NEAR(model.k2(), K2, 1e-9);

  // With exact coefficients and safety 3, bounds must contain A and the
  // computed value.
  const Bounds b = model.BoundsFor(value(dt, dx), dt, dx);
  EXPECT_TRUE(b.Contains(A));
  EXPECT_TRUE(b.Contains(value(dt, dx)));
}

TEST(RichardsonTest, BoundsMatchPaperFormWhenK1PosK2Neg) {
  RichardsonModel model(3.0);
  const double dt = 0.25, dx = 0.1;
  model.EstimateK1(10.0, 9.0, dt);   // K1 = 2*(10-9)/0.25 = 8 > 0
  model.EstimateK2(10.0, 10.3, dx);  // K2 = (4/3)(-0.3)/0.01 = -40 < 0
  const Bounds b = model.BoundsFor(10.0, dt, dx);
  EXPECT_NEAR(b.lo, 10.0 - 3.0 * 8.0 * dt, 1e-12);
  EXPECT_NEAR(b.hi, 10.0 - 3.0 * (-40.0) * dx * dx, 1e-12);
}

TEST(RichardsonTest, PreferredAxisPicksDominantError) {
  RichardsonModel model(3.0);
  const double dt = 1.0, dx = 0.1;
  model.EstimateK1(10.0, 9.0, dt);   // |K1*dt| = 2
  model.EstimateK2(10.0, 10.001, dx);  // |K2 dx^2| tiny
  EXPECT_EQ(model.PreferredAxis(dt, dx), StepAxis::kTime);
  model.EstimateK1(10.0, 9.99995, dt);  // now time error tiny
  model.EstimateK2(10.0, 11.0, dx);
  EXPECT_EQ(model.PreferredAxis(dt, dx), StepAxis::kSpace);
}

TEST(RichardsonTest, PredictionShrinksModeledError) {
  RichardsonModel model(2.0);
  const double dt = 1.0, dx = 0.1;
  model.EstimateK1(10.0, 9.0, dt);
  model.EstimateK2(10.0, 10.3, dx);
  const Bounds now = model.BoundsFor(10.0, dt, dx);
  const Bounds pred_t =
      model.PredictBoundsAfterHalving(10.0, dt, dx, StepAxis::kTime);
  EXPECT_LT(pred_t.Width(), now.Width());
  const Bounds pred_x =
      model.PredictBoundsAfterHalving(10.0, dt, dx, StepAxis::kSpace);
  EXPECT_LT(pred_x.Width(), now.Width());
}

// ---------------------------------------------------------------------------
// ODE solver

TEST(OdeSolverTest, ExactForQuadraticSolution) {
  // w'' = 2, w(0)=0, w(2)=4 -> w = x^2 (central differences are exact for
  // quadratics).
  OdeBvpProblem p;
  p.p = [](double) { return 0.0; };
  p.q = [](double) { return 0.0; };
  p.r = [](double) { return 2.0; };
  p.a = 0.0;
  p.b = 2.0;
  p.alpha = 0.0;
  p.beta = 4.0;
  const auto result = SolveOdeBvp(p, 8, 1.0, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value(), 1.0, 1e-10);
}

TEST(OdeSolverTest, MatchesSinhClosedForm) {
  // w'' = w, w(0)=0, w(1)=1 -> w = sinh(x)/sinh(1).
  OdeBvpProblem p;
  p.p = [](double) { return 0.0; };
  p.q = [](double) { return 1.0; };
  p.r = [](double) { return 0.0; };
  p.a = 0.0;
  p.b = 1.0;
  p.alpha = 0.0;
  p.beta = 1.0;
  const auto result = SolveOdeBvp(p, 128, 0.5, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value(), std::sinh(0.5) / std::sinh(1.0), 1e-5);
}

TEST(OdeSolverTest, SecondOrderConvergence) {
  OdeBvpProblem p;
  p.p = [](double) { return 0.0; };
  p.q = [](double) { return 1.0; };
  p.r = [](double) { return 0.0; };
  p.a = 0.0;
  p.b = 1.0;
  p.alpha = 0.0;
  p.beta = 1.0;
  const double exact = std::sinh(0.5) / std::sinh(1.0);
  const double e1 =
      std::abs(SolveOdeBvp(p, 16, 0.5, nullptr).ValueOrDie() - exact);
  const double e2 =
      std::abs(SolveOdeBvp(p, 32, 0.5, nullptr).ValueOrDie() - exact);
  EXPECT_NEAR(e1 / e2, 4.0, 0.6);  // O(dx^2): 4x error drop per halving
}

TEST(OdeSolverTest, BeamDeflectionSymmetricAndNegative) {
  // Uniformly loaded simply-supported beam sags downward symmetrically.
  const auto p = MakeBeamDeflectionProblem(/*stress_s=*/500.0,
                                           /*modulus_e=*/1e7,
                                           /*inertia_i=*/0.1,
                                           /*load_q=*/100.0,
                                           /*length_l=*/10.0);
  WorkMeter meter;
  const auto mid = SolveOdeBvp(p, 64, 5.0, &meter);
  ASSERT_TRUE(mid.ok());
  // r(x) = load*x*(x-l)/(2EI) < 0 inside the span, so w bows away from the
  // chord (positive in this sign convention).
  EXPECT_GT(mid.value(), 0.0);
  EXPECT_EQ(meter.ExecUnits(), 63u);
  const auto quarter = SolveOdeBvp(p, 64, 2.5, nullptr);
  const auto three_quarter = SolveOdeBvp(p, 64, 7.5, nullptr);
  EXPECT_NEAR(quarter.ValueOrDie(), three_quarter.ValueOrDie(), 1e-9);
  EXPECT_GT(mid.value(), quarter.ValueOrDie());  // extremal at midspan
}

TEST(OdeSolverTest, RejectsMalformedInputs) {
  OdeBvpProblem p;
  p.p = [](double) { return 0.0; };
  p.q = [](double) { return 0.0; };
  p.r = [](double) { return 0.0; };
  p.a = 0.0;
  p.b = 1.0;
  EXPECT_EQ(SolveOdeBvp(p, 1, 0.5, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SolveOdeBvp(p, 8, 2.0, nullptr).status().code(),
            StatusCode::kOutOfRange);
  p.b = -1.0;
  EXPECT_EQ(SolveOdeBvpProfile(p, 8, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Integration

TEST(IntegrationTest, OneShotTrapezoidExactForLinear) {
  const auto result = Integrate([](double x) { return 3.0 * x + 1.0; }, 0.0,
                                2.0, IntegrationRule::kTrapezoid, 1, 1,
                                nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value(), 8.0, 1e-12);
}

TEST(IntegrationTest, OneShotSimpsonExactForCubic) {
  const auto result = Integrate([](double x) { return x * x * x; }, 0.0, 2.0,
                                IntegrationRule::kSimpson, 2, 1, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value(), 4.0, 1e-12);
}

TEST(IntegrationTest, OneShotChargesPerEvaluation) {
  WorkMeter meter;
  ASSERT_TRUE(Integrate([](double x) { return x; }, 0.0, 1.0,
                        IntegrationRule::kTrapezoid, 8, 5, &meter)
                  .ok());
  EXPECT_EQ(meter.ExecUnits(), 9u * 5u);
}

TEST(IntegrationTest, OneShotRejectsBadInputs) {
  const auto f = [](double x) { return x; };
  EXPECT_FALSE(Integrate(f, 1.0, 0.0, IntegrationRule::kTrapezoid, 4, 1,
                         nullptr)
                   .ok());
  EXPECT_FALSE(
      Integrate(f, 0.0, 1.0, IntegrationRule::kSimpson, 3, 1, nullptr).ok());
  EXPECT_FALSE(Integrate(nullptr, 0.0, 1.0, IntegrationRule::kTrapezoid, 4, 1,
                         nullptr)
                   .ok());
}

TEST(RefinableIntegralTest, ConvergesToKnownIntegral) {
  // \int_0^pi sin = 2.
  auto made = RefinableIntegral::Create(
      [](double x) { return std::sin(x); }, 0.0, std::numbers::pi, {},
      nullptr);
  ASSERT_TRUE(made.ok());
  RefinableIntegral integral = std::move(made).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(integral.Refine(nullptr).ok());
  }
  EXPECT_NEAR(integral.estimate(), 2.0, 1e-5);
  EXPECT_TRUE(integral.bounds().Contains(2.0));
}

TEST(RefinableIntegralTest, ErrorBoundContainsTruthThroughRefinement) {
  const double truth = std::exp(1.0) - 1.0;  // \int_0^1 e^x
  auto made = RefinableIntegral::Create(
      [](double x) { return std::exp(x); }, 0.0, 1.0, {}, nullptr);
  ASSERT_TRUE(made.ok());
  RefinableIntegral integral = std::move(made).value();
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(integral.bounds().Contains(truth))
        << "level " << integral.level() << " bounds " << integral.bounds();
    ASSERT_TRUE(integral.Refine(nullptr).ok());
  }
}

TEST(RefinableIntegralTest, ErrorShrinksByAboutFourPerRefine) {
  auto made = RefinableIntegral::Create(
      [](double x) { return std::exp(x); }, 0.0, 1.0, {}, nullptr);
  ASSERT_TRUE(made.ok());
  RefinableIntegral integral = std::move(made).value();
  double prev = integral.error_bound();
  for (int i = 0; i < 6; ++i) {
    const double predicted = integral.PredictedErrorAfterRefine();
    ASSERT_TRUE(integral.Refine(nullptr).ok());
    EXPECT_NEAR(integral.error_bound() / prev, 0.25, 0.1);
    EXPECT_NEAR(integral.error_bound(), predicted, predicted * 0.5);
    prev = integral.error_bound();
  }
}

TEST(RefinableIntegralTest, CumulativeEvaluationsMatchOneShot) {
  // The VAO-interface integrator must not evaluate more points than a
  // one-shot composite rule at the final resolution (Section 4.3).
  WorkMeter meter;
  auto made = RefinableIntegral::Create([](double x) { return x * x; }, 0.0,
                                        1.0, {}, &meter);
  ASSERT_TRUE(made.ok());
  RefinableIntegral integral = std::move(made).value();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(integral.Refine(&meter).ok());
  // Level 6 trapezoid: 2^6 panels -> 65 samples.
  EXPECT_EQ(integral.level(), 6);
  EXPECT_EQ(integral.total_evaluations(), 65u);
  EXPECT_EQ(meter.ExecUnits(), 65u);
}

TEST(RefinableIntegralTest, SimpsonConvergesFaster) {
  RefinableIntegral::Options trap;
  RefinableIntegral::Options simp;
  simp.rule = IntegrationRule::kSimpson;
  auto ft = RefinableIntegral::Create(
      [](double x) { return std::sin(x); }, 0.0, std::numbers::pi, trap,
      nullptr);
  auto fs = RefinableIntegral::Create(
      [](double x) { return std::sin(x); }, 0.0, std::numbers::pi, simp,
      nullptr);
  ASSERT_TRUE(ft.ok());
  ASSERT_TRUE(fs.ok());
  RefinableIntegral t = std::move(ft).value();
  RefinableIntegral s = std::move(fs).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.Refine(nullptr).ok());
    ASSERT_TRUE(s.Refine(nullptr).ok());
  }
  EXPECT_LT(std::abs(s.estimate() - 2.0), std::abs(t.estimate() - 2.0));
}

TEST(RefinableIntegralTest, MaxLevelExhausts) {
  RefinableIntegral::Options options;
  options.max_level = 3;
  auto made = RefinableIntegral::Create([](double x) { return x; }, 0.0, 1.0,
                                        options, nullptr);
  ASSERT_TRUE(made.ok());
  RefinableIntegral integral = std::move(made).value();
  ASSERT_TRUE(integral.Refine(nullptr).ok());  // level 2
  ASSERT_TRUE(integral.Refine(nullptr).ok());  // level 3
  EXPECT_EQ(integral.Refine(nullptr).code(), StatusCode::kResourceExhausted);
}

TEST(RefinableIntegralTest, RejectsBadInputs) {
  EXPECT_FALSE(
      RefinableIntegral::Create(nullptr, 0.0, 1.0, {}, nullptr).ok());
  EXPECT_FALSE(RefinableIntegral::Create([](double x) { return x; }, 1.0,
                                         1.0, {}, nullptr)
                   .ok());
  RefinableIntegral::Options bad;
  bad.safety_factor = 0.5;
  EXPECT_FALSE(RefinableIntegral::Create([](double x) { return x; }, 0.0,
                                         1.0, bad, nullptr)
                   .ok());
}

// ---------------------------------------------------------------------------
// Root solvers

TEST(RootFinderTest, BisectionHalvesBracket) {
  auto made = BracketingRootFinder::Create(
      [](double x) { return x * x - 2.0; }, 0.0, 2.0, {}, nullptr);
  ASSERT_TRUE(made.ok());
  BracketingRootFinder finder = std::move(made).value();
  double prev = finder.bounds().Width();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(finder.Step(nullptr).ok());
    EXPECT_NEAR(finder.bounds().Width(), prev / 2.0, 1e-12);
    EXPECT_TRUE(finder.bounds().Contains(std::sqrt(2.0)));
    prev = finder.bounds().Width();
  }
  EXPECT_NEAR(finder.bounds().Mid(), std::sqrt(2.0), 1e-5);
}

TEST(RootFinderTest, IllinoisConvergesFasterOnSmoothFunction) {
  BracketingRootFinder::Options illinois;
  illinois.method = RootMethod::kIllinois;
  auto fb = BracketingRootFinder::Create(
      [](double x) { return std::cos(x) - x; }, 0.0, 1.5, {}, nullptr);
  auto fi = BracketingRootFinder::Create(
      [](double x) { return std::cos(x) - x; }, 0.0, 1.5, illinois, nullptr);
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(fi.ok());
  BracketingRootFinder bisect = std::move(fb).value();
  BracketingRootFinder ill = std::move(fi).value();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(bisect.Step(nullptr).ok());
    ASSERT_TRUE(ill.Step(nullptr).ok());
  }
  EXPECT_LT(ill.bounds().Width(), bisect.bounds().Width());
  EXPECT_TRUE(ill.bounds().Contains(0.7390851332151607));
}

TEST(RootFinderTest, ExactRootAtProbeCollapsesBracket) {
  auto made = BracketingRootFinder::Create([](double x) { return x; }, -1.0,
                                           1.0, {}, nullptr);
  ASSERT_TRUE(made.ok());
  BracketingRootFinder finder = std::move(made).value();
  ASSERT_TRUE(finder.Step(nullptr).ok());  // probes 0 exactly
  EXPECT_DOUBLE_EQ(finder.bounds().Width(), 0.0);
  ASSERT_TRUE(finder.Step(nullptr).ok());  // no-op afterwards
  EXPECT_DOUBLE_EQ(finder.bounds().Width(), 0.0);
}

TEST(RootFinderTest, ExactRootAtEndpointDegenerates) {
  auto made = BracketingRootFinder::Create(
      [](double x) { return x - 1.0; }, 1.0, 3.0, {}, nullptr);
  ASSERT_TRUE(made.ok());
  EXPECT_DOUBLE_EQ(made.value().bounds().Width(), 0.0);
}

TEST(RootFinderTest, RejectsNonStraddlingBracket) {
  EXPECT_FALSE(BracketingRootFinder::Create(
                   [](double x) { return x * x + 1.0; }, -1.0, 1.0, {},
                   nullptr)
                   .ok());
  EXPECT_FALSE(BracketingRootFinder::Create([](double x) { return x; }, 2.0,
                                            1.0, {}, nullptr)
                   .ok());
}

TEST(RootFinderTest, ChargesWorkPerEvaluation) {
  BracketingRootFinder::Options options;
  options.work_per_eval = 10;
  WorkMeter meter;
  auto made = BracketingRootFinder::Create(
      [](double x) { return x - 0.3; }, 0.0, 1.0, options, &meter);
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(meter.ExecUnits(), 20u);  // two endpoint evals
  BracketingRootFinder finder = std::move(made).value();
  ASSERT_TRUE(finder.Step(&meter).ok());
  EXPECT_EQ(meter.ExecUnits(), 30u);
}

TEST(RootFinderTest, PredictedBoundsAreHalfTheBracket) {
  auto made = BracketingRootFinder::Create(
      [](double x) { return x - 0.3; }, 0.0, 1.0, {}, nullptr);
  ASSERT_TRUE(made.ok());
  BracketingRootFinder finder = std::move(made).value();
  const Bounds predicted = finder.PredictedBoundsAfterStep();
  EXPECT_NEAR(predicted.Width(), finder.bounds().Width() / 2.0, 1e-12);
}

}  // namespace
}  // namespace vaolib::numeric
