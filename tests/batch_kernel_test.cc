// Tests for the batch execution tier: SoA numeric kernels (tridiagonal,
// RK4, quadrature, PDE march) must be bit-identical to their scalar
// counterparts lane by lane, per-lane failures must stay isolated, the
// vao::IterateBatch dispatcher must attribute per-object spends that sum
// exactly to the shared meter delta, and the batch-greedy strategy/operators
// must reproduce the paper's greedy semantics at K=1 while converging to the
// same answers at K>1.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include "common/work_meter.h"
#include "numeric/integration.h"
#include "numeric/ode_ivp.h"
#include "numeric/pde_solver.h"
#include "numeric/tridiagonal.h"
#include "operators/iteration_strategy.h"
#include "operators/iteration_task.h"
#include "operators/min_max.h"
#include "operators/sum_ave.h"
#include "operators/top_k.h"
#include "vao/batch_iterate.h"
#include "vao/integral_result_object.h"
#include "vao/ivp_result_object.h"
#include "vao/pde_result_object.h"

namespace vaolib {
namespace {

// Small deterministic generator so lanes get diverse but repeatable bands.
double Lcg01(std::uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>((*state >> 11) & 0xFFFFFFFFULL) / 4294967296.0;
}

numeric::TridiagonalSystem LaneSystem(const numeric::TridiagonalBatch& batch,
                                      std::size_t lane) {
  numeric::TridiagonalSystem sys;
  sys.Resize(batch.rows);
  for (std::size_t i = 0; i < batch.rows; ++i) {
    const std::size_t at = batch.IndexOf(i, lane);
    sys.lower[i] = batch.lower[at];
    sys.diag[i] = batch.diag[at];
    sys.upper[i] = batch.upper[at];
    sys.rhs[i] = batch.rhs[at];
  }
  return sys;
}

void FillDominantBatch(numeric::TridiagonalBatch* batch, std::size_t k,
                       std::size_t n, std::uint64_t seed) {
  batch->Resize(k, n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t at = batch->IndexOf(i, s);
      const double lo = Lcg01(&state) - 0.5;
      const double up = Lcg01(&state) - 0.5;
      batch->lower[at] = lo;
      batch->upper[at] = up;
      // Strict diagonal dominance keeps every pivot healthy.
      batch->diag[at] = 2.0 + std::abs(lo) + std::abs(up) + Lcg01(&state);
      batch->rhs[at] = 4.0 * (Lcg01(&state) - 0.5);
    }
  }
}

TEST(TridiagonalBatchTest, MatchesScalarBitExactAcrossRaggedK) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                              std::size_t{17}}) {
    numeric::TridiagonalBatch batch;
    FillDominantBatch(&batch, k, 24, 0xB007ull ^ (k * 977));
    std::vector<double> solutions;
    numeric::BatchKernelReport report;
    ASSERT_TRUE(
        numeric::SolveTridiagonalBatch(batch, &solutions, &report).ok());
    EXPECT_TRUE(report.all_ok());
    for (std::size_t s = 0; s < k; ++s) {
      const numeric::TridiagonalSystem sys = LaneSystem(batch, s);
      std::vector<double> x;
      ASSERT_TRUE(numeric::SolveTridiagonal(sys, &x).ok());
      for (std::size_t i = 0; i < batch.rows; ++i) {
        // Bit-exact, not approximately equal: the lockstep kernel performs
        // the identical IEEE operation sequence per lane.
        EXPECT_EQ(solutions[batch.IndexOf(i, s)], x[i])
            << "k=" << k << " lane=" << s << " row=" << i;
      }
    }
  }
}

TEST(TridiagonalBatchTest, PivotFailureMidBatchIsIsolated) {
  numeric::TridiagonalBatch batch;
  FillDominantBatch(&batch, 3, 6, 0x5EED);
  // Break lane 1 at row 2: zero diagonal and no coupling from below makes
  // the pivot exactly zero there.
  batch.diag[batch.IndexOf(2, 1)] = 0.0;
  batch.lower[batch.IndexOf(2, 1)] = 0.0;

  std::vector<double> solutions;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(
      numeric::SolveTridiagonalBatch(batch, &solutions, &report).ok());
  EXPECT_FALSE(report.ok(1));
  EXPECT_EQ(report.failed_row[1], 2);
  EXPECT_EQ(report.num_failed(), 1u);

  // The scalar solver agrees the broken lane is singular...
  std::vector<double> x;
  EXPECT_EQ(numeric::SolveTridiagonal(LaneSystem(batch, 1), &x).code(),
            StatusCode::kNumericError);
  // ...and the healthy neighbours are untouched, bit for bit.
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(report.ok(s));
    ASSERT_TRUE(numeric::SolveTridiagonal(LaneSystem(batch, s), &x).ok());
    for (std::size_t i = 0; i < batch.rows; ++i) {
      EXPECT_EQ(solutions[batch.IndexOf(i, s)], x[i]);
    }
  }
}

TEST(TridiagonalBatchTest, CallerScratchIsReusable) {
  numeric::TridiagonalBatch batch;
  FillDominantBatch(&batch, 4, 12, 0xCAFE);
  numeric::TridiagonalBatchScratch scratch;
  std::vector<double> first;
  std::vector<double> second;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(
      numeric::SolveTridiagonalBatch(batch, &first, &report, &scratch).ok());
  ASSERT_TRUE(
      numeric::SolveTridiagonalBatch(batch, &second, &report, &scratch).ok());
  EXPECT_EQ(first, second);
}

TEST(Rk4BatchTest, MatchesScalarBitExact) {
  numeric::OdeIvpBatch batch;
  for (int lane = 0; lane < 5; ++lane) {
    numeric::OdeIvpProblem problem;
    const double a = 0.3 + 0.2 * lane;
    problem.f = [a](double /*t*/, double y) { return a * y; };
    problem.t0 = 0.0;
    problem.y0 = 1.0 + 0.1 * lane;
    problem.t1 = 1.0;
    batch.problems.push_back(problem);
  }

  WorkMeter batch_meter;
  std::vector<double> results;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(numeric::SolveOdeIvpRk4Batch(batch, 16, &batch_meter, &results,
                                           &report)
                  .ok());
  EXPECT_TRUE(report.all_ok());

  WorkMeter scalar_meter;
  for (std::size_t lane = 0; lane < batch.problems.size(); ++lane) {
    auto scalar =
        numeric::SolveOdeIvpRk4(batch.problems[lane], 16, &scalar_meter);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(results[lane], scalar.value()) << "lane=" << lane;
  }
  // The batch charges exactly what the scalar solves would have.
  EXPECT_EQ(batch_meter.Total(), scalar_meter.Total());
}

TEST(Rk4BatchTest, InvalidLaneIsIsolated) {
  numeric::OdeIvpBatch batch;
  numeric::OdeIvpProblem good;
  good.f = [](double, double y) { return -y; };
  good.t1 = 1.0;
  good.y0 = 2.0;
  numeric::OdeIvpProblem bad = good;
  bad.t1 = -1.0;  // t1 <= t0
  batch.problems = {good, bad, good};

  WorkMeter meter;
  std::vector<double> results;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(
      numeric::SolveOdeIvpRk4Batch(batch, 8, &meter, &results, &report).ok());
  EXPECT_FALSE(report.ok(1));
  EXPECT_EQ(report.failed_row[1], 0);
  auto scalar = numeric::SolveOdeIvpRk4(good, 8, nullptr);
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(results[0], scalar.value());
  EXPECT_EQ(results[2], scalar.value());
}

TEST(IntegrationBatchTest, RefineBatchMatchesScalarForEveryRule) {
  for (const numeric::IntegrationRule rule :
       {numeric::IntegrationRule::kTrapezoid,
        numeric::IntegrationRule::kSimpson,
        numeric::IntegrationRule::kRomberg}) {
    numeric::RefinableIntegral::Options options;
    options.rule = rule;
    auto make_set = [&](WorkMeter* meter) {
      std::vector<numeric::RefinableIntegral> set;
      for (int lane = 0; lane < 4; ++lane) {
        const double c = 1.0 + 0.5 * lane;
        auto created = numeric::RefinableIntegral::Create(
            [c](double x) { return c * std::sin(x) + x * x; }, 0.0,
            1.0 + 0.25 * lane, options, meter);
        EXPECT_TRUE(created.ok());
        set.push_back(std::move(created).value());
      }
      return set;
    };

    WorkMeter scalar_meter;
    WorkMeter batch_meter;
    std::vector<numeric::RefinableIntegral> scalar_set =
        make_set(&scalar_meter);
    std::vector<numeric::RefinableIntegral> batch_set = make_set(&batch_meter);
    std::vector<numeric::RefinableIntegral*> batch_ptrs;
    for (auto& integral : batch_set) batch_ptrs.push_back(&integral);

    for (int round = 0; round < 3; ++round) {
      for (auto& integral : scalar_set) {
        ASSERT_TRUE(integral.Refine(&scalar_meter).ok());
      }
      ASSERT_TRUE(
          numeric::RefinableIntegral::RefineBatch(batch_ptrs, &batch_meter)
              .ok());
      for (std::size_t lane = 0; lane < scalar_set.size(); ++lane) {
        EXPECT_EQ(batch_set[lane].estimate(), scalar_set[lane].estimate())
            << "rule=" << static_cast<int>(rule) << " round=" << round
            << " lane=" << lane;
        EXPECT_EQ(batch_set[lane].error_bound(),
                  scalar_set[lane].error_bound());
        EXPECT_EQ(batch_set[lane].level(), scalar_set[lane].level());
      }
    }
    EXPECT_EQ(batch_meter.Total(), scalar_meter.Total());
  }
}

TEST(IntegrationBatchTest, RejectsMixedLevels) {
  numeric::RefinableIntegral::Options options;
  auto a = numeric::RefinableIntegral::Create(
      [](double x) { return x; }, 0.0, 1.0, options, nullptr);
  auto b = numeric::RefinableIntegral::Create(
      [](double x) { return x * x; }, 0.0, 1.0, options, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  numeric::RefinableIntegral one = std::move(a).value();
  numeric::RefinableIntegral two = std::move(b).value();
  ASSERT_TRUE(one.Refine(nullptr).ok());
  EXPECT_EQ(
      numeric::RefinableIntegral::RefineBatch({&one, &two}, nullptr).code(),
      StatusCode::kInvalidArgument);
}

numeric::Pde1dProblem HeatProblem(double amplitude) {
  numeric::Pde1dProblem problem;
  problem.diffusion = [](double) { return 0.5; };
  problem.convection = [](double) { return 0.0; };
  problem.reaction = [](double) { return 0.0; };
  problem.source = [](double) { return 0.0; };
  problem.terminal = [amplitude](double x) {
    return amplitude * std::sin(std::numbers::pi * x);
  };
  problem.x_min = 0.0;
  problem.x_max = 1.0;
  problem.t_end = 0.25;
  problem.left_boundary = numeric::BoundaryKind::kDirichlet;
  problem.right_boundary = numeric::BoundaryKind::kDirichlet;
  problem.left_value = [](double) { return 0.0; };
  problem.right_value = [](double) { return 0.0; };
  return problem;
}

TEST(PdeBatchTest, ProfileBatchMatchesScalarBitExact) {
  std::vector<numeric::Pde1dProblem> problems;
  for (int lane = 0; lane < 3; ++lane) {
    problems.push_back(HeatProblem(1.0 + 0.5 * lane));
  }
  std::vector<const numeric::Pde1dProblem*> ptrs;
  for (const auto& problem : problems) ptrs.push_back(&problem);
  const numeric::PdeGrid grid{16, 16};

  WorkMeter batch_meter;
  std::vector<std::vector<double>> profiles;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(numeric::SolvePdeProfileBatch(ptrs, grid, &batch_meter,
                                            &profiles, &report)
                  .ok());
  EXPECT_TRUE(report.all_ok());

  WorkMeter scalar_meter;
  for (std::size_t lane = 0; lane < problems.size(); ++lane) {
    auto scalar =
        numeric::SolvePdeProfile(problems[lane], grid, &scalar_meter);
    ASSERT_TRUE(scalar.ok());
    ASSERT_EQ(profiles[lane].size(), scalar.value().size());
    for (std::size_t i = 0; i < scalar.value().size(); ++i) {
      EXPECT_EQ(profiles[lane][i], scalar.value()[i])
          << "lane=" << lane << " node=" << i;
    }
  }
  EXPECT_EQ(batch_meter.Total(), scalar_meter.Total());
}

TEST(PdeBatchTest, QueryBatchMatchesScalar) {
  std::vector<numeric::Pde1dProblem> problems = {HeatProblem(1.0),
                                                 HeatProblem(2.0)};
  std::vector<const numeric::Pde1dProblem*> ptrs = {&problems[0],
                                                    &problems[1]};
  const numeric::PdeGrid grid{8, 8};
  const std::vector<double> query_x = {0.3, 0.7};

  std::vector<std::vector<double>> profiles;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(numeric::SolvePdeProfileBatch(ptrs, grid, nullptr, &profiles,
                                            &report)
                  .ok());
  for (std::size_t lane = 0; lane < ptrs.size(); ++lane) {
    ASSERT_TRUE(report.ok(lane));
    auto scalar =
        numeric::SolvePde(problems[lane], grid, query_x[lane], nullptr);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(numeric::InterpolateProfile(problems[lane], grid,
                                          profiles[lane], query_x[lane]),
              scalar.value());
  }
}

TEST(PdeBatchTest, FailingLanesAreIsolated) {
  std::vector<numeric::Pde1dProblem> problems;
  for (int lane = 0; lane < 6; ++lane) {
    problems.push_back(HeatProblem(1.0 + 0.25 * lane));
  }
  problems[1].source = [](double x) {
    return x > 0.5 ? std::numeric_limits<double>::infinity() : 0.0;
  };
  problems[3].convection = [](double x) {
    return x < 0.25 ? std::numeric_limits<double>::quiet_NaN() : 0.0;
  };
  // On this grid dt = 1/64 and a/dx^2 = 128, so r = -320 makes every
  // interior diagonal 1 + dt * (256 - 320) exactly zero: a zero pivot at
  // factor time.
  problems[4].reaction = [](double) { return -320.0; };
  std::vector<const numeric::Pde1dProblem*> ptrs;
  for (const auto& problem : problems) ptrs.push_back(&problem);
  const numeric::PdeGrid grid{16, 16};

  WorkMeter batch_meter;
  std::vector<std::vector<double>> profiles;
  numeric::BatchKernelReport report;
  ASSERT_TRUE(numeric::SolvePdeProfileBatch(ptrs, grid, &batch_meter,
                                            &profiles, &report)
                  .ok());
  EXPECT_EQ(report.num_failed(), 3u);
  EXPECT_EQ(report.failed_row[1], 0);
  EXPECT_EQ(report.failed_row[3], 0);
  EXPECT_EQ(report.failed_row[4], 0);

  for (const std::size_t lane : {0u, 2u, 5u}) {
    ASSERT_TRUE(report.ok(lane));
    auto scalar = numeric::SolvePdeProfile(problems[lane], grid, nullptr);
    ASSERT_TRUE(scalar.ok());
    ASSERT_EQ(profiles[lane].size(), scalar.value().size());
    for (std::size_t i = 0; i < scalar.value().size(); ++i) {
      EXPECT_EQ(profiles[lane][i], scalar.value()[i])
          << "lane=" << lane << " node=" << i;
    }
  }
  EXPECT_EQ(batch_meter.ExecUnits(), 3 * grid.MeshEntries());
  EXPECT_EQ(batch_meter.Total(), 3 * grid.MeshEntries());

  for (const std::size_t lane : {1u, 3u, 4u}) {
    WorkMeter meter;
    const auto solved = numeric::SolvePde(problems[lane], grid, 0.5, &meter);
    const Status& status = solved.status();
    EXPECT_EQ(status.code(), StatusCode::kNumericError) << "lane=" << lane;
    EXPECT_EQ(status.message().starts_with("zero pivot"), lane == 4) << lane;
    EXPECT_EQ(meter.Total(), 0u);
  }
}

TEST(PdeBatchTest, RejectsEmptyBatch) {
  std::vector<std::vector<double>> profiles;
  numeric::BatchKernelReport report;
  EXPECT_EQ(numeric::SolvePdeProfileBatch({}, numeric::PdeGrid{8, 8}, nullptr,
                                          &profiles, &report)
                .code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// vao::IterateBatch dispatcher
// --------------------------------------------------------------------------

std::vector<vao::ResultObjectPtr> MakeIvpSet(WorkMeter* meter) {
  std::vector<vao::ResultObjectPtr> owned;
  for (int lane = 0; lane < 4; ++lane) {
    numeric::OdeIvpProblem problem;
    const double a = 0.2 + 0.15 * lane;
    problem.f = [a](double /*t*/, double y) { return a * y; };
    problem.y0 = 1.0;
    problem.t1 = 1.0;
    vao::IvpResultOptions options;
    auto created = vao::IvpResultObject::Create(problem, options, meter);
    EXPECT_TRUE(created.ok());
    owned.push_back(std::move(created).value());
  }
  return owned;
}

std::vector<vao::ResultObjectPtr> MakeIntegralSet(WorkMeter* meter) {
  std::vector<vao::ResultObjectPtr> owned;
  for (int lane = 0; lane < 4; ++lane) {
    vao::IntegralProblem problem;
    const double c = 1.0 + 0.5 * lane;
    problem.integrand = [c](double x) { return c * std::exp(-x * x); };
    problem.a = 0.0;
    problem.b = 1.0 + 0.1 * lane;
    vao::IntegralResultOptions options;
    auto created = vao::IntegralResultObject::Create(problem, options, meter);
    EXPECT_TRUE(created.ok());
    owned.push_back(std::move(created).value());
  }
  return owned;
}

std::vector<vao::ResultObject*> RawPointers(
    const std::vector<vao::ResultObjectPtr>& owned) {
  std::vector<vao::ResultObject*> raw;
  for (const auto& object : owned) raw.push_back(object.get());
  return raw;
}

void ExpectIterateBatchMatchesScalar(
    std::vector<vao::ResultObjectPtr> scalar_set, WorkMeter* scalar_meter,
    std::vector<vao::ResultObjectPtr> batch_set, WorkMeter* batch_meter,
    bool expect_kernel_group) {
  for (const auto& object : scalar_set) {
    ASSERT_TRUE(object->Iterate().ok());
  }
  const std::uint64_t before = batch_meter->Total();
  const vao::BatchIterateOutcome outcome =
      vao::IterateBatch(RawPointers(batch_set), batch_meter);
  const std::uint64_t delta = batch_meter->Total() - before;

  std::uint64_t attributed = 0;
  for (std::size_t i = 0; i < batch_set.size(); ++i) {
    ASSERT_TRUE(outcome.statuses[i].ok()) << outcome.statuses[i].ToString();
    attributed += outcome.spent[i];
    const Bounds scalar_bounds = scalar_set[i]->bounds();
    const Bounds batch_bounds = batch_set[i]->bounds();
    EXPECT_EQ(batch_bounds.lo, scalar_bounds.lo) << "object " << i;
    EXPECT_EQ(batch_bounds.hi, scalar_bounds.hi) << "object " << i;
  }
  // PR4 accounting invariant: per-object spends sum EXACTLY to the meter
  // delta of the whole call.
  EXPECT_EQ(attributed, delta);
  if (expect_kernel_group) {
    EXPECT_EQ(outcome.kernel_batches, 1u);
    EXPECT_EQ(outcome.kernel_objects, batch_set.size());
  }
  // The scalar twin charged its own meter the same total.
  (void)scalar_meter;
}

TEST(IterateBatchTest, IvpGroupMatchesScalarWithExactAccounting) {
  WorkMeter scalar_meter;
  WorkMeter batch_meter;
  auto scalar_set = MakeIvpSet(&scalar_meter);
  auto batch_set = MakeIvpSet(&batch_meter);
  const std::uint64_t scalar_before = scalar_meter.Total();
  const std::uint64_t batch_before = batch_meter.Total();
  ExpectIterateBatchMatchesScalar(std::move(scalar_set), &scalar_meter,
                                  std::move(batch_set), &batch_meter,
                                  /*expect_kernel_group=*/true);
  EXPECT_EQ(batch_meter.Total() - batch_before,
            scalar_meter.Total() - scalar_before);
}

TEST(IterateBatchTest, IntegralGroupMatchesScalarWithExactAccounting) {
  WorkMeter scalar_meter;
  WorkMeter batch_meter;
  auto scalar_set = MakeIntegralSet(&scalar_meter);
  auto batch_set = MakeIntegralSet(&batch_meter);
  const std::uint64_t scalar_before = scalar_meter.Total();
  const std::uint64_t batch_before = batch_meter.Total();
  ExpectIterateBatchMatchesScalar(std::move(scalar_set), &scalar_meter,
                                  std::move(batch_set), &batch_meter,
                                  /*expect_kernel_group=*/true);
  EXPECT_EQ(batch_meter.Total() - batch_before,
            scalar_meter.Total() - scalar_before);
}

TEST(IterateBatchTest, PdeGroupMatchesScalar) {
  WorkMeter scalar_meter;
  WorkMeter batch_meter;
  auto make_set = [](WorkMeter* meter) {
    std::vector<vao::ResultObjectPtr> owned;
    for (int lane = 0; lane < 3; ++lane) {
      vao::PdeResultOptions options;
      auto created = vao::PdeResultObject::Create(
          HeatProblem(1.0 + 0.5 * lane), 0.5, options, meter);
      EXPECT_TRUE(created.ok());
      owned.push_back(std::move(created).value());
    }
    return owned;
  };
  auto scalar_set = make_set(&scalar_meter);
  auto batch_set = make_set(&batch_meter);
  // The first refinement after creation re-uses a memoized probe solve, so
  // advance both twins past it scalar-wise before comparing the batch step.
  for (std::size_t i = 0; i < scalar_set.size(); ++i) {
    ASSERT_TRUE(scalar_set[i]->Iterate().ok());
    ASSERT_TRUE(batch_set[i]->Iterate().ok());
  }
  ExpectIterateBatchMatchesScalar(std::move(scalar_set), &scalar_meter,
                                  std::move(batch_set), &batch_meter,
                                  /*expect_kernel_group=*/false);
}

TEST(IterateBatchTest, MixedTypesFallBackToScalar) {
  WorkMeter meter;
  auto ivp_set = MakeIvpSet(&meter);
  auto integral_set = MakeIntegralSet(&meter);
  std::vector<vao::ResultObject*> mixed = {ivp_set[0].get(),
                                           integral_set[0].get()};
  const std::uint64_t before = meter.Total();
  const vao::BatchIterateOutcome outcome = vao::IterateBatch(mixed, &meter);
  ASSERT_TRUE(outcome.statuses[0].ok());
  ASSERT_TRUE(outcome.statuses[1].ok());
  // Keys differ, so each object is a group of one: no kernel dispatch, but
  // the accounting invariant still holds.
  EXPECT_EQ(outcome.kernel_batches, 0u);
  EXPECT_EQ(outcome.spent[0] + outcome.spent[1], meter.Total() - before);
}

// --------------------------------------------------------------------------
// Batch-greedy strategy and operators
// --------------------------------------------------------------------------

TEST(BatchGreedyStrategyTest, ChooseBatchAtK1MatchesGreedyChoose) {
  auto greedy = operators::MakeStrategy(operators::StrategyKind::kGreedy,
                                        nullptr);
  auto batch = operators::MakeStrategy(operators::StrategyKind::kBatchGreedy,
                                       nullptr);
  ASSERT_TRUE(greedy.ok() && batch.ok());

  const std::vector<std::vector<operators::IterationCandidate>> cases = {
      // Distinct scores.
      {{0, 4.0, 2.0, 1.0}, {1, 9.0, 3.0, 2.0}, {2, 1.0, 1.0, 3.0}},
      // Tied best score: first maximum must win.
      {{5, 6.0, 2.0, 1.0}, {7, 3.0, 1.0, 2.0}, {9, 9.0, 3.0, 0.5}},
      // No predicted progress: widest actual width wins.
      {{2, 0.0, 1.0, 0.5}, {4, 0.0, 1.0, 1.5}, {6, 0.0, 1.0, 1.0}},
  };
  for (const auto& candidates : cases) {
    const std::size_t want = greedy.value()->Choose(candidates);
    std::vector<std::size_t> chosen;
    batch.value()->ChooseBatch(candidates, 1, &chosen);
    ASSERT_EQ(chosen.size(), 1u);
    EXPECT_EQ(chosen.front(), want);
    // And Choose() itself agrees too.
    EXPECT_EQ(batch.value()->Choose(candidates), want);
  }
}

TEST(BatchGreedyStrategyTest, ChooseBatchRanksTopKByScore) {
  auto batch = operators::MakeStrategy(operators::StrategyKind::kBatchGreedy,
                                       nullptr);
  ASSERT_TRUE(batch.ok());
  const std::vector<operators::IterationCandidate> candidates = {
      {10, 2.0, 1.0, 0.1},   // score 2
      {11, 12.0, 2.0, 0.2},  // score 6  <- best
      {12, 4.0, 1.0, 0.3},   // score 4
      {13, 1.0, 2.0, 0.4},   // score 0.5
  };
  std::vector<std::size_t> chosen;
  batch.value()->ChooseBatch(candidates, 3, &chosen);
  EXPECT_EQ(chosen, (std::vector<std::size_t>{11, 12, 10}));

  // Requesting more than available clamps to the candidate count.
  batch.value()->ChooseBatch(candidates, 99, &chosen);
  EXPECT_EQ(chosen.size(), candidates.size());

  // Width fallback ranking when nothing predicts progress.
  const std::vector<operators::IterationCandidate> flat = {
      {20, 0.0, 1.0, 0.5}, {21, 0.0, 1.0, 2.5}, {22, 0.0, 1.0, 1.5}};
  batch.value()->ChooseBatch(flat, 2, &chosen);
  EXPECT_EQ(chosen, (std::vector<std::size_t>{21, 22}));
}

TEST(BatchGreedyOperatorTest, MinMaxK1MatchesGreedyExactly) {
  WorkMeter greedy_meter;
  WorkMeter batch_meter;
  auto greedy_objects = MakeIntegralSet(&greedy_meter);
  auto batch_objects = MakeIntegralSet(&batch_meter);

  operators::MinMaxOptions greedy_options;
  greedy_options.epsilon = 1e-6;
  greedy_options.meter = &greedy_meter;
  operators::MinMaxOptions batch_options = greedy_options;
  batch_options.strategy = operators::StrategyKind::kBatchGreedy;
  batch_options.batch_k = 1;
  batch_options.meter = &batch_meter;

  auto greedy_outcome =
      operators::MinMaxVao(greedy_options).Evaluate(RawPointers(greedy_objects));
  auto batch_outcome =
      operators::MinMaxVao(batch_options).Evaluate(RawPointers(batch_objects));
  ASSERT_TRUE(greedy_outcome.ok() && batch_outcome.ok());

  EXPECT_EQ(batch_outcome.value().winner_index,
            greedy_outcome.value().winner_index);
  EXPECT_EQ(batch_outcome.value().winner_bounds.lo,
            greedy_outcome.value().winner_bounds.lo);
  EXPECT_EQ(batch_outcome.value().winner_bounds.hi,
            greedy_outcome.value().winner_bounds.hi);
  EXPECT_EQ(batch_outcome.value().stats.iterations,
            greedy_outcome.value().stats.iterations);
  // K=1 preserves the paper's semantics to the work unit.
  EXPECT_EQ(batch_meter.Total(), greedy_meter.Total());
}

TEST(BatchGreedyOperatorTest, MinMaxK4ConvergesToTheSameWinner) {
  WorkMeter greedy_meter;
  WorkMeter batch_meter;
  auto greedy_objects = MakeIntegralSet(&greedy_meter);
  auto batch_objects = MakeIntegralSet(&batch_meter);

  operators::MinMaxOptions greedy_options;
  greedy_options.epsilon = 1e-6;
  greedy_options.meter = &greedy_meter;
  operators::MinMaxOptions batch_options = greedy_options;
  batch_options.strategy = operators::StrategyKind::kBatchGreedy;
  batch_options.batch_k = 4;
  batch_options.meter = &batch_meter;

  auto greedy_outcome =
      operators::MinMaxVao(greedy_options).Evaluate(RawPointers(greedy_objects));
  auto batch_outcome =
      operators::MinMaxVao(batch_options).Evaluate(RawPointers(batch_objects));
  ASSERT_TRUE(greedy_outcome.ok() && batch_outcome.ok());
  EXPECT_TRUE(batch_outcome.value().converged);
  EXPECT_EQ(batch_outcome.value().winner_index,
            greedy_outcome.value().winner_index);
  EXPECT_LE(batch_outcome.value().winner_bounds.Width(), 1e-6);
}

TEST(BatchGreedyOperatorTest, SumAveBatchKConvergesScanAndHeap) {
  const std::vector<double> weights = {1.0, 2.0, 0.5, 1.5};
  for (const bool heap : {false, true}) {
    for (const int batch_k : {1, 4}) {
      WorkMeter meter;
      auto objects = MakeIntegralSet(&meter);
      operators::SumAveOptions options;
      options.epsilon = 1e-5;
      options.strategy = operators::StrategyKind::kBatchGreedy;
      options.batch_k = batch_k;
      options.use_heap_index = heap;
      options.meter = &meter;
      auto outcome =
          operators::SumAveVao(options).Evaluate(RawPointers(objects), weights);
      ASSERT_TRUE(outcome.ok()) << "heap=" << heap << " k=" << batch_k;
      EXPECT_TRUE(outcome.value().converged);
      EXPECT_LE(outcome.value().sum_bounds.Width(), 1e-5);
      // The converged interval must contain the weighted true sum.
      double truth = 0.0;
      for (int lane = 0; lane < 4; ++lane) {
        const double c = 1.0 + 0.5 * lane;
        const double b = 1.0 + 0.1 * lane;
        // \int_0^b c e^{-x^2} dx = c * sqrt(pi)/2 * erf(b).
        truth += weights[lane] * c * std::sqrt(std::numbers::pi) / 2.0 *
                 std::erf(b);
      }
      EXPECT_LE(outcome.value().sum_bounds.lo, truth + 1e-9);
      EXPECT_GE(outcome.value().sum_bounds.hi, truth - 1e-9);
    }
  }
}

TEST(BatchGreedyOperatorTest, TopKBatchKConverges) {
  WorkMeter meter;
  auto objects = MakeIntegralSet(&meter);
  operators::TopKOptions options;
  options.k = 2;
  options.epsilon = 1e-5;
  options.strategy = operators::StrategyKind::kBatchGreedy;
  options.batch_k = 4;
  options.meter = &meter;
  auto outcome = operators::TopKVao(options).Evaluate(RawPointers(objects));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().converged);
  ASSERT_EQ(outcome.value().winners.size(), 2u);
  // Integrands scale with the lane constant, so the top-2 are lanes 3, 2.
  EXPECT_EQ(outcome.value().winners[0], 3u);
  EXPECT_EQ(outcome.value().winners[1], 2u);
}

}  // namespace
}  // namespace vaolib
