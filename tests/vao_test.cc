// Unit tests for src/vao: the iterative UDF interface over each solver
// class, the shifted decorator, and the calibrated black-box baseline.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "finance/bond_model.h"
#include "vao/batch_iterate.h"
#include "vao/black_box.h"
#include "vao/function_cache.h"
#include "vao/parallel.h"
#include "vao/integral_result_object.h"
#include "vao/ode_result_object.h"
#include "vao/pde_profile_cache.h"
#include "vao/pde_result_object.h"
#include "vao/prepayable.h"
#include "vao/root_result_object.h"
#include "vao/shifted_result_object.h"
#include "fake_result_object.h"
#include "workload/portfolio_gen.h"

namespace vaolib::vao {
namespace {

// Constant-reaction PDE with closed form (C/r)(1 - e^{-rT}), x-independent.
numeric::Pde1dProblem AnnuityProblem(double rbar, double c, double t_end) {
  numeric::Pde1dProblem p;
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

double AnnuityValue(double rbar, double c, double t_end) {
  return c / rbar * (1.0 - std::exp(-rbar * t_end));
}

TEST(PdeResultObjectTest, BoundsContainClosedFormAtEveryIteration) {
  const double truth = AnnuityValue(0.06, 23.0, 5.0);
  WorkMeter meter;
  auto made = PdeResultObject::Create(AnnuityProblem(0.06, 23.0, 5.0), 0.05,
                                      {}, &meter);
  ASSERT_TRUE(made.ok()) << made.status();
  ResultObject* object = made->get();
  for (int i = 0; i < 12 && !object->AtStoppingCondition(); ++i) {
    EXPECT_TRUE(object->bounds().Contains(truth))
        << "iteration " << i << " bounds " << object->bounds();
    ASSERT_TRUE(object->Iterate().ok());
  }
  EXPECT_TRUE(object->bounds().Contains(truth));
  EXPECT_NEAR(object->bounds().Mid(), truth, 0.02);
}

TEST(PdeResultObjectTest, WidthShrinksMonotonically) {
  WorkMeter meter;
  auto made = PdeResultObject::Create(AnnuityProblem(0.05, 20.0, 4.0), 0.06,
                                      {}, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  double prev = object->bounds().Width();
  for (int i = 0; i < 10 && !object->AtStoppingCondition(); ++i) {
    ASSERT_TRUE(object->Iterate().ok());
    EXPECT_LE(object->bounds().Width(), prev * 1.05)
        << "iteration " << i;
    prev = object->bounds().Width();
  }
}

TEST(PdeResultObjectTest, IterationWorkRoughlyDoubles) {
  // Section 4.1: each iteration requires about twice the work of the one
  // before, so the converge total is ~2x the final (traditional) solve.
  WorkMeter meter;
  auto made = PdeResultObject::Create(AnnuityProblem(0.06, 23.0, 5.0), 0.05,
                                      {}, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  ASSERT_TRUE(ConvergeToMinWidth(object).ok());
  const double ratio = static_cast<double>(meter.ExecUnits()) /
                       static_cast<double>(object->traditional_cost());
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 3.5);
}

TEST(PdeResultObjectTest, EstCostTracksNextGrid) {
  WorkMeter meter;
  auto made =
      PdeResultObject::Create(AnnuityProblem(0.06, 23.0, 5.0), 0.05, {},
                              &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t predicted = object->est_cost();
    const std::uint64_t before = meter.ExecUnits();
    ASSERT_TRUE(object->Iterate().ok());
    const std::uint64_t actual = meter.ExecUnits() - before;
    EXPECT_EQ(predicted, actual) << "iteration " << i;
  }
}

TEST(PdeResultObjectTest, MaxIterationsExhausts) {
  PdeResultOptions options;
  options.max_iterations = 2;
  options.min_width = 1e-12;  // unreachable
  WorkMeter meter;
  auto made = PdeResultObject::Create(AnnuityProblem(0.06, 23.0, 5.0), 0.05,
                                      options, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  ASSERT_TRUE(object->Iterate().ok());
  ASSERT_TRUE(object->Iterate().ok());
  EXPECT_EQ(object->Iterate().code(), StatusCode::kResourceExhausted);
}

TEST(PdeResultObjectTest, RejectsBadOptions) {
  PdeResultOptions bad;
  bad.min_width = 0.0;
  EXPECT_FALSE(PdeResultObject::Create(AnnuityProblem(0.06, 23.0, 5.0), 0.05,
                                       bad, nullptr)
                   .ok());
  PdeResultOptions bad2;
  bad2.safety_factor = 0.5;
  EXPECT_FALSE(PdeResultObject::Create(AnnuityProblem(0.06, 23.0, 5.0), 0.05,
                                       bad2, nullptr)
                   .ok());
}

TEST(PdeFunctionTest, InvokeBuildsObjects) {
  PdeFunction function(
      "annuity", 1,
      [](const std::vector<double>& args)
          -> Result<std::pair<numeric::Pde1dProblem, double>> {
        return std::make_pair(AnnuityProblem(0.06, 23.0, 5.0), args[0]);
      },
      {});
  EXPECT_EQ(function.name(), "annuity");
  EXPECT_EQ(function.arity(), 1);
  WorkMeter meter;
  auto object = function.Invoke({0.05}, &meter);
  ASSERT_TRUE(object.ok());
  EXPECT_GT((*object)->bounds().Width(), 0.0);
  EXPECT_FALSE(function.Invoke({0.05, 0.06}, &meter).ok());  // wrong arity
}

TEST(OdeResultObjectTest, BoundsContainClosedForm) {
  // w'' = w, w(0)=0, w(1)=1: w(0.5) = sinh(.5)/sinh(1).
  numeric::OdeBvpProblem p;
  p.p = [](double) { return 0.0; };
  p.q = [](double) { return 1.0; };
  p.r = [](double) { return 0.0; };
  p.a = 0.0;
  p.b = 1.0;
  p.alpha = 0.0;
  p.beta = 1.0;
  const double truth = std::sinh(0.5) / std::sinh(1.0);

  WorkMeter meter;
  auto made = OdeResultObject::Create(p, 0.5, {}, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  for (int i = 0; i < 8 && !object->AtStoppingCondition(); ++i) {
    EXPECT_TRUE(object->bounds().Contains(truth))
        << "iteration " << i << " bounds " << object->bounds();
    ASSERT_TRUE(object->Iterate().ok());
  }
  EXPECT_NEAR(object->bounds().Mid(), truth, 1e-6);
}

TEST(OdeResultObjectTest, ConvergesToMinWidth) {
  numeric::OdeBvpProblem p = numeric::MakeBeamDeflectionProblem(
      500.0, 1e7, 0.1, 100.0, 10.0);
  OdeResultOptions options;
  options.min_width = 1e-7;
  WorkMeter meter;
  auto made = OdeResultObject::Create(p, 5.0, options, &meter);
  ASSERT_TRUE(made.ok());
  auto steps = ConvergeToMinWidth(made->get());
  ASSERT_TRUE(steps.ok());
  EXPECT_LT((*made)->bounds().Width(), 1e-7);
}

TEST(IntegralResultObjectTest, BoundsContainTruthAndConverge) {
  IntegralProblem problem;
  problem.integrand = [](double x) { return std::sin(x); };
  problem.a = 0.0;
  problem.b = std::numbers::pi;
  IntegralResultOptions options;
  options.min_width = 1e-6;

  WorkMeter meter;
  auto made = IntegralResultObject::Create(problem, options, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  while (!object->AtStoppingCondition()) {
    EXPECT_TRUE(object->bounds().Contains(2.0)) << object->bounds();
    ASSERT_TRUE(object->Iterate().ok());
  }
  EXPECT_NEAR(object->bounds().Mid(), 2.0, 1e-6);
  // cost_trad == cumulative evaluations for integrators (Section 4.3).
  EXPECT_EQ(object->traditional_cost(), meter.ExecUnits());
}

TEST(IntegralResultObjectTest, EstCostMatchesActual) {
  IntegralProblem problem;
  problem.integrand = [](double x) { return std::exp(x); };
  problem.a = 0.0;
  problem.b = 1.0;
  WorkMeter meter;
  auto made = IntegralResultObject::Create(problem, {}, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t predicted = object->est_cost();
    const std::uint64_t before = meter.ExecUnits();
    ASSERT_TRUE(object->Iterate().ok());
    EXPECT_EQ(meter.ExecUnits() - before, predicted);
  }
}

TEST(RootResultObjectTest, BracketIsTheBound) {
  RootProblem problem;
  problem.f = [](double x) { return x * x - 2.0; };
  problem.lo = 0.0;
  problem.hi = 2.0;
  WorkMeter meter;
  auto made = RootResultObject::Create(problem, {}, &meter);
  ASSERT_TRUE(made.ok());
  ResultObject* object = made->get();
  const double root = std::sqrt(2.0);
  while (!object->AtStoppingCondition()) {
    EXPECT_TRUE(object->bounds().Contains(root));
    ASSERT_TRUE(object->Iterate().ok());
  }
  EXPECT_NEAR(object->bounds().Mid(), root, 1e-9);
}

TEST(RootResultObjectTest, TraditionalCostIsCumulative) {
  RootProblem problem;
  problem.f = [](double x) { return std::cos(x) - x; };
  problem.lo = 0.0;
  problem.hi = 1.5;
  WorkMeter meter;
  auto made = RootResultObject::Create(problem, {}, &meter);
  ASSERT_TRUE(made.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE((*made)->Iterate().ok());
  EXPECT_EQ((*made)->traditional_cost(), meter.ExecUnits());
}

TEST(ShiftedResultObjectTest, ShiftsBoundsNotBehaviour) {
  testing::FakeResultObject::Config config;
  config.true_value = 100.0;
  config.initial_half_width = 8.0;
  auto inner = std::make_unique<testing::FakeResultObject>(config);
  auto* inner_raw = inner.get();
  ShiftedResultObject shifted(std::move(inner), -25.0);

  EXPECT_DOUBLE_EQ(shifted.bounds().Mid(), inner_raw->bounds().Mid() - 25.0);
  EXPECT_DOUBLE_EQ(shifted.bounds().Width(), inner_raw->bounds().Width());
  EXPECT_EQ(shifted.min_width(), inner_raw->min_width());
  EXPECT_EQ(shifted.est_cost(), inner_raw->est_cost());
  EXPECT_DOUBLE_EQ(shifted.est_bounds().Mid(),
                   inner_raw->est_bounds().Mid() - 25.0);

  ASSERT_TRUE(shifted.Iterate().ok());
  EXPECT_EQ(shifted.iterations(), 1);
  EXPECT_EQ(inner_raw->iterations(), 1);
  EXPECT_TRUE(shifted.bounds().Contains(75.0));  // shifted true value
}

TEST(ConvergeToMinWidthTest, StopsAtFloorAndCountsSteps) {
  testing::FakeResultObject::Config config;
  config.initial_half_width = 8.0;  // width 16; floor 0.01
  config.shrink = 0.5;
  testing::FakeResultObject object(config);
  const auto steps = ConvergeToMinWidth(&object);
  ASSERT_TRUE(steps.ok());
  EXPECT_LT(object.bounds().Width(), 0.01);
  EXPECT_EQ(*steps, object.iterations());
  EXPECT_EQ(ConvergeToMinWidth(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CalibratedBlackBoxTest, CallReturnsConvergedValueAndChargesTradCost) {
  PdeFunction function(
      "annuity", 1,
      [](const std::vector<double>& args)
          -> Result<std::pair<numeric::Pde1dProblem, double>> {
        return std::make_pair(AnnuityProblem(0.06, 23.0, 5.0), args[0]);
      },
      {});
  CalibratedBlackBox black_box(&function);

  WorkMeter meter;
  auto value = black_box.Call({0.05}, &meter);
  ASSERT_TRUE(value.ok());
  EXPECT_NEAR(*value, AnnuityValue(0.06, 23.0, 5.0), 0.02);
  EXPECT_GT(meter.ExecUnits(), 0u);

  const auto record = black_box.Calibrate({0.05});
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(meter.ExecUnits(), record->cost);
  EXPECT_LT(record->final_width, 0.01);
  EXPECT_GT(record->iterations, 0);
}

TEST(CalibratedBlackBoxTest, CalibrationIsCachedPerArgs) {
  PdeFunction function(
      "annuity", 1,
      [](const std::vector<double>& args)
          -> Result<std::pair<numeric::Pde1dProblem, double>> {
        return std::make_pair(AnnuityProblem(0.06, 23.0, 5.0), args[0]);
      },
      {});
  CalibratedBlackBox black_box(&function);
  ASSERT_TRUE(black_box.Call({0.05}, nullptr).ok());
  EXPECT_EQ(black_box.cache_size(), 1u);
  ASSERT_TRUE(black_box.Call({0.05}, nullptr).ok());
  EXPECT_EQ(black_box.cache_size(), 1u);
  ASSERT_TRUE(black_box.Call({0.06}, nullptr).ok());
  EXPECT_EQ(black_box.cache_size(), 2u);
}

TEST(CalibratedBlackBoxTest, BlackBoxCostBelowVaoConvergeCost) {
  // The whole point of the Section 6 baseline: a one-shot solve at the
  // calibrated step sizes costs less than converging through the VAO
  // interface (which pays for all intermediate iterations).
  PdeFunction function(
      "annuity", 1,
      [](const std::vector<double>& args)
          -> Result<std::pair<numeric::Pde1dProblem, double>> {
        return std::make_pair(AnnuityProblem(0.06, 23.0, 5.0), args[0]);
      },
      {});
  CalibratedBlackBox black_box(&function);
  WorkMeter trad_meter;
  ASSERT_TRUE(black_box.Call({0.05}, &trad_meter).ok());

  WorkMeter vao_meter;
  auto object = function.Invoke({0.05}, &vao_meter);
  ASSERT_TRUE(object.ok());
  ASSERT_TRUE(ConvergeToMinWidth(object->get()).ok());
  EXPECT_LT(trad_meter.ExecUnits(), vao_meter.ExecUnits());
}

// --- Concurrency stress tests (runnable under TSan, scripts/check_tsan.sh).

PdeFunction MakeAnnuityFunction() {
  return PdeFunction(
      "annuity", 1,
      [](const std::vector<double>& args)
          -> Result<std::pair<numeric::Pde1dProblem, double>> {
        return std::make_pair(AnnuityProblem(0.06, 23.0, 5.0), args[0]);
      },
      {});
}

TEST(BoundsCacheConcurrencyTest, ConcurrentLookupUpdateKeepsExactCounters) {
  BoundsCache cache(128, 8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  std::atomic<int> invalid{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &invalid, t]() {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::vector<double> key = {static_cast<double>((op + t) % 16)};
        cache.Update(key, Bounds(-1.0 - op, 1.0 + op), 1e-3);
        const auto entry = cache.Lookup(key);
        if (entry.has_value() && !entry->bounds.IsValid()) ++invalid;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(invalid.load(), 0);
  // One Lookup per op; counters are aggregated under shard locks, so after
  // the writers quiesce the totals are exact, not approximate.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(cache.size(), 16u);  // 16 distinct keys, capacity far larger
}

TEST(BoundsCacheConcurrencyTest, ColdMissStormStaysExactAndLockFree) {
  // Regression for the reader-writer miss path: Lookup misses used to take
  // the shard's exclusive lock, convoying every pool worker during a cold
  // InvokeAll. Misses now probe under a shared lock with atomic counters.
  // Hammer a miss-heavy mix (most keys never inserted) concurrently with
  // inserts and evictions on a deliberately tiny cache, then check the
  // counters still balance exactly.
  BoundsCache cache(/*capacity=*/8, /*shard_count=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> invalid{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &invalid, t]() {
      for (int op = 0; op < kOpsPerThread; ++op) {
        // 1 insert per 8 lookups over a key space 64x the capacity: almost
        // every probe is a miss, and inserts keep evicting concurrently.
        const std::vector<double> key = {
            static_cast<double>((op * 7 + t * 131) % 512)};
        if (op % 8 == 0) {
          cache.Update(key, Bounds(-2.0, 2.0), 1e-3);
        }
        const auto entry = cache.Lookup(key);
        if (entry.has_value() && !entry->bounds.IsValid()) ++invalid;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(invalid.load(), 0);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(cache.size(), 8u);
}

TEST(BoundsCacheConcurrencyTest, WriteBackSafeWhenObjectsDieOnWorkers) {
  // Regression: write-back result objects used to race on destruction when
  // a worker thread destroyed them while another thread was looking the
  // same key up. Hammer exactly that pattern, then prove the cache is still
  // sound: bounds served afterwards must contain the closed-form value.
  const PdeFunction function = MakeAnnuityFunction();
  const CachingFunction cached(&function);
  const double truth = AnnuityValue(0.06, 23.0, 5.0);
  constexpr int kKeys = 8;

  WorkMeter meter;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cached, &meter, &failures]() {
      for (int round = 0; round < 5; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          auto object = cached.Invoke({0.02 + 0.01 * k}, &meter);
          if (!object.ok()) {
            ++failures;
            continue;
          }
          for (int i = 0; i < 2 && !(*object)->AtStoppingCondition(); ++i) {
            if (!(*object)->Iterate().ok()) ++failures;
          }
          // Destroyed here, on this worker thread: the write-back races
          // against the other threads' lookups of the same keys.
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_EQ(cached.cache().size(), static_cast<std::size_t>(kKeys));
  constexpr std::uint64_t kInvokes = 4ull * 5 * kKeys;
  EXPECT_EQ(cached.cache().hits() + cached.cache().misses(), kInvokes);
  for (int k = 0; k < kKeys; ++k) {
    auto object = cached.Invoke({0.02 + 0.01 * k}, &meter);
    ASSERT_TRUE(object.ok());
    EXPECT_TRUE((*object)->bounds().Contains(truth)) << "key " << k;
  }
}

TEST(CachingFunctionConcurrencyTest, ConcurrentInvokeAllIsDeterministic) {
  // Two identical caching wrappers over the same inner function, one driven
  // serially, one with four pool workers: the lifted restriction means the
  // parallel run must charge bit-identical work units.
  const PdeFunction function = MakeAnnuityFunction();
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 32; ++i) rows.push_back({0.02 + 0.01 * (i % 8)});

  auto run = [&rows](const CachingFunction& cached, int threads,
                     WorkMeter* meter) {
    auto objects = InvokeAll(cached, rows, threads, meter);
    ASSERT_TRUE(objects.ok()) << objects.status();
    std::vector<ResultObject*> raw;
    for (const auto& object : *objects) raw.push_back(object.get());
    ASSERT_TRUE(ConvergeAllToMinWidth(raw, threads).ok());
  };

  const CachingFunction serial_cached(&function);
  const CachingFunction parallel_cached(&function);
  WorkMeter serial_meter, parallel_meter;
  run(serial_cached, 1, &serial_meter);
  run(parallel_cached, 4, &parallel_meter);
  EXPECT_EQ(serial_meter.Total(), parallel_meter.Total());
  for (int kind = 0; kind < WorkMeter::kNumKinds; ++kind) {
    EXPECT_EQ(serial_meter.Count(static_cast<WorkKind>(kind)),
              parallel_meter.Count(static_cast<WorkKind>(kind)))
        << "kind " << kind;
  }

  // Second round against the warm parallel cache: every distinct key is
  // converged, so creation is served from the cache for free.
  const double truth = AnnuityValue(0.06, 23.0, 5.0);
  WorkMeter second_meter;
  auto objects = InvokeAll(parallel_cached, rows, 4, &second_meter);
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(second_meter.Total(), 0u);
  for (const auto& object : *objects) {
    EXPECT_TRUE(object->bounds().Contains(truth));
    EXPECT_TRUE(object->AtStoppingCondition());
  }
}


// ---------------------------------------------------------------------------
// PdeProfileCache: profile reuse across objects of the same problem.
// ---------------------------------------------------------------------------

finance::BondPricingFunction BondBook(std::size_t bonds) {
  workload::PortfolioSpec spec;
  spec.count = static_cast<int>(bonds);
  return finance::BondPricingFunction(workload::GeneratePortfolio(1994, spec),
                                      finance::BondModelConfig{});
}

const PdeResultObject& AsPde(const ResultObjectPtr& object) {
  return dynamic_cast<const PdeResultObject&>(*object);
}

ResultObjectPtr InvokeOrDie(const finance::BondPricingFunction& function,
                            double rate, std::size_t bond, WorkMeter* meter) {
  auto made = function.Invoke(function.ArgsFor(rate, bond), meter);
  EXPECT_TRUE(made.ok()) << made.status();
  return made.ok() ? std::move(made).value() : nullptr;
}

// Objects created in a scope keep their cache: \p iterations Iterate()
// calls (to the stopping condition when negative) of bond \p bond at
// \p rate fill \p cache with that ladder's profiles.
void Warm(const finance::BondPricingFunction& function, double rate,
          std::size_t bond, int iterations, PdeProfileCache* cache) {
  const PdeProfileCache::Scope scope(cache);
  WorkMeter meter;
  ResultObjectPtr object = InvokeOrDie(function, rate, bond, &meter);
  ASSERT_NE(object, nullptr);
  for (int i = 0; iterations < 0 ? !object->AtStoppingCondition()
                                 : i < iterations;
       ++i) {
    ASSERT_TRUE(object->Iterate().ok());
  }
}

TEST(PdeProfileCacheTest, CachedValueEqualsSolveAtEveryGrid) {
  const finance::BondPricingFunction function = BondBook(2);
  PdeProfileCache cache;
  Warm(function, 0.05, 0, /*iterations=*/-1, &cache);

  WorkMeter cached_meter;
  WorkMeter plain_meter;
  ResultObjectPtr cached;
  {
    const PdeProfileCache::Scope scope(&cache);
    cached = InvokeOrDie(function, 0.07, 0, &cached_meter);
  }
  ResultObjectPtr plain = InvokeOrDie(function, 0.07, 0, &plain_meter);
  ASSERT_NE(cached, nullptr);
  ASSERT_NE(plain, nullptr);
  const std::uint64_t hits_before = cache.hits();
  for (int i = 0; i < 40; ++i) {
    const PdeResultObject& a = AsPde(cached);
    const PdeResultObject& b = AsPde(plain);
    ASSERT_EQ(a.current_grid().x_intervals, b.current_grid().x_intervals);
    ASSERT_EQ(a.current_grid().t_steps, b.current_grid().t_steps);
    EXPECT_EQ(a.current_value(), b.current_value()) << "iteration " << i;
    EXPECT_EQ(a.bounds(), b.bounds()) << "iteration " << i;
    if (plain->AtStoppingCondition()) break;
    ASSERT_TRUE(cached->Iterate().ok());
    ASSERT_TRUE(plain->Iterate().ok());
  }
  EXPECT_TRUE(cached->AtStoppingCondition());
  // The 0.07 ladder reads the grids the 0.05 ladder solved.
  EXPECT_GT(cache.hits(), hits_before);
  EXPECT_LT(cached_meter.ExecUnits(), plain_meter.ExecUnits());
}

TEST(PdeProfileCacheTest, HitChargesTheProfileLoadNotTheMesh) {
  const finance::BondPricingFunction function = BondBook(1);
  PdeProfileCache cache;
  Warm(function, 0.05, 0, /*iterations=*/-1, &cache);

  // Every grid of this object's creation is cached: no kExec at all.
  WorkMeter meter;
  ResultObjectPtr object;
  {
    const PdeProfileCache::Scope scope(&cache);
    object = InvokeOrDie(function, 0.05, 0, &meter);
  }
  ASSERT_NE(object, nullptr);
  EXPECT_EQ(meter.ExecUnits(), 0u);
  // The same rate walks the same ladder: every iterate is a hit, or free
  // where it reaches a grid the object itself solved at creation.
  int loads = 0;
  while (!object->AtStoppingCondition()) {
    const bool memoized = object->est_cost() == 0;
    const WorkMeter before = meter;
    ASSERT_TRUE(object->Iterate().ok());
    const numeric::PdeGrid next = AsPde(object).current_grid();
    EXPECT_EQ(meter.ExecUnits(), before.ExecUnits());
    // The profile load (none when memoized) plus the state overhead.
    const std::uint64_t load =
        memoized ? 0 : static_cast<std::uint64_t>(next.x_intervals) + 1;
    EXPECT_EQ(meter.Count(WorkKind::kGetState) -
                  before.Count(WorkKind::kGetState),
              load + 1);
    if (!memoized) ++loads;
  }
  EXPECT_GT(loads, 0);
  EXPECT_EQ(cache.misses(), cache.entries());  // nothing solved twice
}

TEST(PdeProfileCacheTest, EstCostQuotesTheNextIterateHitOrMiss) {
  const finance::BondPricingFunction function = BondBook(1);
  PdeProfileCache cache;
  // Only the lower rungs of the ladder are cached.
  Warm(function, 0.05, 0, /*iterations=*/4, &cache);

  WorkMeter meter;
  ResultObjectPtr object;
  {
    const PdeProfileCache::Scope scope(&cache);
    object = InvokeOrDie(function, 0.05, 0, &meter);
  }
  ASSERT_NE(object, nullptr);
  int hits = 0;
  int misses = 0;
  while (!object->AtStoppingCondition()) {
    const std::uint64_t quoted = object->est_cost();
    const std::uint64_t exec_before = meter.ExecUnits();
    const std::uint64_t before = meter.Total();
    ASSERT_TRUE(object->Iterate().ok());
    // Beyond the fixed two-unit state overhead, the iterate charges
    // exactly its quote.
    EXPECT_EQ(meter.Total() - before - 2, quoted);
    (meter.ExecUnits() > exec_before ? misses : hits) += 1;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

TEST(PdeProfileCacheTest, NoScopeChargesWhatTheSolverAlwaysHas) {
  // Per-kind work of converging bonds 0..3 at rate 0.05 without a cache,
  // recorded before profile reuse existed: a keyed object outside any
  // scope must solve exactly as before.
  struct Pinned {
    std::uint64_t exec, get_state, store_state;
  };
  const Pinned pinned[] = {{2128192, 14, 14},
                           {1071424, 13, 13},
                           {2113216, 14, 14},
                           {2120384, 14, 14}};
  const finance::BondPricingFunction function = BondBook(4);
  PdeProfileCache idle;  // exists, never active
  for (std::size_t bond = 0; bond < 4; ++bond) {
    WorkMeter meter;
    ResultObjectPtr object = InvokeOrDie(function, 0.05, bond, &meter);
    ASSERT_NE(object, nullptr);
    ASSERT_TRUE(ConvergeToMinWidth(object.get()).ok());
    EXPECT_EQ(meter.ExecUnits(), pinned[bond].exec) << "bond " << bond;
    EXPECT_EQ(meter.Count(WorkKind::kGetState), pinned[bond].get_state);
    EXPECT_EQ(meter.Count(WorkKind::kStoreState), pinned[bond].store_state);
  }
  EXPECT_EQ(idle.hits() + idle.misses(), 0u);
}

TEST(PdeProfileCacheTest, IterateGroupSolvesEachSharedProblemOnce) {
  // Rows 0 and 1 are the same bond; row 2 is another.
  const finance::BondPricingFunction book = BondBook(2);
  std::vector<finance::Bond> bonds = {book.bonds()[0], book.bonds()[0],
                                      book.bonds()[1]};
  bonds[1].id = 99;
  bonds[1].name = "copy";
  const finance::BondPricingFunction function(bonds,
                                              finance::BondModelConfig{});

  PdeProfileCache cache;
  WorkMeter meter;
  std::vector<ResultObjectPtr> cached;
  {
    const PdeProfileCache::Scope scope(&cache);
    for (std::size_t row = 0; row < 3; ++row) {
      cached.push_back(InvokeOrDie(function, 0.05, row, &meter));
    }
  }
  std::vector<ResultObjectPtr> plain;
  WorkMeter plain_meter;
  for (std::size_t row = 0; row < 3; ++row) {
    plain.push_back(InvokeOrDie(function, 0.05, row, &plain_meter));
  }
  std::size_t kernel_batches = 0;
  for (int round = 0; round < 8; ++round) {
    // Uncached, every row marches its own mesh; cached, the copy (row 1)
    // reads the original's profile, so only rows 0 and 2 march.
    std::uint64_t expected_exec = 0;
    for (std::size_t row = 0; row < 3; ++row) {
      const std::uint64_t before = plain_meter.ExecUnits();
      ASSERT_TRUE(plain[row]->Iterate().ok());
      if (row != 1) expected_exec += plain_meter.ExecUnits() - before;
    }
    std::vector<ResultObject*> batch;
    for (const ResultObjectPtr& object : cached) batch.push_back(object.get());
    const std::uint64_t exec_before = meter.ExecUnits();
    const BatchIterateOutcome outcome = IterateBatch(batch, &meter);
    for (const Status& status : outcome.statuses) ASSERT_TRUE(status.ok());
    kernel_batches += outcome.kernel_batches;
    EXPECT_EQ(meter.ExecUnits() - exec_before, expected_exec)
        << "round " << round;
    for (std::size_t row = 0; row < 3; ++row) {
      EXPECT_EQ(AsPde(cached[row]).current_value(),
                AsPde(plain[row]).current_value())
          << "round " << round << " row " << row;
    }
  }
  EXPECT_GT(kernel_batches, 0u);  // the lockstep path ran
  EXPECT_GT(cache.hits(), 0u);
}

TEST(PdeProfileCacheTest, PrepaidMarchChargesOnlyWhatIsLeft) {
  const finance::BondPricingFunction function = BondBook(1);
  PdeProfileCache cache;
  WorkMeter meter;
  ResultObjectPtr object;
  {
    const PdeProfileCache::Scope scope(&cache);
    object = InvokeOrDie(function, 0.05, 0, &meter);
  }
  WorkMeter plain_meter;
  ResultObjectPtr plain = InvokeOrDie(function, 0.05, 0, &plain_meter);
  ASSERT_NE(object, nullptr);
  ASSERT_NE(plain, nullptr);
  // Without a cache nothing outlives the object, so nothing is prepayable.
  EXPECT_EQ(Prepayable::Find(*plain), nullptr);
  // The march behind a wrapper is found through its est_cost().
  WorkMeter other;
  const ShiftedResultObject shifted(InvokeOrDie(function, 0.05, 0, &other),
                                    1.0);
  EXPECT_EQ(Prepayable::Find(shifted), nullptr);
  {
    const PdeProfileCache::Scope scope(&cache);
    ShiftedResultObject wrapped(InvokeOrDie(function, 0.06, 0, &other), 1.0);
    while (wrapped.est_cost() == 0) ASSERT_TRUE(wrapped.Iterate().ok());
    EXPECT_NE(Prepayable::Find(wrapped), nullptr);
  }

  int prepaid_iterates = 0;
  while (!object->AtStoppingCondition()) {
    const std::uint64_t quote = object->est_cost();
    const Prepayable* work = Prepayable::Find(*object);
    EXPECT_EQ(work != nullptr, quote > 0);  // every grid ahead is a march
    std::uint64_t prepaid = 0;
    if (work != nullptr) {  // prepay a third, then more than is left
      EXPECT_EQ(work->Prepay(0), 0u);
      const std::uint64_t first = work->Prepay(quote / 3);
      EXPECT_GT(first, 0u);
      EXPECT_LE(first, quote / 3);
      EXPECT_EQ(object->est_cost(), quote - first);
      const std::uint64_t second = work->Prepay(quote);
      prepaid = first + second;
      EXPECT_LT(prepaid, quote);  // the finishing step is left to Iterate
      EXPECT_EQ(object->est_cost(), quote - prepaid);
      ++prepaid_iterates;
    }
    const std::uint64_t left = object->est_cost();
    const std::uint64_t before = meter.Total();
    ASSERT_TRUE(object->Iterate().ok());
    ASSERT_TRUE(plain->Iterate().ok());
    // The iterate charges its quote beyond the two-unit state overhead:
    // the steps the installments left.
    EXPECT_EQ(meter.Total() - before - 2, left);
    EXPECT_EQ(AsPde(object).current_value(), AsPde(plain).current_value());
    EXPECT_EQ(object->bounds(), plain->bounds());
  }
  EXPECT_GT(prepaid_iterates, 0);
  // Installments and the finishing iterates march each mesh exactly once.
  EXPECT_EQ(meter.ExecUnits(), plain_meter.ExecUnits());
  EXPECT_TRUE(plain->AtStoppingCondition());
}

TEST(PdeProfileCacheTest, IterateGroupResumesAPrepaidLane) {
  // Rows 0 and 1 are the same bond; row 2 is another. Row 0's march is
  // half prepaid before every round: the group resumes it outside the
  // lockstep batch, and row 1 reads the profile it publishes.
  const finance::BondPricingFunction book = BondBook(2);
  std::vector<finance::Bond> bonds = {book.bonds()[0], book.bonds()[0],
                                      book.bonds()[1]};
  bonds[1].id = 99;
  bonds[1].name = "copy";
  const finance::BondPricingFunction function(bonds,
                                              finance::BondModelConfig{});

  PdeProfileCache cache;
  WorkMeter meter;
  std::vector<ResultObjectPtr> cached;
  {
    const PdeProfileCache::Scope scope(&cache);
    for (std::size_t row = 0; row < 3; ++row) {
      cached.push_back(InvokeOrDie(function, 0.05, row, &meter));
    }
  }
  std::vector<ResultObjectPtr> plain;
  WorkMeter plain_meter;
  for (std::size_t row = 0; row < 3; ++row) {
    plain.push_back(InvokeOrDie(function, 0.05, row, &plain_meter));
  }
  std::uint64_t prepaid_total = 0;
  for (int round = 0; round < 8; ++round) {
    std::uint64_t expected_exec = 0;
    for (std::size_t row = 0; row < 3; ++row) {
      const std::uint64_t before = plain_meter.ExecUnits();
      ASSERT_TRUE(plain[row]->Iterate().ok());
      if (row != 1) expected_exec += plain_meter.ExecUnits() - before;
    }
    const std::uint64_t exec_before = meter.ExecUnits();
    const Prepayable* work = Prepayable::Find(*cached[0]);
    const std::uint64_t prepaid =
        work != nullptr ? work->Prepay(cached[0]->est_cost() / 2) : 0;
    prepaid_total += prepaid;
    std::vector<ResultObject*> batch;
    for (const ResultObjectPtr& object : cached) batch.push_back(object.get());
    const BatchIterateOutcome outcome = IterateBatch(batch, &meter);
    for (const Status& status : outcome.statuses) ASSERT_TRUE(status.ok());
    EXPECT_EQ(meter.ExecUnits() - exec_before, expected_exec)
        << "round " << round;
    for (std::size_t row = 0; row < 3; ++row) {
      EXPECT_EQ(AsPde(cached[row]).current_value(),
                AsPde(plain[row]).current_value())
          << "round " << round << " row " << row;
    }
  }
  EXPECT_GT(prepaid_total, 0u);
}

}  // namespace
}  // namespace vaolib::vao
