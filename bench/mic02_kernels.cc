// Micro M2: google-benchmark kernels for the numeric substrate: PDE solves
// across grid sizes (the unit of VAO iteration cost), tridiagonal solves
// (scalar and SoA batch), composite quadrature, and the workload RNG.
// Confirms that solver wall time scales linearly with mesh entries, which
// justifies using mesh entries as the deterministic work unit everywhere
// else. Kernels report a FLOPS counter from nominal per-row flop counts so
// runs surface arithmetic throughput, not just wall time.

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.h"
#include "finance/bond_model.h"
#include "numeric/integration.h"
#include "numeric/pde_solver.h"
#include "numeric/tridiagonal.h"

namespace {

using namespace vaolib;

// Nominal flops of one Thomas-algorithm row: forward sweep (1 div, 2 mul,
// 2 sub) + back substitution (1 mul, 1 sub, 1 div).
constexpr double kTridiagonalFlopsPerRow = 8.0;

// Nominal flops of one PDE mesh entry: the matrix is factored once per solve,
// so a step does the rhs add, the forward sweep (1 mul, 1 sub, 1 div) and
// the back substitution (1 mul, 1 sub).
constexpr double kPdeFlopsPerMeshEntry = 6.0;

void BM_PdeSolve(benchmark::State& state) {
  finance::Bond bond;
  const finance::BondModelConfig config;
  const auto problem = finance::MakeBondPdeProblem(bond, config);
  const numeric::PdeGrid grid{static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(1))};
  for (auto _ : state) {
    auto result = numeric::SolvePde(problem, grid, 0.0575, nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.MeshEntries()));
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(grid.MeshEntries()) * kPdeFlopsPerMeshEntry,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PdeSolve)
    ->Args({8, 8})
    ->Args({16, 64})
    ->Args({64, 512})
    ->Args({128, 4096});

void BM_Tridiagonal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  numeric::TridiagonalSystem sys;
  sys.Resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.lower[i] = -1.0;
    sys.diag[i] = 4.0;
    sys.upper[i] = -1.0;
    sys.rhs[i] = 1.0;
  }
  std::vector<double> x;
  for (auto _ : state) {
    auto status = numeric::SolveTridiagonal(sys, &x);
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(n) * kTridiagonalFlopsPerRow,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Tridiagonal)->Arg(64)->Arg(1024)->Arg(16384);

// The SoA batch kernel across widths K at a fixed PDE-typical system size;
// compare FLOPS against BM_Tridiagonal to read the lockstep/AVX2 gain.
void BM_TridiagonalBatch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 96;
  numeric::TridiagonalBatch batch;
  batch.Resize(k, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t at = batch.IndexOf(i, s);
      batch.lower[at] = -1.0;
      batch.diag[at] = 4.0 + 0.01 * static_cast<double>(s);
      batch.upper[at] = -1.0;
      batch.rhs[at] = 1.0;
    }
  }
  numeric::TridiagonalBatchScratch scratch;
  std::vector<double> solutions;
  numeric::BatchKernelReport report;
  for (auto _ : state) {
    auto status =
        numeric::SolveTridiagonalBatch(batch, &solutions, &report, &scratch);
    benchmark::DoNotOptimize(status);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * k));
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(n * k) * kTridiagonalFlopsPerRow,
      benchmark::Counter::kIsIterationInvariantRate);
  state.SetLabel(numeric::TridiagonalBatchUsesAvx2() ? "avx2" : "soa_scalar");
}
BENCHMARK(BM_TridiagonalBatch)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_CompositeTrapezoid(benchmark::State& state) {
  const int panels = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result =
        numeric::Integrate([](double x) { return std::sin(x); }, 0.0, 3.14,
                           numeric::IntegrationRule::kTrapezoid, panels, 1,
                           nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (panels + 1));
  // ~2 flops of quadrature accumulation per sample (integrand excluded).
  state.counters["FLOPS"] = benchmark::Counter(
      static_cast<double>(panels + 1) * 2.0,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CompositeTrapezoid)->Arg(16)->Arg(256)->Arg(4096);

void BM_RngGaussian(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Gaussian());
  }
}
BENCHMARK(BM_RngGaussian);

}  // namespace

BENCHMARK_MAIN();
