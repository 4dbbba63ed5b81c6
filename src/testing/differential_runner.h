// Copyright 2026 The vaolib Authors.
// DifferentialRunner: drives thousands of seeded workloads through the VAO
// engine across query kinds x thread counts x cache on/off (plus a direct
// iteration-strategy sweep over the aggregate operators), checks every
// answer against the OracleExecutor and the workloads' known true values,
// validates the InvariantChecker properties on each tick, and shrinks any
// failure to a minimal (seed, rows) repro it can print.
//
// Replay workflow: every failure is fully determined by
// (seed, kind, k, rows, threads, cache) -- rebuild the workload from the
// seed and re-run the one combo via RunOne(). Environment knobs:
//   VAOLIB_DIFF_SEEDS     overrides DifferentialOptions::seeds
//   VAOLIB_DIFF_ARTIFACT  file to append failing-combo repro lines to

#ifndef VAOLIB_TESTING_DIFFERENTIAL_RUNNER_H_
#define VAOLIB_TESTING_DIFFERENTIAL_RUNNER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query.h"
#include "engine/scheduler.h"
#include "testing/workload_gen.h"

namespace vaolib::testing {

/// \brief Deliberate defects the runner can plant in the system under test,
/// to prove the harness catches them. The oracle always sees the unmutated
/// query; the engine sees the mutated one.
enum class Mutation {
  kNone,
  kFlipComparator,  ///< selection: > <-> <=, < <-> >= (broken comparison)
  kSwapMinMax,      ///< extreme aggregates: MAX answered as MIN
  /// Predictive planning: the calibration correction is applied with the
  /// wrong sign (learned ratios inverted, biases negated). The calibration
  /// audit must catch it: corrected estimates get WORSE than raw ones.
  kFlipCalibrationSign,
};

/// \brief One query-kind variant in the sweep (k matters only for kTopK).
struct KindVariant {
  engine::QueryKind kind = engine::QueryKind::kSelect;
  std::size_t k = 1;
};

/// \brief Runner configuration. Defaults give >= 2000 combos per operator
/// family (selection, min/max, sum/ave, top-k) at 250 seeds.
struct DifferentialOptions {
  std::size_t seeds = 250;
  std::uint64_t base_seed = 0x0D1FF5EEDULL;
  std::size_t rows = 14;
  std::vector<int> thread_counts = {1, 3};
  std::vector<bool> cache_modes = {false, true};
  std::vector<KindVariant> kinds = {
      {engine::QueryKind::kSelect, 1}, {engine::QueryKind::kSelectRange, 1},
      {engine::QueryKind::kMax, 1},    {engine::QueryKind::kMin, 1},
      {engine::QueryKind::kSum, 1},    {engine::QueryKind::kAve, 1},
      {engine::QueryKind::kTopK, 1},   {engine::QueryKind::kTopK, 3},
  };
  /// Direct MinMaxVao/SumAveVao sweep over these strategies (the executor
  /// path always runs the paper's greedy strategy).
  std::vector<operators::StrategyKind> strategies = {
      operators::StrategyKind::kGreedy,
      operators::StrategyKind::kRoundRobin,
      operators::StrategyKind::kRandom,
      operators::StrategyKind::kCalibratedGreedy,
      operators::StrategyKind::kSentinelGreedy,
  };
  /// Batch-greedy axis of the strategy sweep: every K here additionally
  /// runs the aggregates with StrategyKind::kBatchGreedy and
  /// OperatorOptions::batch_k = K (the top-K-per-cycle batch execution
  /// tier). Unbudgeted runs must produce oracle-exact answers at every K.
  /// Empty disables the axis.
  std::vector<int> batch_ks = {1, 4, 16};
  /// Scheduled-execution axis: per seed, all `kinds` run as ONE
  /// MultiQueryExecutor batch under each policy -- first unbudgeted (every
  /// answer must then match the oracle exactly, converged = true), then
  /// again at each `budget_fractions` slice of that run's own spend
  /// (converged answers must still match the oracle exactly; unconverged
  /// ones must stay within the oracle's bounds and the per-query spends
  /// must sum to the scheduler's reported total, and a budgeted run may
  /// not spend past its budget). The axis then runs once more with the
  /// queries bound to a PDE twin of the workload (same true values, PDE
  /// result objects) and every run of that sweep under one
  /// vao::PdeProfileCache, so later runs read the profiles earlier ones
  /// solved. Empty disables the axis.
  std::vector<engine::SchedulerPolicy> scheduler_policies = {
      engine::SchedulerPolicy::kGreedyGlobal,
      engine::SchedulerPolicy::kFairShare,
      engine::SchedulerPolicy::kDeadline,
  };
  std::vector<double> budget_fractions = {0.4};
  /// Approximate-answer axis: per seed, SUM and AVE run once more through
  /// the sampled tier (Query::approx) on a positive-valued workload of
  /// `approx_rows` rows, twice each (the second run must reproduce the
  /// first bit-for-bit -- sampling is seeded). Each combined interval is
  /// checked for structural soundness, and whether it covers the true
  /// weighted aggregate is tallied into DifferentialSummary::approx_*;
  /// after the sweep, RunAll fails the run when the coverage rate drops
  /// below approx_confidence minus three binomial standard errors. Exact
  /// runs are untouched by this axis.
  bool approx_axis = true;
  std::size_t approx_rows = 160;
  double approx_confidence = 0.9;
  double approx_target_rel_error = 0.05;
  std::size_t approx_initial_samples = 24;
  Mutation mutation = Mutation::kNone;
  /// Stop after this many failures (each one shrinks, which re-runs combos).
  std::size_t max_failures = 8;
  bool shrink = true;
  /// Failing-combo repro lines are appended here when non-empty.
  std::string artifact_path;

  /// Applies VAOLIB_DIFF_SEEDS / VAOLIB_DIFF_ARTIFACT over \p base (or over
  /// the defaults, in the zero-argument form).
  static DifferentialOptions FromEnv(DifferentialOptions base);
  static DifferentialOptions FromEnv();
};

/// \brief A mismatch, shrunk to the smallest failing workload.
struct DifferentialFailure {
  std::uint64_t seed = 0;
  KindVariant variant;
  std::size_t rows = 0;
  int threads = 1;
  bool cache = false;
  std::string detail;  ///< what diverged from the oracle
  std::string repro;   ///< one-line replay recipe incl. the query text
};

/// \brief Aggregate result of a RunAll() sweep.
struct DifferentialSummary {
  std::uint64_t combos = 0;
  /// Combos checked per operator family: "selection", "minmax", "sumave",
  /// "topk".
  std::map<std::string, std::uint64_t> combos_by_family;
  /// Approximate-axis tallies: intervals checked for oracle coverage, and
  /// how many contained the true aggregate (see
  /// DifferentialOptions::approx_axis).
  std::uint64_t approx_checks = 0;
  std::uint64_t approx_covered = 0;
  std::vector<DifferentialFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// \brief The differential sweep driver.
class DifferentialRunner {
 public:
  explicit DifferentialRunner(const DifferentialOptions& options)
      : options_(options) {}

  /// Runs the full sweep. A non-OK status means the harness itself broke
  /// (oracle failure, executor construction error); answer mismatches are
  /// reported in the summary, not as a status.
  Result<DifferentialSummary> RunAll();

  /// Re-checks one combo; returns the mismatch description, or nullopt when
  /// the combo passes. This is the replay entry point for failing seeds.
  Result<std::optional<std::string>> RunOne(std::uint64_t seed,
                                            const KindVariant& variant,
                                            std::size_t rows, int threads,
                                            bool cache);

  const DifferentialOptions& options() const { return options_; }

  /// Operator family of \p kind ("selection", "minmax", "sumave", "topk").
  static const char* FamilyOf(engine::QueryKind kind);

 private:
  /// Checks every thread x cache combo of one (seed, variant) pair against
  /// a shared oracle answer, including cross-thread determinism, and
  /// appends mismatches to \p summary (shrinking them first).
  Status RunVariant(std::uint64_t seed, const KindVariant& variant,
                    DifferentialSummary* summary);

  /// Direct MinMaxVao/SumAveVao strategy sweep for one seed.
  Status RunStrategySweep(std::uint64_t seed, DifferentialSummary* summary);

  /// Closed-loop calibration check for one seed: two passes of a
  /// lying-estimate workload share one CostHistory; the second pass's
  /// corrected cost MAE must be strictly below its raw MAE. This is the
  /// check that catches Mutation::kFlipCalibrationSign.
  Status RunCalibrationAudit(std::uint64_t seed,
                             DifferentialSummary* summary);

  /// Scheduled MultiQueryExecutor sweep for one seed: every policy,
  /// unbudgeted then at each budget fraction (see
  /// DifferentialOptions::scheduler_policies).
  Status RunSchedulerSweep(std::uint64_t seed, DifferentialSummary* summary);
  /// The policy x budget loop of RunSchedulerSweep over \p queries (one
  /// function), failures labelled with \p axis.
  Status SweepPolicies(std::uint64_t seed, const Workload& workload,
                       const std::vector<engine::Query>& queries,
                       const std::string& axis, DifferentialSummary* summary);

  /// Approximate-tier sweep for one seed (see
  /// DifferentialOptions::approx_axis): structural soundness + replay
  /// determinism are hard failures, coverage is tallied for the end-of-run
  /// binomial gate.
  Status RunApproxSweep(std::uint64_t seed, DifferentialSummary* summary);

  /// Shrinks a failing combo by halving the row count while the mismatch
  /// persists, then records it.
  Status RecordFailure(std::uint64_t seed, const KindVariant& variant,
                       int threads, bool cache, std::string detail,
                       DifferentialSummary* summary);

  DifferentialOptions options_;
};

}  // namespace vaolib::testing

#endif  // VAOLIB_TESTING_DIFFERENTIAL_RUNNER_H_
