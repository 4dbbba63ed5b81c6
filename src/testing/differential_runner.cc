#include "testing/differential_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/macros.h"
#include "common/stats.h"
#include "engine/cost_history.h"
#include "engine/executor.h"
#include "engine/report_capture.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "engine/multi_query.h"
#include "engine/sql_parser.h"
#include "operators/min_max.h"
#include "operators/sum_ave.h"
#include "testing/chaos_result_object.h"
#include "testing/invariant_checker.h"
#include "testing/oracle.h"
#include "vao/function_cache.h"
#include "vao/pde_profile_cache.h"
#include "vao/pde_result_object.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::testing {

namespace {

/// Derives the query-draw stream for one (seed, variant) pair; independent
/// of the workload stream so adding variants never reshuffles workloads.
Rng QueryRng(std::uint64_t seed, const KindVariant& variant) {
  const auto kind = static_cast<std::uint64_t>(variant.kind);
  return Rng(seed * 0x9E3779B97F4A7C15ULL + kind * 1315423911ULL +
             variant.k * 2654435761ULL + 1);
}

engine::Query Mutate(engine::Query query, Mutation mutation) {
  switch (mutation) {
    case Mutation::kNone:
      break;
    case Mutation::kFlipComparator:
      switch (query.cmp) {
        case operators::Comparator::kGreaterThan:
          query.cmp = operators::Comparator::kLessEqual;
          break;
        case operators::Comparator::kLessEqual:
          query.cmp = operators::Comparator::kGreaterThan;
          break;
        case operators::Comparator::kLessThan:
          query.cmp = operators::Comparator::kGreaterEqual;
          break;
        case operators::Comparator::kGreaterEqual:
          query.cmp = operators::Comparator::kLessThan;
          break;
      }
      break;
    case Mutation::kSwapMinMax:
      if (query.kind == engine::QueryKind::kMax) {
        query.kind = engine::QueryKind::kMin;
      } else if (query.kind == engine::QueryKind::kMin) {
        query.kind = engine::QueryKind::kMax;
      }
      break;
    case Mutation::kFlipCalibrationSign:
      // Planted in the operators' correction path, not in the query text
      // (see OperatorOptions::mutate_flip_correction).
      break;
  }
  return query;
}

bool ContainsWithSlack(const Bounds& b, double v, double slack) {
  return v >= b.lo - slack && v <= b.hi + slack;
}

/// Index set of the k largest (sign=+1) or smallest (sign=-1) true values.
std::set<std::size_t> TrueTopSet(const std::vector<double>& values,
                                 std::size_t k, double sign) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sign * values[a] > sign * values[b];
  });
  return {order.begin(), order.begin() + std::min(k, order.size())};
}

/// Differential + soundness check of one extreme answer against the ground
/// truth. \p sign is +1 for MAX, -1 for MIN.
std::optional<std::string> CheckExtremeAnswer(
    std::size_t winner, const Bounds& winner_bounds, bool tie, bool degraded,
    const std::vector<double>& true_values, double min_width, double sign,
    double epsilon, const OracleAnswer* oracle) {
  if (winner >= true_values.size()) return "winner index out of range";
  const double winner_value = true_values[winner];
  if (!winner_bounds.Contains(winner_value)) {
    std::ostringstream os;
    os << "winner bounds " << winner_bounds << " exclude true value "
       << winner_value;
    return os.str();
  }
  if (!degraded && winner_bounds.Width() > epsilon + 1e-12) {
    return "winner bounds wider than epsilon";
  }
  double best = sign * true_values[0];
  for (const double v : true_values) best = std::max(best, sign * v);
  if (!tie && sign * winner_value < best) {
    std::ostringstream os;
    os << "winner row " << winner << " (value " << winner_value
       << ") is not the extreme (best " << sign * best
       << ") and no tie was reported";
    return os.str();
  }
  // Even under a reported tie the winner must sit within the mutual
  // indistinguishability window: two converged objects overlap only when
  // their values are within the sum of their final widths.
  if (best - sign * winner_value > 2.0 * min_width + 1e-9) {
    return "tie-reported winner is further than minWidth from the extreme";
  }
  if (oracle != nullptr && !oracle->IsAdmissible(winner)) {
    return "winner is dominated under the oracle's converged bounds";
  }
  return std::nullopt;
}

std::optional<std::string> CheckSumAnswer(const Bounds& sum_bounds,
                                          bool degraded,
                                          const std::vector<double>& weights,
                                          const std::vector<double>& values,
                                          double min_width, double epsilon,
                                          const OracleAnswer* oracle) {
  double true_sum = 0.0;
  double scale = 1.0;
  double width_floor = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    true_sum += weights[i] * values[i];
    scale += std::abs(weights[i]) * (std::abs(values[i]) + 1.0);
    width_floor += std::abs(weights[i]) * min_width;
  }
  const double slack = 1e-9 * scale;
  if (!ContainsWithSlack(sum_bounds, true_sum, slack)) {
    std::ostringstream os;
    os << "sum bounds " << sum_bounds << " exclude true weighted sum "
       << true_sum;
    return os.str();
  }
  if (!degraded &&
      sum_bounds.Width() > std::max(epsilon, width_floor) + slack) {
    return "sum bounds wider than both epsilon and the minWidth floor";
  }
  if (oracle != nullptr) {
    // The VAO interval is a weighted sum of per-object bounds that are
    // nested outside the converged ones, so it must contain the oracle's.
    if (oracle->aggregate_bounds.lo < sum_bounds.lo - slack ||
        oracle->aggregate_bounds.hi > sum_bounds.hi + slack) {
      return "sum bounds do not contain the oracle's converged interval";
    }
  }
  return std::nullopt;
}

}  // namespace

DifferentialOptions DifferentialOptions::FromEnv() {
  return FromEnv(DifferentialOptions{});
}

DifferentialOptions DifferentialOptions::FromEnv(DifferentialOptions base) {
  if (const char* seeds = std::getenv("VAOLIB_DIFF_SEEDS")) {
    const unsigned long long parsed = std::strtoull(seeds, nullptr, 10);
    if (parsed > 0) base.seeds = static_cast<std::size_t>(parsed);
  }
  if (const char* artifact = std::getenv("VAOLIB_DIFF_ARTIFACT")) {
    base.artifact_path = artifact;
  }
  return base;
}

const char* DifferentialRunner::FamilyOf(engine::QueryKind kind) {
  switch (kind) {
    case engine::QueryKind::kSelect:
    case engine::QueryKind::kSelectRange:
      return "selection";
    case engine::QueryKind::kMax:
    case engine::QueryKind::kMin:
      return "minmax";
    case engine::QueryKind::kSum:
    case engine::QueryKind::kAve:
      return "sumave";
    case engine::QueryKind::kTopK:
      return "topk";
  }
  return "unknown";
}

namespace {

struct ComboContext {
  const Workload* workload = nullptr;
  const engine::Query* query = nullptr;   // unmutated (what the oracle saw)
  const OracleAnswer* oracle = nullptr;
};

/// Full differential + invariant check of one tick against the oracle.
std::optional<std::string> CheckTick(const engine::TickResult& tick,
                                     const ComboContext& ctx) {
  const Status accounting = InvariantChecker::CheckTickAccounting(tick);
  if (!accounting.ok()) return accounting.ToString();

  const Workload& w = *ctx.workload;
  const engine::Query& query = *ctx.query;
  const OracleAnswer& oracle = *ctx.oracle;
  switch (query.kind) {
    case engine::QueryKind::kSelect:
    case engine::QueryKind::kSelectRange: {
      std::vector<std::size_t> expected;
      for (std::size_t row = 0; row < oracle.passes.size(); ++row) {
        if (oracle.passes[row]) expected.push_back(row);
      }
      if (tick.passing_rows != expected) {
        std::ostringstream os;
        os << "passing rows diverge from oracle (got "
           << tick.passing_rows.size() << " rows, oracle says "
           << expected.size() << ")";
        for (std::size_t row = 0; row < oracle.passes.size(); ++row) {
          const bool got =
              std::binary_search(tick.passing_rows.begin(),
                                 tick.passing_rows.end(), row);
          if (got != oracle.passes[row]) {
            os << "; first divergence at row " << row << " (vao="
               << (got ? "pass" : "fail")
               << " oracle=" << (oracle.passes[row] ? "pass" : "fail")
               << " true=" << w.true_values[row] << ")";
            break;
          }
        }
        return os.str();
      }
      break;
    }
    case engine::QueryKind::kMax:
    case engine::QueryKind::kMin: {
      if (!tick.winner_row.has_value()) return "no winner reported";
      return CheckExtremeAnswer(
          *tick.winner_row, tick.aggregate_bounds, tick.tie, tick.degraded,
          w.true_values, w.min_width,
          query.kind == engine::QueryKind::kMax ? 1.0 : -1.0, query.epsilon,
          &oracle);
    }
    case engine::QueryKind::kTopK: {
      if (tick.top_rows.size() != query.k) {
        return "top-k returned " + std::to_string(tick.top_rows.size()) +
               " rows, expected " + std::to_string(query.k);
      }
      const std::set<std::size_t> winners(tick.top_rows.begin(),
                                          tick.top_rows.end());
      if (winners.size() != query.k) return "top-k returned duplicate rows";
      for (const std::size_t row : winners) {
        if (!oracle.IsAdmissible(row)) {
          return "top-k selected row " + std::to_string(row) +
                 ", dominated under the oracle's converged bounds";
        }
      }
      for (const std::size_t row : oracle.required) {
        if (winners.count(row) == 0) {
          return "top-k missed row " + std::to_string(row) +
                 ", required under the oracle's converged bounds";
        }
      }
      if (!tick.tie) {
        const std::set<std::size_t> truth =
            TrueTopSet(w.true_values, query.k, 1.0);
        if (winners != truth && !tick.degraded) {
          return "top-k set diverges from the true top-k with no tie "
                 "reported";
        }
      }
      for (std::size_t i = 0; i < tick.top_rows.size(); ++i) {
        if (!tick.top_bounds[i].Contains(w.true_values[tick.top_rows[i]])) {
          return "top-k bounds exclude the true value of row " +
                 std::to_string(tick.top_rows[i]);
        }
        if (!tick.degraded &&
            tick.top_bounds[i].Width() > query.epsilon + 1e-12) {
          return "top-k member bounds wider than epsilon";
        }
      }
      break;
    }
    case engine::QueryKind::kSum:
    case engine::QueryKind::kAve: {
      auto weights = OracleExecutor::ResolveWeights(query, w.relation);
      if (!weights.ok()) return weights.status().ToString();
      return CheckSumAnswer(tick.aggregate_bounds, tick.degraded,
                            weights.value(), w.true_values, w.min_width,
                            query.epsilon, &oracle);
    }
  }
  return std::nullopt;
}

/// Runs one cold tick of \p query (already mutated if requested) at the
/// given thread count, optionally behind a fresh CachingFunction.
Result<engine::TickResult> ExecuteOnce(const Workload& workload,
                                       engine::Query query, int threads,
                                       bool cache,
                                       engine::TickResult* warm_tick) {
  std::unique_ptr<vao::CachingFunction> caching;
  if (cache) {
    caching = std::make_unique<vao::CachingFunction>(query.function);
    query.function = caching.get();
  }
  VAOLIB_ASSIGN_OR_RETURN(
      auto executor,
      engine::CqExecutor::Create(&workload.relation, engine::Schema{}, query,
                                 engine::ExecutionMode::kVao, threads));
  VAOLIB_ASSIGN_OR_RETURN(engine::TickResult tick, executor->ProcessTick({}));
  if (warm_tick != nullptr) {
    // Second tick on the same executor: with a cache it re-serves the bounds
    // already paid for; without one it must simply reproduce the answer.
    VAOLIB_ASSIGN_OR_RETURN(*warm_tick, executor->ProcessTick({}));
  }
  return tick;
}

}  // namespace

Result<std::optional<std::string>> DifferentialRunner::RunOne(
    std::uint64_t seed, const KindVariant& variant, std::size_t rows,
    int threads, bool cache) {
  WorkloadSpec spec;
  spec.rows = rows;
  const Workload workload = MakeWorkload(spec, seed);
  Rng rng = QueryRng(seed, variant);
  const engine::Query query =
      MakeQuery(workload, variant.kind, variant.k, &rng);
  const OracleExecutor oracle_executor(workload.function.get());
  VAOLIB_ASSIGN_OR_RETURN(const OracleAnswer oracle,
                          oracle_executor.Answer(query, workload.relation));
  VAOLIB_ASSIGN_OR_RETURN(
      const engine::TickResult tick,
      ExecuteOnce(workload, Mutate(query, options_.mutation), threads, cache,
                  nullptr));
  const ComboContext ctx{&workload, &query, &oracle};
  return CheckTick(tick, ctx);
}

Status DifferentialRunner::RecordFailure(std::uint64_t seed,
                                         const KindVariant& variant,
                                         int threads, bool cache,
                                         std::string detail,
                                         DifferentialSummary* summary) {
  DifferentialFailure failure;
  failure.seed = seed;
  failure.variant = variant;
  failure.rows = options_.rows;
  failure.threads = threads;
  failure.cache = cache;
  failure.detail = std::move(detail);

  if (options_.shrink) {
    // Halve the workload while the mismatch persists; the smallest failing
    // relation is the one worth staring at.
    std::size_t rows = failure.rows;
    while (rows > 2) {
      const std::size_t smaller = rows / 2;
      auto rerun = RunOne(seed, variant, smaller, threads, cache);
      if (!rerun.ok() || !rerun.value().has_value()) break;
      rows = smaller;
      failure.detail = *rerun.value();
    }
    failure.rows = rows;
  }

  // Rebuild the shrunk query purely for the repro line.
  WorkloadSpec spec;
  spec.rows = failure.rows;
  const Workload workload = MakeWorkload(spec, seed);
  Rng rng = QueryRng(seed, variant);
  const engine::Query query =
      MakeQuery(workload, variant.kind, variant.k, &rng);
  std::ostringstream repro;
  repro << "repro: seed=" << seed << " rows=" << failure.rows
        << " threads=" << threads << " cache=" << (cache ? 1 : 0) << " k="
        << variant.k << " query=\"" << engine::FormatQuery(query, "synth")
        << "\"";
  failure.repro = repro.str();

  if (!options_.artifact_path.empty()) {
    std::ofstream artifact(options_.artifact_path, std::ios::app);
    artifact << failure.repro << " detail=\"" << failure.detail << "\"\n";
  }
  if (obs::FlightRecorder::Global().Armed()) {
    // Clear the rings and replay only the failing combo so the dump holds
    // exactly that combo's decision sequence -- a deterministic artifact a
    // reader (or trace_test) can diff against a fresh re-run.
    obs::ClearTrace();
    const auto replay = RunOne(seed, variant, failure.rows, threads, cache);
    (void)replay;
    obs::FlightRecorder::Global().Dump("seed-" + std::to_string(seed) + "-" +
                                       engine::QueryKindName(variant.kind));
  }
  summary->failures.push_back(std::move(failure));
  return Status::OK();
}

Status DifferentialRunner::RunVariant(std::uint64_t seed,
                                      const KindVariant& variant,
                                      DifferentialSummary* summary) {
  WorkloadSpec spec;
  spec.rows = options_.rows;
  const Workload workload = MakeWorkload(spec, seed);
  Rng rng = QueryRng(seed, variant);
  const engine::Query query =
      MakeQuery(workload, variant.kind, variant.k, &rng);
  const engine::Query mutated = Mutate(query, options_.mutation);
  const OracleExecutor oracle_executor(workload.function.get());
  VAOLIB_ASSIGN_OR_RETURN(const OracleAnswer oracle,
                          oracle_executor.Answer(query, workload.relation));
  const ComboContext ctx{&workload, &query, &oracle};
  const char* family = FamilyOf(variant.kind);
  const bool is_selection = variant.kind == engine::QueryKind::kSelect ||
                            variant.kind == engine::QueryKind::kSelectRange;

  for (const bool cache : options_.cache_modes) {
    std::vector<std::pair<int, engine::TickResult>> ticks;
    for (const int threads : options_.thread_counts) {
      engine::TickResult warm;
      const bool want_warm = cache && threads == options_.thread_counts.back();
      auto executed = ExecuteOnce(workload, mutated, threads, cache,
                                  want_warm ? &warm : nullptr);
      VAOLIB_RETURN_IF_ERROR(executed.status());
      const engine::TickResult tick = std::move(executed).value();
      ++summary->combos;
      ++summary->combos_by_family[family];
      if (auto detail = CheckTick(tick, ctx)) {
        VAOLIB_RETURN_IF_ERROR(RecordFailure(seed, variant, threads, cache,
                                             *detail, summary));
        continue;
      }
      ticks.emplace_back(threads, tick);
      if (want_warm) {
        ++summary->combos;
        ++summary->combos_by_family[family];
        if (auto detail = CheckTick(warm, ctx)) {
          VAOLIB_RETURN_IF_ERROR(RecordFailure(
              seed, variant, threads, cache,
              "warm-cache tick: " + *detail, summary));
        }
      }
    }
    // Determinism: selections must match at every thread count (the batch
    // path's contract); aggregates must match across parallel thread counts
    // (the coarse phase depends on coarse_width, never on worker count).
    for (std::size_t i = 1; i < ticks.size(); ++i) {
      const bool comparable =
          is_selection || (ticks[i - 1].first > 1 && ticks[i].first > 1);
      if (!comparable) continue;
      const Status equal = InvariantChecker::CheckTicksEqual(
          ticks[i - 1].second, ticks[i].second, /*require_equal_work=*/true);
      if (!equal.ok()) {
        VAOLIB_RETURN_IF_ERROR(RecordFailure(
            seed, variant, ticks[i].first, cache,
            "thread count " + std::to_string(ticks[i - 1].first) + " vs " +
                std::to_string(ticks[i].first) + ": " + equal.ToString(),
            summary));
      }
    }
  }
  return Status::OK();
}

Status DifferentialRunner::RunStrategySweep(std::uint64_t seed,
                                            DifferentialSummary* summary) {
  WorkloadSpec spec;
  spec.rows = options_.rows;
  const Workload workload = MakeWorkload(spec, seed);
  const double epsilon = workload.min_width * 20.0;
  WorkMeter meter;

  auto make_objects = [&]() -> Result<std::vector<vao::ResultObjectPtr>> {
    std::vector<vao::ResultObjectPtr> owned;
    owned.reserve(workload.relation.size());
    for (std::size_t row = 0; row < workload.relation.size(); ++row) {
      VAOLIB_ASSIGN_OR_RETURN(
          vao::ResultObjectPtr object,
          workload.function->Invoke({static_cast<double>(row)}, &meter));
      owned.push_back(std::move(object));
    }
    return owned;
  };
  auto raw = [](const std::vector<vao::ResultObjectPtr>& owned) {
    std::vector<vao::ResultObject*> objects;
    objects.reserve(owned.size());
    for (const auto& object : owned) objects.push_back(object.get());
    return objects;
  };

  // The sweep axes: every configured strategy at the paper's one object
  // per cycle, plus batch-greedy at every configured batch width.
  struct StrategyVariant {
    operators::StrategyKind strategy;
    int batch_k;
  };
  std::vector<StrategyVariant> strategy_variants;
  for (const operators::StrategyKind strategy : options_.strategies) {
    strategy_variants.push_back({strategy, 1});
  }
  for (const int batch_k : options_.batch_ks) {
    strategy_variants.push_back(
        {operators::StrategyKind::kBatchGreedy, batch_k});
  }

  for (const operators::ExtremeKind kind :
       {operators::ExtremeKind::kMax, operators::ExtremeKind::kMin}) {
    for (const StrategyVariant& strategy_variant : strategy_variants) {
      VAOLIB_ASSIGN_OR_RETURN(const auto owned, make_objects());
      Rng strategy_rng(seed ^ 0xA5A5A5A5ULL);
      operators::MinMaxOptions options;
      const bool swap = options_.mutation == Mutation::kSwapMinMax;
      options.kind = swap ? (kind == operators::ExtremeKind::kMax
                                 ? operators::ExtremeKind::kMin
                                 : operators::ExtremeKind::kMax)
                          : kind;
      options.epsilon = epsilon;
      options.strategy = strategy_variant.strategy;
      options.batch_k = strategy_variant.batch_k;
      options.rng = &strategy_rng;
      options.mutate_flip_correction =
          options_.mutation == Mutation::kFlipCalibrationSign;
      const operators::MinMaxVao vao(options);
      VAOLIB_ASSIGN_OR_RETURN(const operators::MinMaxOutcome outcome,
                              vao.Evaluate(raw(owned)));
      ++summary->combos;
      ++summary->combos_by_family["minmax"];
      if (auto detail = CheckExtremeAnswer(
              outcome.winner_index, outcome.winner_bounds, outcome.tie,
              outcome.precision_degraded, workload.true_values,
              workload.min_width,
              kind == operators::ExtremeKind::kMax ? 1.0 : -1.0, epsilon,
              nullptr)) {
        const KindVariant variant{kind == operators::ExtremeKind::kMax
                                      ? engine::QueryKind::kMax
                                      : engine::QueryKind::kMin,
                                  1};
        VAOLIB_RETURN_IF_ERROR(RecordFailure(
            seed, variant, 1, false,
            "strategy sweep (" +
                std::string(operators::StrategyKindName(
                    strategy_variant.strategy)) +
                ", batch_k=" + std::to_string(strategy_variant.batch_k) +
                "): " + *detail,
            summary));
      }
    }
  }

  struct SumVariant {
    operators::StrategyKind strategy;
    bool heap;
    int batch_k;
  };
  std::vector<SumVariant> sum_variants;
  for (const operators::StrategyKind strategy : options_.strategies) {
    sum_variants.push_back({strategy, false, 1});
  }
  sum_variants.push_back({operators::StrategyKind::kGreedy, true, 1});
  for (const int batch_k : options_.batch_ks) {
    sum_variants.push_back(
        {operators::StrategyKind::kBatchGreedy, false, batch_k});
    sum_variants.push_back(
        {operators::StrategyKind::kBatchGreedy, true, batch_k});
  }
  for (const SumVariant& sum_variant : sum_variants) {
    VAOLIB_ASSIGN_OR_RETURN(const auto owned, make_objects());
    Rng strategy_rng(seed ^ 0x5A5A5A5AULL);
    operators::SumAveOptions options;
    options.epsilon = epsilon;
    options.strategy = sum_variant.strategy;
    options.use_heap_index = sum_variant.heap;
    options.batch_k = sum_variant.batch_k;
    options.rng = &strategy_rng;
    options.mutate_flip_correction =
        options_.mutation == Mutation::kFlipCalibrationSign;
    const operators::SumAveVao vao(options);
    VAOLIB_ASSIGN_OR_RETURN(const operators::SumOutcome outcome,
                            vao.Evaluate(raw(owned), workload.weights));
    ++summary->combos;
    ++summary->combos_by_family["sumave"];
    if (auto detail = CheckSumAnswer(outcome.sum_bounds,
                                     outcome.stats.stalled_objects > 0,
                                     workload.weights, workload.true_values,
                                     workload.min_width, epsilon, nullptr)) {
      VAOLIB_RETURN_IF_ERROR(RecordFailure(
          seed, {engine::QueryKind::kSum, 1}, 1, false,
          "strategy sweep (" +
              std::string(operators::StrategyKindName(sum_variant.strategy)) +
              ", heap=" + std::to_string(sum_variant.heap) +
              ", batch_k=" + std::to_string(sum_variant.batch_k) +
              "): " + *detail,
          summary));
    }
  }
  return Status::OK();
}

Status DifferentialRunner::RunCalibrationAudit(std::uint64_t seed,
                                               DifferentialSummary* summary) {
  // Closed-loop check of the estimator corrections: a workload whose
  // objects lie about estCPU by large per-row factors runs twice over one
  // shared CostHistory. Pass 1 learns the per-row actual/estimated ratios;
  // pass 2 must therefore predict costs strictly better corrected than
  // raw. Under Mutation::kFlipCalibrationSign the learned ratios apply
  // inverted, corrected MAE lands ABOVE raw MAE, and this audit fails --
  // which is exactly what the mutation test asserts.
  constexpr std::size_t kRows = 16;
  Rng rng(seed ^ 0xCA11B8A7EULL);
  engine::CostHistory history;
  WorkMeter meter;

  std::vector<double> cost_factors(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    // Lying factors spread in [2, 8] (and their reciprocals on odd rows)
    // so the correction has to learn per-row scales, not one global one.
    const double magnitude = rng.Uniform(2.0, 8.0);
    cost_factors[i] = (i % 2 == 0) ? magnitude : 1.0 / magnitude;
  }

  std::vector<vao::ResultObjectPtr> owned;
  auto make_objects = [&]() {
    owned.clear();
    owned.reserve(kRows);
    std::vector<vao::ResultObject*> objects;
    objects.reserve(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      vao::SyntheticResultObject::Config config;
      config.true_value = static_cast<double>(i);
      config.initial_half_width = 8.0;
      config.shrink = 0.6;
      config.min_width = 0.01;
      config.cost_per_iteration = 16;
      config.meter = &meter;
      FaultPlan plan;
      plan.kind = FaultKind::kLyingEstimates;
      plan.cost_factor = cost_factors[i];
      owned.push_back(std::make_unique<ChaosResultObject>(
          std::make_unique<vao::SyntheticResultObject>(config), plan));
      objects.push_back(owned.back().get());
    }
    return objects;
  };

  auto run_pass = [&]() -> Result<operators::SumOutcome> {
    const std::vector<vao::ResultObject*> objects = make_objects();
    history.BeginTick();
    operators::SumAveOptions options;
    options.epsilon = 1.0;
    options.strategy = operators::StrategyKind::kCalibratedGreedy;
    options.feedback = &history;
    // Actual per-iterate costs are measured as deltas on the meter the
    // objects charge, so the operator must share it.
    options.meter = &meter;
    options.mutate_flip_correction =
        options_.mutation == Mutation::kFlipCalibrationSign;
    const operators::SumAveVao vao(options);
    return vao.Evaluate(objects, std::vector<double>(kRows, 1.0));
  };

  VAOLIB_ASSIGN_OR_RETURN(const operators::SumOutcome warmup, run_pass());
  VAOLIB_ASSIGN_OR_RETURN(const operators::SumOutcome corrected, run_pass());
  ++summary->combos;
  ++summary->combos_by_family["calibration"];

  const operators::OperatorStats& stats = corrected.stats;
  std::optional<std::string> detail;
  if (warmup.stats.cost_err_samples == 0 || stats.cost_err_samples == 0) {
    detail = "no measured-cost samples were recorded";
  } else if (stats.corrected_decisions == 0) {
    detail = "second pass never applied a learned correction";
  } else if (stats.corrected_cost_abs_err >= stats.raw_cost_abs_err) {
    std::ostringstream os;
    os << "corrected cost MAE "
       << stats.corrected_cost_abs_err /
              static_cast<double>(stats.cost_err_samples)
       << " is not below raw MAE "
       << stats.raw_cost_abs_err /
              static_cast<double>(stats.cost_err_samples)
       << " over " << stats.cost_err_samples << " samples";
    detail = os.str();
  }
  if (detail.has_value()) {
    VAOLIB_RETURN_IF_ERROR(RecordFailure(
        seed, {engine::QueryKind::kSum, 1}, 1, false,
        "calibration audit: " + *detail, summary));
  }
  return Status::OK();
}

namespace {

/// A PDE-backed twin of a workload's function. Row i solves the annuity
/// problem a F_xx + F_t - r F + c_i = 0, F(x, T) = 0, with linear
/// boundaries: its solution (c_i / r)(1 - e^{-r T}) does not depend on x,
/// and c_i is chosen so that it equals row i's true value. Objects carry
/// c_i as their problem key, so under an active vao::PdeProfileCache they
/// read the profiles earlier runs solved.
class PdeTwinFunction : public vao::VariableAccuracyFunction {
 public:
  explicit PdeTwinFunction(const Workload& workload)
      : true_values_(workload.true_values) {
    options_.min_width = workload.min_width;
  }

  const std::string& name() const override { return name_; }
  int arity() const override { return 1; }

  Result<vao::ResultObjectPtr> Invoke(const std::vector<double>& args,
                                      WorkMeter* meter) const override {
    if (args.size() != 1 || !(args[0] >= 0.0) ||
        args[0] >= static_cast<double>(true_values_.size()) ||
        args[0] != std::floor(args[0])) {
      return Status::InvalidArgument("pde_twin expects one row id");
    }
    const double c = true_values_[static_cast<std::size_t>(args[0])] *
                     kRate / -std::expm1(-kRate * kHorizon);
    numeric::Pde1dProblem problem;
    problem.diffusion = [](double) { return 1e-3; };
    problem.convection = [](double) { return 0.0; };
    problem.reaction = [](double) { return kRate; };
    problem.source = [c](double) { return c; };
    problem.terminal = [](double) { return 0.0; };
    problem.t_end = kHorizon;
    return vao::PdeResultObject::Create(std::move(problem), 0.5, options_,
                                        meter, {c});
  }

 private:
  static constexpr double kRate = 0.01;
  static constexpr double kHorizon = 1.0;

  std::string name_ = "pde_twin";
  std::vector<double> true_values_;
  vao::PdeResultOptions options_;
};

/// Soundness-only checks for a budget-truncated scheduled answer: the tick
/// need not match the oracle, but everything it claims must be provable.
std::optional<std::string> CheckScheduledPartial(
    const engine::TickResult& tick, const ComboContext& ctx) {
  const Workload& w = *ctx.workload;
  const engine::Query& query = *ctx.query;
  switch (query.kind) {
    case engine::QueryKind::kSelect:
    case engine::QueryKind::kSelectRange:
      // Undecided rows resolve by the sound midpoint rule; the set itself
      // carries no oracle-comparable claim until converged.
      return std::nullopt;
    case engine::QueryKind::kMax:
    case engine::QueryKind::kMin: {
      const double sign =
          query.kind == engine::QueryKind::kMax ? 1.0 : -1.0;
      double best = sign * w.true_values[0];
      for (const double v : w.true_values) best = std::max(best, sign * v);
      best *= sign;
      // Pre-finalize snapshots report a candidate envelope that must
      // contain the true extreme; finalize-phase snapshots report the
      // settled winner's own bounds, which must contain ITS true value.
      bool sound = ContainsWithSlack(tick.aggregate_bounds, best, 1e-9);
      if (!sound && tick.winner_row.has_value() &&
          *tick.winner_row < w.true_values.size()) {
        sound = ContainsWithSlack(tick.aggregate_bounds,
                                  w.true_values[*tick.winner_row], 1e-9);
      }
      if (!sound) {
        std::ostringstream os;
        os << "partial extreme bounds " << tick.aggregate_bounds
           << " exclude both the true extreme " << best
           << " and the reported winner's true value";
        return os.str();
      }
      return std::nullopt;
    }
    case engine::QueryKind::kSum:
    case engine::QueryKind::kAve: {
      auto weights = OracleExecutor::ResolveWeights(query, w.relation);
      if (!weights.ok()) return weights.status().ToString();
      return CheckSumAnswer(tick.aggregate_bounds, /*degraded=*/true,
                            weights.value(), w.true_values, w.min_width,
                            query.epsilon, ctx.oracle);
    }
    case engine::QueryKind::kTopK: {
      for (std::size_t i = 0; i < tick.top_rows.size(); ++i) {
        const std::size_t row = tick.top_rows[i];
        if (row >= w.true_values.size()) {
          return "partial top-k row index out of range";
        }
        if (!ContainsWithSlack(tick.top_bounds[i], w.true_values[row],
                               1e-9)) {
          return "partial top-k bounds exclude the true value of row " +
                 std::to_string(row);
        }
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace

Status DifferentialRunner::RunSchedulerSweep(std::uint64_t seed,
                                             DifferentialSummary* summary) {
  WorkloadSpec spec;
  spec.rows = options_.rows;
  const Workload workload = MakeWorkload(spec, seed);

  std::vector<engine::Query> queries;
  queries.reserve(options_.kinds.size());
  for (const KindVariant& variant : options_.kinds) {
    Rng rng = QueryRng(seed, variant);
    queries.push_back(MakeQuery(workload, variant.kind, variant.k, &rng));
  }
  VAOLIB_RETURN_IF_ERROR(
      SweepPolicies(seed, workload, queries, "", summary));
  if (summary->failures.size() >= options_.max_failures) return Status::OK();

  // Once more over the workload's PDE twin, every run of the sweep under
  // one profile cache: the first run fills it and the later ones read it.
  const PdeTwinFunction twin(workload);
  for (engine::Query& query : queries) query.function = &twin;
  vao::PdeProfileCache cache;
  const vao::PdeProfileCache::Scope scope(&cache);
  return SweepPolicies(seed, workload, queries, "pde_twin ", summary);
}

Status DifferentialRunner::SweepPolicies(
    std::uint64_t seed, const Workload& workload,
    const std::vector<engine::Query>& queries, const std::string& axis,
    DifferentialSummary* summary) {
  std::vector<OracleAnswer> oracles;
  oracles.reserve(queries.size());
  {
    // The oracle solves on its own: no cache may answer for it.
    const vao::PdeProfileCache::Scope no_cache(nullptr);
    const OracleExecutor oracle_executor(queries.front().function);
    for (const engine::Query& query : queries) {
      VAOLIB_ASSIGN_OR_RETURN(OracleAnswer oracle,
                              oracle_executor.Answer(query, workload.relation));
      oracles.push_back(std::move(oracle));
    }
  }

  struct ScheduledRun {
    std::vector<engine::TickResult> ticks;
    obs::ExecutionReport tick_report;
  };
  auto run_once = [&](engine::SchedulerPolicy policy,
                      std::uint64_t budget) -> Result<ScheduledRun> {
    engine::MultiQueryOptions mq;
    mq.scheduler.policy = policy;
    mq.scheduler.budget = budget;
    VAOLIB_ASSIGN_OR_RETURN(
        auto executor,
        engine::MultiQueryExecutor::Create(&workload.relation,
                                           engine::Schema{}, queries, mq));
    VAOLIB_ASSIGN_OR_RETURN(auto ticks, executor->ProcessTick({}));
    return ScheduledRun{std::move(ticks), executor->last_tick_report()};
  };

  for (const engine::SchedulerPolicy policy : options_.scheduler_policies) {
    VAOLIB_ASSIGN_OR_RETURN(const ScheduledRun unbudgeted,
                            run_once(policy, 0));
    std::vector<std::uint64_t> budgets = {0};
    for (const double fraction : options_.budget_fractions) {
      budgets.push_back(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 fraction *
                 static_cast<double>(
                     unbudgeted.tick_report.scheduler_spent))));
    }

    for (const std::uint64_t budget : budgets) {
      ScheduledRun run;
      if (budget == 0) {
        run = unbudgeted;
      } else {
        VAOLIB_ASSIGN_OR_RETURN(run, run_once(policy, budget));
      }
      const std::string label =
          axis + "scheduler policy=" + engine::SchedulerPolicyName(policy) +
          " budget=" + std::to_string(budget) + ": ";

      // Budget invariants: per-query spends sum exactly to the scheduler
      // run's total (surfaced through the tick-wide report), and a budgeted
      // run starts no step its budget cannot pay for.
      std::uint64_t spent_sum = 0;
      for (const engine::TickResult& tick : run.ticks) {
        spent_sum += tick.work_units;
      }
      std::optional<std::string> budget_detail;
      if (spent_sum != run.tick_report.scheduler_spent) {
        budget_detail = "per-query spends sum to " +
                        std::to_string(spent_sum) +
                        " but the scheduler reports " +
                        std::to_string(run.tick_report.scheduler_spent);
      } else if (budget > 0 &&
                 spent_sum > budget + 2 * workload.relation.size()) {
        // A step prices each iterate at its est_cost(); only the fixed
        // two-unit state overhead of a PDE iterate is unpriced, at most one
        // per row in a step.
        budget_detail = "scheduled run spent " + std::to_string(spent_sum) +
                        " past its budget";
      }
      if (budget_detail.has_value()) {
        VAOLIB_RETURN_IF_ERROR(RecordFailure(seed, options_.kinds.front(), 1,
                                             false, label + *budget_detail,
                                             summary));
      }

      for (std::size_t q = 0; q < queries.size(); ++q) {
        const engine::TickResult& tick = run.ticks[q];
        const ComboContext ctx{&workload, &queries[q], &oracles[q]};
        ++summary->combos;
        ++summary->combos_by_family[FamilyOf(queries[q].kind)];
        std::optional<std::string> detail;
        if (budget == 0 && !tick.converged) {
          detail = "unbudgeted scheduled run did not converge";
        } else if (tick.converged) {
          detail = CheckTick(tick, ctx);
        } else {
          detail = CheckScheduledPartial(tick, ctx);
        }
        if (detail.has_value()) {
          VAOLIB_RETURN_IF_ERROR(RecordFailure(seed, options_.kinds[q], 1,
                                               false, label + *detail,
                                               summary));
        }
      }
      if (summary->failures.size() >= options_.max_failures) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status DifferentialRunner::RunApproxSweep(std::uint64_t seed,
                                          DifferentialSummary* summary) {
  // Positive-valued workload: a mean-zero population makes any relative
  // error target unreachable, which would force every run to the full
  // sample and make the coverage tally vacuous.
  WorkloadSpec spec;
  spec.rows = options_.approx_rows;
  spec.value_lo = 50.0;
  spec.value_hi = 150.0;
  const Workload workload = MakeWorkload(spec, seed);

  const engine::QueryKind kinds[] = {engine::QueryKind::kSum,
                                     engine::QueryKind::kAve};
  for (const engine::QueryKind kind : kinds) {
    Rng rng = QueryRng(seed, {kind, 1});
    engine::Query query = MakeQuery(workload, kind, 1, &rng);
    query.epsilon = 1.0;  // keep the minWidth floor reachable
    engine::ApproxSpec approx;
    approx.confidence = options_.approx_confidence;
    approx.target_rel_error = options_.approx_target_rel_error;
    approx.seed = seed;
    approx.initial_samples = options_.approx_initial_samples;
    query.approx = approx;

    // Ground truth under the query's effective weights.
    const std::size_t n = workload.true_values.size();
    NeumaierSum truth;
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = query.weight_column.has_value() ? workload.weights[i]
                       : kind == engine::QueryKind::kAve
                           ? 1.0 / static_cast<double>(n)
                           : 1.0;
      truth.Add(w * workload.true_values[i]);
      scale += std::abs(w) * (std::abs(workload.true_values[i]) + 1.0);
    }

    const auto record = [&](std::string detail) {
      DifferentialFailure failure;
      failure.seed = seed;
      failure.variant = {kind, 1};
      failure.rows = options_.approx_rows;
      failure.detail = std::move(detail);
      failure.repro = "repro: approx seed=" + std::to_string(seed) +
                      " rows=" + std::to_string(options_.approx_rows) +
                      " query=\"" + engine::FormatQuery(query, "synth") + "\"";
      if (!options_.artifact_path.empty()) {
        std::ofstream artifact(options_.artifact_path, std::ios::app);
        artifact << failure.repro << " detail=\"" << failure.detail << "\"\n";
      }
      summary->failures.push_back(std::move(failure));
    };

    VAOLIB_ASSIGN_OR_RETURN(
        const engine::TickResult tick,
        ExecuteOnce(workload, query, /*threads=*/1, /*cache=*/false,
                    nullptr));
    const vao::Answer& answer = tick.aggregate_bounds;
    std::ostringstream why;
    if (answer.mode != vao::AnswerMode::kApproximate) {
      record("approx query answered in exact mode");
      return Status::OK();
    }
    if (!answer.bounds().IsValid() || !std::isfinite(answer.lo) ||
        !std::isfinite(answer.hi)) {
      why << "approx interval invalid: " << answer.bounds();
      record(why.str());
      return Status::OK();
    }
    if (answer.sample_size < 2 || answer.sample_size > n ||
        answer.population_size != n) {
      why << "approx sample accounting broken: n=" << answer.sample_size
          << "/" << answer.population_size;
      record(why.str());
      return Status::OK();
    }
    if (answer.deterministic_width < 0.0 || answer.sampling_width < 0.0) {
      record("approx width decomposition negative");
      return Status::OK();
    }

    // Seeded sampling: an identical cold re-run must reproduce the answer
    // bit-for-bit.
    VAOLIB_ASSIGN_OR_RETURN(
        const engine::TickResult replay,
        ExecuteOnce(workload, query, /*threads=*/1, /*cache=*/false,
                    nullptr));
    const vao::Answer& again = replay.aggregate_bounds;
    if (again.lo != answer.lo || again.hi != answer.hi ||
        again.sample_size != answer.sample_size) {
      why << "approx replay diverged: " << answer << " vs " << again;
      record(why.str());
      return Status::OK();
    }

    ++summary->approx_checks;
    if (ContainsWithSlack(answer.bounds(), truth.Sum(), 1e-9 * scale)) {
      ++summary->approx_covered;
    }
  }
  return Status::OK();
}

Result<DifferentialSummary> DifferentialRunner::RunAll() {
  DifferentialSummary summary;
  for (std::size_t i = 0; i < options_.seeds; ++i) {
    const std::uint64_t seed = options_.base_seed + i;
    for (const KindVariant& variant : options_.kinds) {
      VAOLIB_RETURN_IF_ERROR(RunVariant(seed, variant, &summary));
      if (summary.failures.size() >= options_.max_failures) return summary;
    }
    if (!options_.strategies.empty()) {
      VAOLIB_RETURN_IF_ERROR(RunStrategySweep(seed, &summary));
      if (summary.failures.size() >= options_.max_failures) return summary;
      VAOLIB_RETURN_IF_ERROR(RunCalibrationAudit(seed, &summary));
      if (summary.failures.size() >= options_.max_failures) return summary;
    }
    if (!options_.scheduler_policies.empty()) {
      VAOLIB_RETURN_IF_ERROR(RunSchedulerSweep(seed, &summary));
      if (summary.failures.size() >= options_.max_failures) return summary;
    }
    if (options_.approx_axis) {
      VAOLIB_RETURN_IF_ERROR(RunApproxSweep(seed, &summary));
      if (summary.failures.size() >= options_.max_failures) return summary;
    }
  }
  if (options_.approx_axis && summary.approx_checks > 0) {
    // Binomial coverage gate: the interval claims confidence c, so over m
    // independent checks the covered count should not fall more than three
    // standard errors below c*m.
    const double conf = options_.approx_confidence;
    const double checks = static_cast<double>(summary.approx_checks);
    const double rate =
        static_cast<double>(summary.approx_covered) / checks;
    const double threshold =
        conf - 3.0 * std::sqrt(conf * (1.0 - conf) / checks);
    if (rate < threshold) {
      DifferentialFailure failure;
      failure.seed = options_.base_seed;
      failure.variant = {engine::QueryKind::kSum, 1};
      failure.rows = options_.approx_rows;
      std::ostringstream os;
      os << "approx coverage " << summary.approx_covered << "/"
         << summary.approx_checks << " = " << rate
         << " below binomial threshold " << threshold << " for confidence "
         << conf;
      failure.detail = os.str();
      failure.repro = "repro: approx coverage sweep, seeds=" +
                      std::to_string(options_.seeds);
      summary.failures.push_back(std::move(failure));
    }
  }
  return summary;
}

}  // namespace vaolib::testing
