// aggregate_wide: one-shot CqExecutor queries (VAO mode, one thread, a
// fresh executor per query) over a wide relation of cheap synthetic rows.
// The UDF is nearly free, so the time goes to the operators' chooseIter
// scans and score bookkeeping and to the sampling tier; the synthetic
// function's hidden true values check every answer.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "stats.h"
#include "testing/oracle.h"
#include "testing/workload_gen.h"
#include "workload.h"
#include "workload/selectivity.h"

namespace perfbench {
namespace {

using namespace vaolib;

constexpr std::size_t kRows = 1000;
constexpr std::size_t kCapacity = 4096;

enum class Shape { kSelectGt, kMax, kTopK, kSum, kAve, kApproxSum, kApproxAve };

// The fixed mix, repeated. SELECT, MAX and APPROX queries take about a
// millisecond, TOP-k tens and SUM/AVE a hundred or more, so the shares
// (60% / 20% / 20%) put p90 inside the SUM/AVE class rather than on a
// boundary between classes of very different cost.
constexpr Shape kMix[] = {
    Shape::kSelectGt, Shape::kMax,       Shape::kSum,      Shape::kTopK,
    Shape::kApproxSum, Shape::kSelectGt, Shape::kMax,      Shape::kAve,
    Shape::kTopK,     Shape::kApproxAve, Shape::kSelectGt, Shape::kMax,
    Shape::kSum,      Shape::kTopK,      Shape::kApproxSum, Shape::kSelectGt,
    Shape::kMax,      Shape::kAve,       Shape::kTopK,     Shape::kApproxAve,
};

// One warm-up pass over the mix.
constexpr std::size_t kWarmupQueries = std::size(kMix);

// The relation is fixed; the run seed draws each query's parameters
// (thresholds, precisions, sampling targets and seeds), never the mix.
constexpr std::uint64_t kRelationSeed = 1994;
constexpr std::size_t kTopK = 5;
// Precision targets (absolute widths; SUM is hot-cold weighted over kRows
// rows whose initial widths are 4..100 each).
constexpr double kSumEpsLo = 8000.0;
constexpr double kSumEpsHi = 10000.0;
constexpr double kAveEpsLo = 8.0;
constexpr double kAveEpsHi = 10.0;

class AggregateWide : public Workload {
 public:
  // The queries are drawn up front over the same relation that Setup()
  // builds; Setup() only binds them to the (maybe timed) function.
  explicit AggregateWide(std::uint64_t seed) {
    const testing::Workload generated =
        testing::MakeWorkload(Spec(), kRelationSeed);
    Rng rng(seed ^ 0xa99e9a7eULL);
    for (std::size_t i = 0; i < kWarmupQueries + kCapacity; ++i) {
      queries_.push_back(
          MakeQuery(kMix[i % std::size(kMix)], generated.true_values, &rng));
    }
    sorted_truth_ = generated.true_values;
    std::sort(sorted_truth_.begin(), sorted_truth_.end());
  }

  bool Setup(const Tracing& tracing, std::string* error) override {
    data_ = testing::MakeWorkload(Spec(), kRelationSeed);
    if (tracing.recorder != nullptr) {
      timed_ = std::make_unique<TimedFunction>(data_.function.get(),
                                               tracing.recorder, tracing.vao);
    }
    const vao::VariableAccuracyFunction* function =
        timed_ != nullptr ? timed_.get()
                          : static_cast<const vao::VariableAccuracyFunction*>(
                                data_.function.get());
    for (engine::Query& query : queries_) query.function = function;
    for (std::size_t i = 0; i < kWarmupQueries; ++i) {
      const OpResult warm = Run(queries_[i]);
      if (!warm.ok) {
        *error = "warm-up query: " + warm.failure;
        return false;
      }
    }
    return true;
  }

  OpResult RunOp(std::size_t index) override {
    return Run(queries_[kWarmupQueries + index]);
  }

  std::size_t window() const override { return 64; }
  std::size_t capacity() const override { return kCapacity; }
  bool serves() const override { return false; }
  ReferenceShape reference_shape() const override {
    return ReferenceShape::kScan;
  }

 private:
  // Values sit in [50, 1050]: far enough from 0 that the sampled tier's
  // relative-error target is met well before the whole relation is drawn,
  // and spread enough that the extremes separate after a few iterations.
  static testing::WorkloadSpec Spec() {
    testing::WorkloadSpec spec;
    spec.rows = kRows;
    spec.value_lo = 50.0;
    spec.value_hi = 1050.0;
    return spec;
  }

  static engine::Query MakeQuery(Shape shape, const std::vector<double>& truth,
                                 Rng* rng) {
    engine::Query::Builder query(/*function=*/nullptr);
    query.Arg(engine::ArgRef::RelationField("id"));
    switch (shape) {
      case Shape::kSelectGt:
        query.Select(operators::Comparator::kGreaterThan,
                     workload::ConstantForGreaterSelectivity(
                         truth, rng->Uniform(0.1, 0.9))
                         .ValueOrDie());
        break;
      case Shape::kMax:
        query.Max();
        break;
      case Shape::kTopK:
        query.TopK(kTopK);
        break;
      case Shape::kSum:
        query.Sum().WeightColumn("weight").Epsilon(
            rng->Uniform(kSumEpsLo, kSumEpsHi));
        break;
      case Shape::kAve:
        query.Ave().Epsilon(rng->Uniform(kAveEpsLo, kAveEpsHi));
        break;
      case Shape::kApproxSum:
      case Shape::kApproxAve: {
        if (shape == Shape::kApproxSum) {
          query.Sum().WeightColumn("weight");
        } else {
          query.Ave();
        }
        engine::ApproxSpec approx;
        approx.confidence = 0.95;
        approx.target_rel_error = rng->Uniform(0.05, 0.10);
        approx.seed = rng->NextUint64();
        query.Approximate(approx);
        break;
      }
    }
    return query.Build();
  }

  OpResult Run(const engine::Query& query) {
    OpResult result;
    auto executor = engine::CqExecutor::Create(
        &data_.relation, engine::Schema{}, query, engine::ExecutionMode::kVao,
        /*threads=*/1);
    Result<engine::TickResult> tick =
        executor.ok() ? (*executor)->ProcessTick(engine::Tuple{})
                      : Result<engine::TickResult>(executor.status());
    result.end_ns = NowNs();
    if (!tick.ok()) {
      result.Fail(tick.status().ToString());
      return result;
    }
    Check(query, *tick, &result);
    return result;
  }

  void Check(const engine::Query& query, const engine::TickResult& tick,
             OpResult* result) const {
    OpCounts& counts = result->counts;
    counts.work = tick.work_units;
    counts.results = 1;
    counts.converged = tick.converged ? 1 : 0;
    counts.choose_steps = tick.report.choose_steps;
    counts.iterations = tick.report.iterations;
    counts.rows_scanned = tick.report.rows_scanned;

    Fnv1a digest;
    const vao::Answer& answer = tick.aggregate_bounds;
    digest.AddU64(static_cast<std::uint64_t>(tick.kind));
    digest.AddU64(tick.work_units);
    digest.AddU64(std::bit_cast<std::uint64_t>(answer.lo));
    digest.AddU64(std::bit_cast<std::uint64_t>(answer.hi));
    digest.AddU64(tick.winner_row.value_or(~0ULL));
    for (const std::size_t row : tick.passing_rows) digest.AddU64(row);
    for (const std::size_t row : tick.top_rows) digest.AddU64(row);
    result->digest = digest.value();

    const double tie = 2.0 * data_.min_width;
    const std::vector<double>& truth = data_.true_values;
    switch (query.kind) {
      case engine::QueryKind::kSelect: {
        std::vector<bool> passed(truth.size(), false);
        for (const std::size_t row : tick.passing_rows) passed[row] = true;
        for (std::size_t row = 0; row < truth.size(); ++row) {
          const bool must = truth[row] > query.constant + tie;
          const bool must_not = truth[row] < query.constant - tie;
          if ((must && !passed[row]) || (must_not && passed[row])) {
            result->Fail("selection decided row " + std::to_string(row) +
                         " wrongly");
            return;
          }
        }
        return;
      }
      case engine::QueryKind::kMax: {
        const double best = sorted_truth_.back();
        if (!tick.winner_row.has_value() ||
            truth[*tick.winner_row] < best - tie ||
            !answer.Contains(truth[*tick.winner_row])) {
          result->Fail("MAX winner is not admissible");
        }
        return;
      }
      case engine::QueryKind::kTopK: {
        const double kth = sorted_truth_[sorted_truth_.size() - query.k];
        if (tick.top_rows.size() != query.k) {
          result->Fail("TOP-k returned the wrong number of rows");
          return;
        }
        for (const std::size_t row : tick.top_rows) {
          if (truth[row] < kth - tie) {
            result->Fail("TOP-k row " + std::to_string(row) +
                         " is not admissible");
            return;
          }
        }
        return;
      }
      case engine::QueryKind::kSum:
      case engine::QueryKind::kAve: {
        const auto weights =
            testing::OracleExecutor::ResolveWeights(query, data_.relation);
        if (!weights.ok()) {
          result->Fail(weights.status().ToString());
          return;
        }
        double value = 0.0;
        for (std::size_t row = 0; row < truth.size(); ++row) {
          value += (*weights)[row] * truth[row];
        }
        // Summation order differs from the engine's; allow rounding.
        const double slack = 1e-9 * (std::fabs(value) + 1.0);
        const bool contains =
            answer.lo - slack <= value && value <= answer.hi + slack;
        if (query.approx.has_value()) {
          ++counts.approx_answers;
          if (contains) ++counts.approx_covered;
          if (answer.population_size > 0) {
            counts.sample_fraction_sum +=
                static_cast<double>(answer.sample_size) /
                static_cast<double>(answer.population_size);
          }
        } else if (!contains) {
          result->Fail("exact [L, H] misses the true aggregate");
        } else if (answer.Width() > query.epsilon) {
          result->Fail("exact answer wider than its precision");
        }
        return;
      }
      case engine::QueryKind::kMin:
      case engine::QueryKind::kSelectRange:
        result->Fail("shape outside the mix");
        return;
    }
  }

  testing::Workload data_;
  std::unique_ptr<TimedFunction> timed_;
  std::vector<engine::Query> queries_;
  std::vector<double> sorted_truth_;
};

}  // namespace

std::unique_ptr<Workload> MakeAggregateWide(std::uint64_t seed) {
  return std::make_unique<AggregateWide>(seed);
}

}  // namespace perfbench
