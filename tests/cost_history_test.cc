// Tests for the predictive-planning loop: the CostHistory store (EWMA
// learning checked against a brute-force reference, bounded-size eviction,
// per-tick decay), the calibrated/sentinel greedy strategies closing the
// loop through the aggregate operators, thread-count invariance of the
// recorded history, and the greedy tie-break determinism the corrected
// strategies inherit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/work_meter.h"
#include "engine/cost_history.h"
#include "operators/cost_feedback.h"
#include "operators/iteration_strategy.h"
#include "operators/min_max.h"
#include "operators/sum_ave.h"
#include "testing/chaos_result_object.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::engine {
namespace {

using operators::CostObservation;
using testing::ChaosResultObject;
using testing::FaultKind;
using testing::FaultPlan;
using vao::SyntheticResultObject;

// ---------------------------------------------------------------------------
// CostHistory vs a brute-force reference

// Mirror of the documented learning rule, written independently of the
// store's implementation: clamped actual/est ratios, first-sample-direct
// EWMA, decaying weights.
struct ReferenceEntry {
  double cost_ratio = 1.0;
  double shrink_ratio = 1.0;
  bool has_cost = false;
  bool has_shrink = false;
  double weight = 0.0;
};

class ReferenceHistory {
 public:
  explicit ReferenceHistory(const CostHistory::Options& options)
      : options_(options) {}

  static bool RatioOf(double actual, double est, double* ratio) {
    if (actual < 0.0 || est < 1e-12) return false;
    const double r = actual / est;
    *ratio = std::clamp(r, 1.0 / 64.0, 64.0);
    return true;
  }

  void Record(std::uint64_t id, int kind, const CostObservation& sample) {
    double cost_ratio = 1.0;
    double shrink_ratio = 1.0;
    const bool has_cost =
        RatioOf(sample.actual_cost, sample.est_cost, &cost_ratio);
    const bool has_shrink =
        RatioOf(sample.actual_shrink, sample.est_shrink, &shrink_ratio);
    if (!has_cost && !has_shrink) return;
    ReferenceEntry& entry = entries_[{id, kind}];
    if (has_cost) {
      entry.cost_ratio = entry.has_cost
                             ? options_.alpha * cost_ratio +
                                   (1.0 - options_.alpha) * entry.cost_ratio
                             : cost_ratio;
      entry.has_cost = true;
    }
    if (has_shrink) {
      entry.shrink_ratio =
          entry.has_shrink ? options_.alpha * shrink_ratio +
                                 (1.0 - options_.alpha) * entry.shrink_ratio
                           : shrink_ratio;
      entry.has_shrink = true;
    }
    entry.weight += 1.0;
  }

  void BeginTick() {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it->second.weight *= options_.decay;
      it = it->second.weight < options_.min_weight ? entries_.erase(it)
                                                   : std::next(it);
    }
  }

  const std::map<std::pair<std::uint64_t, int>, ReferenceEntry>& entries()
      const {
    return entries_;
  }

 private:
  CostHistory::Options options_;
  std::map<std::pair<std::uint64_t, int>, ReferenceEntry> entries_;
};

TEST(CostHistoryTest, MatchesBruteForceReferenceOverRandomSamples) {
  CostHistory::Options options;
  options.max_entries = 1024;  // large enough that eviction never triggers
  CostHistory history(options);
  ReferenceHistory reference(options);
  Rng rng(0xC057);

  for (int step = 0; step < 2000; ++step) {
    if (step % 97 == 96) {
      history.BeginTick();
      reference.BeginTick();
      continue;
    }
    const std::uint64_t id = static_cast<std::uint64_t>(
        rng.UniformInt(0, 7));
    const int kind = static_cast<int>(rng.UniformInt(-1, 2));
    CostObservation sample;
    sample.est_cost = rng.Uniform(0.0, 8.0);
    // ~1 in 4 samples has unknown actual cost; a few est denominators are
    // degenerate (~0), which must contribute nothing.
    sample.actual_cost =
        rng.Bernoulli(0.25) ? -1.0 : rng.Uniform(0.0, 512.0);
    sample.est_shrink = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 4.0);
    sample.actual_shrink = rng.Uniform(0.0, 16.0);
    history.Record(id, kind, sample);
    reference.Record(id, kind, sample);
  }

  const auto snapshot = history.Snapshot();
  ASSERT_EQ(snapshot.size(), reference.entries().size());
  for (const auto& [key, entry] : snapshot) {
    const auto it = reference.entries().find(key);
    ASSERT_NE(it, reference.entries().end())
        << "id=" << key.first << " kind=" << key.second;
    EXPECT_DOUBLE_EQ(entry.cost_ratio, it->second.cost_ratio);
    EXPECT_DOUBLE_EQ(entry.shrink_ratio, it->second.shrink_ratio);
    EXPECT_EQ(entry.has_cost, it->second.has_cost);
    EXPECT_EQ(entry.has_shrink, it->second.has_shrink);
    EXPECT_DOUBLE_EQ(entry.weight, it->second.weight);
  }
}

TEST(CostHistoryTest, EvictsLeastRecentlyRecordedAtCapacity) {
  CostHistory::Options options;
  options.max_entries = 4;
  CostHistory history(options);
  CostObservation sample;
  sample.est_cost = 2.0;
  sample.actual_cost = 4.0;

  for (std::uint64_t id = 0; id < 4; ++id) history.Record(id, 0, sample);
  ASSERT_EQ(history.size(), 4u);
  // Touch id 0 so id 1 becomes the least recently recorded.
  history.Record(0, 0, sample);
  ASSERT_EQ(history.size(), 4u);
  history.Record(99, 0, sample);

  EXPECT_EQ(history.size(), 4u);
  EXPECT_FALSE(history.Lookup(1, 0, nullptr));
  EXPECT_TRUE(history.Lookup(0, 0, nullptr));
  EXPECT_TRUE(history.Lookup(2, 0, nullptr));
  EXPECT_TRUE(history.Lookup(3, 0, nullptr));
  EXPECT_TRUE(history.Lookup(99, 0, nullptr));
  // Snapshot order is the eviction order: least recently recorded first.
  const auto snapshot = history.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot.front().first.first, 2u);
  EXPECT_EQ(snapshot.back().first.first, 99u);
}

TEST(CostHistoryTest, BeginTickDecaysWeightsAndDropsStaleEntries) {
  CostHistory history;  // alpha .25, decay .5, min_weight .05
  CostObservation sample;
  sample.est_cost = 1.0;
  sample.actual_cost = 3.0;
  history.Record(7, 1, sample);

  CostHistory::Entry entry;
  ASSERT_TRUE(history.Lookup(7, 1, &entry));
  EXPECT_DOUBLE_EQ(entry.weight, 1.0);
  EXPECT_DOUBLE_EQ(entry.cost_ratio, 3.0);
  // Fresh entry predicts (weight 1.0 >= 0.5)...
  double cost_ratio = 0.0;
  EXPECT_TRUE(history.Predict(7, 1, &cost_ratio, nullptr));
  EXPECT_DOUBLE_EQ(cost_ratio, 3.0);

  // ...still predicts after one tick (weight exactly 0.5)...
  history.BeginTick();
  EXPECT_TRUE(history.Predict(7, 1, &cost_ratio, nullptr));

  // ...but not after two (weight 0.25 < min_predict_weight), even though
  // the entry is still stored.
  history.BeginTick();
  EXPECT_TRUE(history.Lookup(7, 1, &entry));
  EXPECT_DOUBLE_EQ(entry.weight, 0.25);
  EXPECT_FALSE(history.Predict(7, 1, &cost_ratio, nullptr));

  // Three more ticks: 0.125, 0.0625, then 0.03125 < min_weight drops the
  // entry.
  history.BeginTick();
  history.BeginTick();
  EXPECT_EQ(history.size(), 1u);
  history.BeginTick();
  EXPECT_EQ(history.size(), 0u);
  EXPECT_FALSE(history.Lookup(7, 1, nullptr));
}

// ---------------------------------------------------------------------------
// Closing the loop through the operators

// kRows lying objects: even rows claim 4x their real cost, odd rows claim
// a quarter. cost_growth = 1 keeps the real per-iterate cost constant.
std::vector<vao::ResultObjectPtr> MakeLyingObjects(std::size_t rows,
                                                   WorkMeter* meter,
                                                   double lie = 4.0) {
  std::vector<vao::ResultObjectPtr> owned;
  owned.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    SyntheticResultObject::Config config;
    config.true_value = static_cast<double>(i);
    config.initial_half_width = 8.0;
    config.shrink = 0.6;
    config.min_width = 0.01;
    config.cost_per_iteration = 16;
    config.meter = meter;
    FaultPlan plan;
    plan.kind = FaultKind::kLyingEstimates;
    plan.cost_factor = i % 2 == 0 ? lie : 1.0 / lie;
    owned.push_back(std::make_unique<ChaosResultObject>(
        std::make_unique<SyntheticResultObject>(config), plan));
  }
  return owned;
}

std::vector<vao::ResultObject*> RawPointers(
    const std::vector<vao::ResultObjectPtr>& owned) {
  std::vector<vao::ResultObject*> objects;
  objects.reserve(owned.size());
  for (const auto& object : owned) objects.push_back(object.get());
  return objects;
}

TEST(CalibratedGreedyTest, SecondTickPredictsCostsBetterThanRawEstimates) {
  constexpr std::size_t kRows = 12;
  CostHistory history;
  WorkMeter meter;

  auto run_pass = [&]() {
    const auto owned = MakeLyingObjects(kRows, &meter);
    history.BeginTick();
    operators::SumAveOptions options;
    options.epsilon = 1.0;
    options.strategy = operators::StrategyKind::kCalibratedGreedy;
    options.feedback = &history;
    // The operator must share the objects' meter: actual per-iterate costs
    // are measured as meter deltas around each Iterate().
    options.meter = &meter;
    const operators::SumAveVao vao(options);
    auto outcome = vao.Evaluate(RawPointers(owned),
                                std::vector<double>(kRows, 1.0));
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return std::move(outcome).value();
  };

  const operators::SumOutcome first = run_pass();
  ASSERT_GT(first.stats.cost_err_samples, 0u);
  EXPECT_GT(history.size(), 0u);

  const operators::SumOutcome second = run_pass();
  ASSERT_GT(second.stats.cost_err_samples, 0u);
  // Tick 2 runs against learned per-row ratios: the corrected predictions
  // must beat the raw (lying) estimates by a wide margin.
  EXPECT_GT(second.stats.corrected_decisions, 0u);
  EXPECT_LT(second.stats.corrected_cost_abs_err,
            0.5 * second.stats.raw_cost_abs_err);
  // Sound answer either way: SUM of 0..11 with unit weights.
  const double true_sum = 11.0 * 12.0 / 2.0;
  EXPECT_LE(second.sum_bounds.lo, true_sum);
  EXPECT_GE(second.sum_bounds.hi, true_sum);
}

TEST(CalibratedGreedyTest, ZeroSignalFallsBackToRawGreedyBitExactly) {
  // No feedback store, no calibration samples for synthetic objects, no
  // correlation groups: kCalibratedGreedy must reproduce kGreedy exactly
  // (same picks, same work, same answer).
  constexpr std::size_t kRows = 9;
  auto run = [&](operators::StrategyKind strategy) {
    WorkMeter meter;
    const auto owned = MakeLyingObjects(kRows, &meter);
    operators::SumAveOptions options;
    options.epsilon = 0.5;
    options.strategy = strategy;
    options.meter = &meter;
    const operators::SumAveVao vao(options);
    auto outcome = vao.Evaluate(RawPointers(owned),
                                std::vector<double>(kRows, 1.0));
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return std::move(outcome).value();
  };
  const operators::SumOutcome greedy = run(operators::StrategyKind::kGreedy);
  const operators::SumOutcome calibrated =
      run(operators::StrategyKind::kCalibratedGreedy);
  EXPECT_EQ(greedy.stats.iterations, calibrated.stats.iterations);
  EXPECT_EQ(greedy.stats.choose_steps, calibrated.stats.choose_steps);
  EXPECT_EQ(greedy.sum_bounds.lo, calibrated.sum_bounds.lo);
  EXPECT_EQ(greedy.sum_bounds.hi, calibrated.sum_bounds.hi);
}

TEST(SentinelGreedyTest, ProbesCorrelationGroupsAndStaysSound) {
  // Two correlation groups of lying objects: the sentinel probes (cheapest
  // members first) fit each group's real ratio and re-rank the rest.
  constexpr std::size_t kRows = 12;
  WorkMeter meter;
  std::vector<vao::ResultObjectPtr> owned;
  for (std::size_t i = 0; i < kRows; ++i) {
    SyntheticResultObject::Config config;
    config.true_value = static_cast<double>(i);
    config.initial_half_width = 8.0;
    config.shrink = 0.6;
    config.min_width = 0.01;
    config.cost_per_iteration = 16;
    config.correlation_key = i < kRows / 2 ? "g0" : "g1";
    config.meter = &meter;
    FaultPlan plan;
    plan.kind = FaultKind::kLyingEstimates;
    plan.cost_factor = i < kRows / 2 ? 6.0 : 1.0 / 6.0;
    owned.push_back(std::make_unique<ChaosResultObject>(
        std::make_unique<SyntheticResultObject>(config), plan));
  }

  operators::MinMaxOptions options;
  options.kind = operators::ExtremeKind::kMax;
  options.epsilon = 0.05;
  options.strategy = operators::StrategyKind::kSentinelGreedy;
  options.sentinel_probes = 2;
  options.meter = &meter;
  const operators::MinMaxVao vao(options);
  const auto outcome = vao.Evaluate(RawPointers(owned));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->winner_index, kRows - 1);
  EXPECT_TRUE(outcome->winner_bounds.Contains(
      static_cast<double>(kRows - 1)));
  // The probe observations count as corrected-path decisions.
  EXPECT_GT(outcome->stats.corrected_decisions, 0u);
}

TEST(CostHistoryTest, RecordedHistoryIsInvariantUnderOperatorThreads) {
  // The recording paths are all serial (the parallel coarse phase never
  // records), so the history left behind by an operator run must be
  // identical at any thread count.
  constexpr std::size_t kRows = 10;
  auto run = [&](int threads) {
    CostHistory history;
    WorkMeter meter;
    const auto owned = MakeLyingObjects(kRows, &meter);
    operators::MinMaxOptions options;
    options.kind = operators::ExtremeKind::kMax;
    options.epsilon = 0.05;
    options.threads = threads;
    options.feedback = &history;
    options.meter = &meter;
    const operators::MinMaxVao vao(options);
    const auto outcome = vao.Evaluate(RawPointers(owned));
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    return history.Snapshot();
  };

  const auto serial = run(1);
  const auto threaded = run(3);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, threaded[i].first);
    EXPECT_EQ(serial[i].second.cost_ratio, threaded[i].second.cost_ratio);
    EXPECT_EQ(serial[i].second.shrink_ratio,
              threaded[i].second.shrink_ratio);
    EXPECT_EQ(serial[i].second.weight, threaded[i].second.weight);
  }
}

// ---------------------------------------------------------------------------
// Greedy tie-breaking

TEST(GreedyTieBreakTest, EqualScoresChooseTheFirstEnumeratedCandidate) {
  // Four candidates with identical benefit/cost: the pick must be the
  // first enumerated one, for every greedy-family strategy. This is the
  // determinism the corrected strategies rely on when corrections leave
  // scores equal.
  std::vector<operators::IterationCandidate> candidates;
  for (std::size_t i = 0; i < 4; ++i) {
    operators::IterationCandidate c;
    c.index = 10 + i;  // input indices need not start at 0
    c.benefit = 2.0;
    c.cost = 4.0;
    c.width = 1.0;
    candidates.push_back(c);
  }
  for (const operators::StrategyKind kind :
       {operators::StrategyKind::kGreedy,
        operators::StrategyKind::kBatchGreedy,
        operators::StrategyKind::kCalibratedGreedy,
        operators::StrategyKind::kSentinelGreedy}) {
    auto strategy = operators::MakeStrategy(kind, nullptr);
    ASSERT_TRUE(strategy.ok());
    EXPECT_EQ((*strategy)->Choose(candidates), 10u)
        << operators::StrategyKindName(kind);
  }
}

TEST(GreedyTieBreakTest, ZeroBenefitFallbackBreaksWidthTiesByOrder) {
  // All benefits zero, all widths equal: the width fallback must also pick
  // the first enumerated candidate.
  std::vector<operators::IterationCandidate> candidates;
  for (std::size_t i = 0; i < 3; ++i) {
    operators::IterationCandidate c;
    c.index = 5 - i;  // descending input indices: order, not index, wins
    c.benefit = 0.0;
    c.cost = 1.0;
    c.width = 2.5;
    candidates.push_back(c);
  }
  auto strategy =
      operators::MakeStrategy(operators::StrategyKind::kGreedy, nullptr);
  ASSERT_TRUE(strategy.ok());
  EXPECT_EQ((*strategy)->Choose(candidates), 5u);
}

TEST(GreedyTieBreakTest, ChooseBatchRanksTiesStablyAtEveryK) {
  // Two score classes with internal ties: ranking must be score-descending
  // with enumeration order breaking ties, at every batch K, and the top-1
  // must equal the scalar greedy pick.
  std::vector<operators::IterationCandidate> candidates;
  const double benefits[] = {1.0, 3.0, 1.0, 3.0, 1.0};
  for (std::size_t i = 0; i < 5; ++i) {
    operators::IterationCandidate c;
    c.index = i;
    c.benefit = benefits[i];
    c.cost = 1.0;
    c.width = 1.0;
    candidates.push_back(c);
  }
  auto batch = operators::MakeStrategy(
      operators::StrategyKind::kBatchGreedy, nullptr);
  auto greedy =
      operators::MakeStrategy(operators::StrategyKind::kGreedy, nullptr);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(greedy.ok());
  const std::vector<std::size_t> expected = {1, 3, 0, 2, 4};
  for (std::size_t k = 1; k <= 5; ++k) {
    std::vector<std::size_t> chosen;
    (*batch)->ChooseBatch(candidates, k, &chosen);
    ASSERT_EQ(chosen.size(), k);
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(chosen[i], expected[i]);
    EXPECT_EQ(chosen.front(), (*greedy)->Choose(candidates));
  }
}

}  // namespace
}  // namespace vaolib::engine
