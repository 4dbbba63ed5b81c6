// Unit tests for the TOP-K VAO extension and the ScoreHeap index.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "engine/scheduler.h"
#include "operators/iteration_task.h"
#include "operators/score_heap.h"
#include "operators/sum_ave.h"
#include "operators/top_k.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::operators {
namespace {

using vao::SyntheticResultObject;

SyntheticResultObject MakeObject(double true_value, double half_width = 10.0,
                                 double skew = 0.5,
                                 WorkMeter* meter = nullptr) {
  SyntheticResultObject::Config config;
  config.true_value = true_value;
  config.initial_half_width = half_width;
  config.skew = skew;
  config.meter = meter;
  return SyntheticResultObject(config);
}

TEST(TopKVaoTest, KOneMatchesMaxSemantics) {
  std::vector<SyntheticResultObject> objects;
  objects.push_back(MakeObject(95.0));
  objects.push_back(MakeObject(105.0));
  objects.push_back(MakeObject(88.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  TopKOptions options;
  options.k = 1;
  options.epsilon = 0.05;
  const TopKVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->winners.size(), 1u);
  EXPECT_EQ(outcome->winners[0], 1u);
  EXPECT_LE(outcome->winner_bounds[0].Width(), 0.05);
  EXPECT_TRUE(outcome->winner_bounds[0].Contains(105.0));
}

TEST(TopKVaoTest, FindsCorrectSetOnRandomInputs) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(3, 14));
    const auto k =
        static_cast<std::size_t>(rng.UniformInt(1, n));
    std::vector<std::unique_ptr<SyntheticResultObject>> objects;
    std::vector<double> values;
    std::set<double> used;
    for (int i = 0; i < n; ++i) {
      // Distinct values spaced > 1 so ties cannot occur at minWidth scale.
      double v;
      do {
        v = 50.0 + 2.0 * static_cast<double>(rng.UniformInt(0, 60));
      } while (used.contains(v));
      used.insert(v);
      values.push_back(v);
      SyntheticResultObject::Config config;
      config.true_value = v;
      config.initial_half_width = rng.Uniform(3.0, 35.0);
      config.skew = rng.Uniform(0.1, 0.9);
      objects.push_back(std::make_unique<SyntheticResultObject>(config));
    }
    std::vector<vao::ResultObject*> ptrs;
    for (auto& o : objects) ptrs.push_back(o.get());

    TopKOptions options;
    options.k = k;
    options.epsilon = 0.05;
    const TopKVao vao(options);
    const auto outcome = vao.Evaluate(ptrs);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_EQ(outcome->winners.size(), k);

    // Expected set: indices of the k largest values.
    std::vector<std::size_t> expected(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) expected[i] = i;
    std::sort(expected.begin(), expected.end(),
              [&](std::size_t a, std::size_t b) {
                return values[a] > values[b];
              });
    expected.resize(k);

    std::set<std::size_t> got(outcome->winners.begin(),
                              outcome->winners.end());
    std::set<std::size_t> want(expected.begin(), expected.end());
    EXPECT_EQ(got, want) << "trial " << trial << " n " << n << " k " << k;

    // Winners must be ordered by descending value and each within epsilon.
    for (std::size_t i = 0; i + 1 < outcome->winners.size(); ++i) {
      EXPECT_GE(values[outcome->winners[i]], values[outcome->winners[i + 1]]);
    }
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_LE(outcome->winner_bounds[i].Width(), 0.05 + 1e-12);
      EXPECT_TRUE(
          outcome->winner_bounds[i].Contains(values[outcome->winners[i]]));
    }
  }
}

TEST(TopKVaoTest, BottomKViaMinKind) {
  std::vector<SyntheticResultObject> objects;
  objects.push_back(MakeObject(95.0));
  objects.push_back(MakeObject(105.0));
  objects.push_back(MakeObject(88.0));
  objects.push_back(MakeObject(120.0));
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  TopKOptions options;
  options.k = 2;
  options.kind = ExtremeKind::kMin;
  options.epsilon = 0.05;
  const TopKVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok());
  const std::set<std::size_t> got(outcome->winners.begin(),
                                  outcome->winners.end());
  EXPECT_EQ(got, (std::set<std::size_t>{0, 2}));
  // Ordered most extreme (smallest) first.
  EXPECT_EQ(outcome->winners[0], 2u);
}

TEST(TopKVaoTest, KEqualsNReturnsEverythingRefined) {
  std::vector<SyntheticResultObject> objects;
  objects.push_back(MakeObject(95.0));
  objects.push_back(MakeObject(96.0));
  std::vector<vao::ResultObject*> ptrs{&objects[0], &objects[1]};
  TopKOptions options;
  options.k = 2;
  options.epsilon = 0.05;
  const TopKVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->winners.size(), 2u);
  for (const auto& b : outcome->winner_bounds) {
    EXPECT_LE(b.Width(), 0.05);
  }
}

TEST(TopKVaoTest, TieAtBoundaryReported) {
  std::vector<SyntheticResultObject> objects;
  objects.push_back(MakeObject(110.0));
  objects.push_back(MakeObject(100.0));
  objects.push_back(MakeObject(100.0));  // ties with index 1 at the boundary
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);
  TopKOptions options;
  options.k = 2;
  options.epsilon = 0.05;
  const TopKVao vao(options);
  const auto outcome = vao.Evaluate(ptrs);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->tie);
  ASSERT_EQ(outcome->winners.size(), 2u);
  EXPECT_EQ(outcome->winners[0], 0u);  // the clear leader is always included
}

TEST(TopKVaoTest, DominatedObjectsNeverIterated) {
  WorkMeter meter;
  std::vector<SyntheticResultObject> objects;
  objects.push_back(MakeObject(110.0, 2.0, 0.5, &meter));  // [108,112]
  objects.push_back(MakeObject(100.0, 2.0, 0.5, &meter));  // [98,102]
  objects.push_back(MakeObject(10.0, 2.0, 0.5, &meter));   // [8,12]
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);
  TopKOptions options;
  options.k = 2;
  options.epsilon = 0.05;
  const TopKVao vao(options);
  ASSERT_TRUE(vao.Evaluate(ptrs).ok());
  EXPECT_EQ(objects[2].iterations(), 0);
}

TEST(TopKVaoTest, InputValidation) {
  auto object = MakeObject(1.0);
  std::vector<vao::ResultObject*> ptrs{&object};
  TopKOptions options;
  const TopKVao ok_vao(options);
  EXPECT_FALSE(ok_vao.Evaluate({}).ok());

  options.k = 2;  // > n
  EXPECT_FALSE(TopKVao(options).Evaluate(ptrs).ok());
  options.k = 0;
  EXPECT_FALSE(TopKVao(options).Evaluate(ptrs).ok());
  options.k = 1;
  options.epsilon = 1e-6;  // below minWidth
  const auto tight = TopKVao(options).Evaluate(ptrs);
  ASSERT_FALSE(tight.ok());
  // The message names both numbers, like MIN/MAX's.
  EXPECT_NE(tight.status().message().find(std::to_string(1e-6)),
            std::string::npos)
      << tight.status();
  EXPECT_NE(tight.status().message().find(std::to_string(0.01)),
            std::string::npos)
      << tight.status();
  std::vector<vao::ResultObject*> with_null{nullptr};
  options.epsilon = 0.05;
  EXPECT_FALSE(TopKVao(options).Evaluate(with_null).ok());
}

TEST(TopKVaoTest, SentinelProbeRunsAmongRankOrderedCandidates) {
  // One correlation group of three. Object 2 leads, so the boundary step
  // offers its candidates in rank order 2, 0, 1. Object 0 is the group's
  // cheapest member, hence its sentinel probe, and predicts no progress, so
  // only the probe rule would spend the first cycle on it.
  std::vector<SyntheticResultObject> objects;
  for (const auto& [value, cost, honest] :
       {std::tuple{50.0, 1, false}, std::tuple{45.0, 5, true},
        std::tuple{55.0, 5, true}}) {
    SyntheticResultObject::Config config;
    config.true_value = value;
    config.cost_per_iteration = static_cast<std::uint64_t>(cost);
    config.honest_estimates = honest;
    config.correlation_key = "group";
    objects.emplace_back(config);
  }
  std::vector<vao::ResultObject*> ptrs;
  for (auto& o : objects) ptrs.push_back(&o);

  TopKOptions options;
  options.k = 1;
  options.epsilon = 0.05;
  options.strategy = StrategyKind::kSentinelGreedy;
  options.sentinel_probes = 1;
  auto task = TopKIterationTask::Create(options, ptrs);
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  WorkMeter meter;
  ASSERT_TRUE((*task)->Step(&meter).ok());  // the coarse phase
  ASSERT_TRUE((*task)->Step(&meter).ok());  // the first boundary cycle
  EXPECT_EQ(objects[0].iterations(), 1);
  EXPECT_EQ(objects[1].iterations() + objects[2].iterations(), 0);

  ASSERT_TRUE(DriveTask(task->get(), &meter).ok());
  EXPECT_EQ((*task)->Snapshot().winners, (std::vector<std::size_t>{2}));
}

// ---------------------------------------------------------------------------
// TOP-K over objects other tasks refine

// Objects 0, 7, 14, ... hold the top values; every third object is cheap and
// wide, so SUM and MAX refine objects the TOP-K task also ranks.
std::vector<SyntheticResultObject> SharedObjects(WorkMeter* meter) {
  std::vector<SyntheticResultObject> objects;
  for (std::size_t i = 0; i < 28; ++i) {
    SyntheticResultObject::Config config;
    config.true_value = i % 7 == 0 ? 90.0 + static_cast<double>(i)
                                   : 40.0 + static_cast<double>(i * 13 % 41);
    config.initial_half_width = i % 3 == 0 ? 30.0 : 8.0 + (i % 5);
    config.skew = 0.2 + 0.1 * static_cast<double>(i % 7);
    config.cost_per_iteration = 1 + i % 4;
    config.cost_growth = 1.2;
    config.honest_estimates = i % 6 != 5;
    config.meter = meter;
    objects.emplace_back(config);
  }
  return objects;
}

std::string Hex(double value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

// The twin of SumAveHeapTest.SharedObjectRefinedElsewhereIsNotOveriterated:
// a TOP-K task shares its objects with a SUM and a MAX, and a scheduler
// interleaves them (kDeadline, with no deadlines, runs them in entry order,
// so TOP-K starts after the others refined its objects). The pins were
// recorded from a TOP-K that re-read every object's live bounds at each
// step; a TOP-K that caches per-object state must make the same picks. The
// kFairShare pin moved when the SUM began to count the others' refinements
// and so stopped sooner.
TEST(TopKSharedObjectTest, ScheduledWithMaxAndSumOverTheSameObjects) {
  struct Pin {
    engine::SchedulerPolicy policy;
    const char* iterations;
    const char* winners;
  };
  const Pin pins[] = {
      {engine::SchedulerPolicy::kGreedyGlobal,
       "4,2,2,3,3,0,3,9,3,4,1,0,5,2,9,3,3,0,3,1,3,11,1,0,5,2,1,3,",
       "21@405bbfa000000000:405bc18000000000"
       " 14@4059ff6666666666:405a026666666666"
       " 7@40583f8000000000:4058420000000000 "},
      {engine::SchedulerPolicy::kFairShare,
       "4,2,1,3,3,0,3,9,3,4,1,0,5,2,9,3,3,0,3,1,3,11,1,0,5,2,1,3,",
       "21@405bbfa000000000:405bc18000000000"
       " 14@4059ff6666666666:405a026666666666"
       " 7@40583f8000000000:4058420000000000 "},
      {engine::SchedulerPolicy::kDeadline,
       "4,2,2,3,3,0,3,9,3,4,1,0,5,2,9,3,3,0,3,1,3,11,1,0,5,2,1,3,",
       "21@405bbfa000000000:405bc18000000000"
       " 14@4059ff6666666666:405a026666666666"
       " 7@40583f8000000000:4058420000000000 "},
  };
  for (const Pin& pin : pins) {
    const std::string label = engine::SchedulerPolicyName(pin.policy);
    WorkMeter meter;
    std::vector<SyntheticResultObject> objects = SharedObjects(&meter);
    std::vector<vao::ResultObject*> ptrs;
    for (auto& o : objects) ptrs.push_back(&o);

    SumAveOptions sum_options;
    sum_options.epsilon = 200.0;
    sum_options.use_heap_index = true;
    std::vector<double> weights;
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      weights.push_back(i % 7 == 0 ? 0.05 : 1.0);
    }
    auto sum = SumAveIterationTask::Create(sum_options, ptrs, weights);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    MinMaxOptions max_options;
    max_options.epsilon = 0.05;
    auto max = MinMaxIterationTask::Create(max_options, ptrs);
    ASSERT_TRUE(max.ok()) << max.status().ToString();
    TopKOptions top_options;
    top_options.k = 3;
    top_options.epsilon = 0.05;
    auto top = TopKIterationTask::Create(top_options, ptrs);
    ASSERT_TRUE(top.ok()) << top.status().ToString();

    engine::WorkScheduler scheduler({pin.policy, 0});
    const auto stats = scheduler.Run(
        {{sum->get(), {}}, {max->get(), {}}, {top->get(), {}}}, &meter);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE((*top)->Converged()) << label;

    std::string iterations;
    for (const auto& o : objects) {
      iterations += std::to_string(o.iterations()) + ",";
    }
    const TopKOutcome outcome = (*top)->Snapshot();
    std::string winners;
    for (std::size_t j = 0; j < outcome.winners.size(); ++j) {
      winners += std::to_string(outcome.winners[j]) + "@" +
                 Hex(outcome.winner_bounds[j].lo) + ":" +
                 Hex(outcome.winner_bounds[j].hi) + " ";
    }
    EXPECT_EQ(iterations, pin.iterations) << label;
    EXPECT_EQ(winners, pin.winners) << label;
    // The live top 3 by true value: objects 21, 14 and 7.
    std::vector<std::size_t> set = outcome.winners;
    std::sort(set.begin(), set.end());
    EXPECT_EQ(set, (std::vector<std::size_t>{7, 14, 21})) << label;
  }
}

// An object that walks a fixed list of bounds, one entry per Iterate(); the
// list need not nest.
class ScriptedObject : public vao::ResultObject {
 public:
  explicit ScriptedObject(std::vector<Bounds> script)
      : script_(std::move(script)) {}

  Bounds bounds() const override { return script_[step_]; }
  double min_width() const override { return 0.01; }
  Status Iterate() override {
    if (step_ + 1 < script_.size()) ++step_;
    ++iterations_;
    return Status::OK();
  }
  std::uint64_t est_cost() const override { return 1; }
  Bounds est_bounds() const override {
    return script_[std::min(step_ + 1, script_.size() - 1)];
  }
  int iterations() const override { return iterations_; }
  std::uint64_t traditional_cost() const override { return 1; }

 private:
  std::vector<Bounds> script_;
  std::size_t step_ = 0;
  int iterations_ = 0;
};

TEST(TopKSharedObjectTest, HandSteppedTasksAnswerTheLiveTopK) {
  // Object 0 leads and object 1 overlaps it from below. The TOP-1 task's
  // first boundary step refines object 0 (object 1 predicts no gain). Then
  // a second task, stepped by hand beside it without a sink, iterates
  // object 1 once, which lifts it above object 0: its new bounds do not
  // nest inside the old ones.
  ScriptedObject a({Bounds(4.0, 6.0), Bounds(5.5, 6.0)});
  ScriptedObject b({Bounds(0.0, 5.0), Bounds(7.0, 8.0)});
  std::vector<vao::ResultObject*> ptrs = {&a, &b};

  TopKOptions options;
  options.k = 1;
  options.epsilon = 2.0;
  auto top = TopKIterationTask::Create(options, ptrs);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  auto other = MultiRowDecisionTask::Create(
      {&b}, "other", [](const Bounds&) { return true; }, OperatorOptions());
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  WorkMeter meter;
  ASSERT_TRUE((*top)->Step(&meter).ok());  // the coarse phase
  ASSERT_TRUE((*top)->Step(&meter).ok());  // the first boundary step
  ASSERT_EQ(a.iterations(), 1);
  ASSERT_EQ(b.iterations(), 0);
  ASSERT_TRUE((*other)->Step(&meter).ok());
  ASSERT_EQ(b.iterations(), 1);
  ASSERT_TRUE(DriveTask(top->get(), &meter).ok());
  const TopKOutcome outcome = (*top)->Snapshot();
  ASSERT_EQ(outcome.winners.size(), 1u);
  EXPECT_EQ(outcome.winners[0], 1u);
  EXPECT_EQ(a.iterations(), 1);
}

// ---------------------------------------------------------------------------
// ScoreHeap

TEST(ScoreHeapTest, PopsInScoreOrder) {
  ScoreHeap heap;
  heap.Reset(4);
  heap.Update(0, 1.0);
  heap.Update(1, 5.0);
  heap.Update(2, 3.0);
  std::size_t index;
  double score;
  ASSERT_TRUE(heap.PopBest(&index, &score));
  EXPECT_EQ(index, 1u);
  EXPECT_DOUBLE_EQ(score, 5.0);
  ASSERT_TRUE(heap.PopBest(&index, &score));
  EXPECT_EQ(index, 2u);
  ASSERT_TRUE(heap.PopBest(&index, &score));
  EXPECT_EQ(index, 0u);
  EXPECT_FALSE(heap.PopBest(&index, &score));
}

TEST(ScoreHeapTest, UpdateInvalidatesOldEntries) {
  ScoreHeap heap;
  heap.Reset(2);
  heap.Update(0, 10.0);
  heap.Update(0, 1.0);  // supersedes the 10.0 entry
  heap.Update(1, 5.0);
  std::size_t index;
  double score;
  ASSERT_TRUE(heap.PopBest(&index, &score));
  EXPECT_EQ(index, 1u);
  ASSERT_TRUE(heap.PopBest(&index, &score));
  EXPECT_EQ(index, 0u);
  EXPECT_DOUBLE_EQ(score, 1.0);
}

TEST(ScoreHeapTest, RemoveSuppressesEntries) {
  ScoreHeap heap;
  heap.Reset(2);
  heap.Update(0, 10.0);
  heap.Update(1, 5.0);
  heap.Remove(0);
  std::size_t index;
  double score;
  ASSERT_TRUE(heap.PopBest(&index, &score));
  EXPECT_EQ(index, 1u);
  EXPECT_FALSE(heap.PopBest(&index, &score));
}

// ---------------------------------------------------------------------------
// Heap-indexed SUM

TEST(HeapIndexedSumTest, MatchesScanGreedyResult) {
  Rng rng(88);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(2, 30));
    std::vector<SyntheticResultObject::Config> configs;
    std::vector<double> weights;
    double truth = 0.0;
    for (int i = 0; i < n; ++i) {
      SyntheticResultObject::Config config;
      config.true_value = rng.Uniform(-20.0, 120.0);
      config.initial_half_width = rng.Uniform(1.0, 20.0);
      config.skew = rng.Uniform(0.1, 0.9);
      configs.push_back(config);
      weights.push_back(rng.Uniform(0.0, 4.0));
      truth += weights.back() * config.true_value;
    }

    auto run = [&](bool use_heap) {
      std::vector<std::unique_ptr<SyntheticResultObject>> objects;
      std::vector<vao::ResultObject*> ptrs;
      for (const auto& config : configs) {
        objects.push_back(std::make_unique<SyntheticResultObject>(config));
        ptrs.push_back(objects.back().get());
      }
      SumAveOptions options;
      options.epsilon = 1.0;
      options.use_heap_index = use_heap;
      const SumAveVao vao(options);
      auto outcome = vao.Evaluate(ptrs, weights);
      EXPECT_TRUE(outcome.ok());
      return std::move(outcome).value();
    };

    const SumOutcome scan = run(false);
    const SumOutcome heap = run(true);
    EXPECT_TRUE(scan.sum_bounds.Contains(truth));
    EXPECT_TRUE(heap.sum_bounds.Contains(truth));
    EXPECT_LE(heap.sum_bounds.Width(), 1.0 + 1e-9);
    // Same greedy policy through a different index: identical iteration
    // counts up to tie-breaking noise.
    const double scan_iters = static_cast<double>(scan.stats.iterations);
    const double heap_iters = static_cast<double>(heap.stats.iterations);
    EXPECT_NEAR(heap_iters, scan_iters, scan_iters * 0.2 + 2.0);
  }
}

TEST(HeapIndexedSumTest, ChooseIterChargeIsLogarithmic) {
  const std::size_t n = 1024;
  std::vector<std::unique_ptr<SyntheticResultObject>> objects;
  std::vector<vao::ResultObject*> ptrs;
  for (std::size_t i = 0; i < n; ++i) {
    SyntheticResultObject::Config config;
    config.true_value = 100.0;
    config.initial_half_width = 4.0;
    objects.push_back(std::make_unique<SyntheticResultObject>(config));
    ptrs.push_back(objects.back().get());
  }
  const std::vector<double> weights(n, 1.0);

  WorkMeter scan_meter, heap_meter;
  {
    SumAveOptions options;
    options.epsilon = static_cast<double>(n) * 1.0;
    options.meter = &scan_meter;
    ASSERT_TRUE(SumAveVao(options).Evaluate(ptrs, weights).ok());
  }
  // Fresh objects for the heap arm.
  std::vector<std::unique_ptr<SyntheticResultObject>> objects2;
  std::vector<vao::ResultObject*> ptrs2;
  for (std::size_t i = 0; i < n; ++i) {
    SyntheticResultObject::Config config;
    config.true_value = 100.0;
    config.initial_half_width = 4.0;
    objects2.push_back(std::make_unique<SyntheticResultObject>(config));
    ptrs2.push_back(objects2.back().get());
  }
  {
    SumAveOptions options;
    options.epsilon = static_cast<double>(n) * 1.0;
    options.meter = &heap_meter;
    options.use_heap_index = true;
    ASSERT_TRUE(SumAveVao(options).Evaluate(ptrs2, weights).ok());
  }
  EXPECT_LT(heap_meter.Count(WorkKind::kChooseIter),
            scan_meter.Count(WorkKind::kChooseIter) / 4);
}

}  // namespace
}  // namespace vaolib::operators
