// Unit tests for the TOP-K VAO extension and the ScoreHeap index.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
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
