// The lazy-heap SUM/AVE path against the O(N) scan it replaces: over
// unshared objects it must iterate exactly what the scan iterates (equal
// scores break toward the lowest index, a zero best score falls back to the
// widest weighted width), and over objects another task refines it must
// never iterate an object past its stopping condition, nor keep refining
// once the exact sum meets epsilon.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/work_meter.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "operators/iteration_task.h"
#include "operators/min_max.h"
#include "operators/sum_ave.h"
#include "vao/black_box.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::operators {
namespace {

using vao::SyntheticResultObject;

// A synthetic object that appends its id to a shared log on every Iterate()
// and counts the iterates that started at its stopping condition.
class LoggedObject : public vao::ResultObject {
 public:
  LoggedObject(std::size_t id, const SyntheticResultObject::Config& config,
               std::vector<std::size_t>* log)
      : id_(id), inner_(config), log_(log) {}

  Bounds bounds() const override { return inner_.bounds(); }
  double min_width() const override { return inner_.min_width(); }
  Status Iterate() override {
    if (inner_.AtStoppingCondition()) ++past_stop_;
    log_->push_back(id_);
    return inner_.Iterate();
  }
  std::uint64_t est_cost() const override { return inner_.est_cost(); }
  Bounds est_bounds() const override { return inner_.est_bounds(); }
  int iterations() const override { return inner_.iterations(); }
  std::uint64_t traditional_cost() const override {
    return inner_.traditional_cost();
  }

  int past_stop() const { return past_stop_; }

 private:
  std::size_t id_;
  SyntheticResultObject inner_;
  std::vector<std::size_t>* log_;
  int past_stop_ = 0;
};

struct Objects {
  std::vector<std::size_t> log;
  std::vector<std::unique_ptr<LoggedObject>> owned;
  std::vector<vao::ResultObject*> ptrs;
};

std::unique_ptr<Objects> MakeObjects(
    const std::vector<SyntheticResultObject::Config>& configs) {
  auto objects = std::make_unique<Objects>();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    objects->owned.push_back(
        std::make_unique<LoggedObject>(i, configs[i], &objects->log));
    objects->ptrs.push_back(objects->owned.back().get());
  }
  return objects;
}

SyntheticResultObject::Config Config(double true_value, double half_width,
                                     std::uint64_t cost, bool honest = true) {
  SyntheticResultObject::Config config;
  config.true_value = true_value;
  config.initial_half_width = half_width;
  config.cost_per_iteration = cost;
  config.honest_estimates = honest;
  config.min_width = 0.01;
  return config;
}

TEST(SumAveHeapTest, HeapPicksWhatTheScanPicks) {
  // Objects 0-3 tie on every score; object 4 has weight 0; objects 5-7
  // predict no progress (score 0), 5 and 6 with equal widths, so once 0-3
  // and 8-9 converge every round is an all-zero-score round.
  const std::vector<SyntheticResultObject::Config> configs = {
      Config(10.0, 8.0, 2),         Config(10.0, 8.0, 2),
      Config(10.0, 8.0, 2),         Config(10.0, 8.0, 2),
      Config(3.0, 20.0, 1),         Config(7.0, 6.0, 1, false),
      Config(7.0, 6.0, 1, false),   Config(5.0, 9.0, 3, false),
      Config(1.0, 30.0, 5),         Config(2.0, 4.0, 1)};
  const std::vector<double> weights = {1.0, 1.0, 1.0, 1.0, 0.0,
                                       1.0, 1.0, 2.0, 0.5, 3.0};

  struct Arm {
    StrategyKind strategy;
    int batch_k;
  };
  for (const Arm arm : {Arm{StrategyKind::kGreedy, 1},
                        Arm{StrategyKind::kBatchGreedy, 1},
                        Arm{StrategyKind::kBatchGreedy, 4}}) {
    auto run = [&](bool use_heap, Objects* objects) {
      SumAveOptions options;
      options.strategy = arm.strategy;
      options.batch_k = arm.batch_k;
      options.epsilon = 1e-6;
      options.use_heap_index = use_heap;
      const auto outcome = SumAveVao(options).Evaluate(objects->ptrs, weights);
      EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
      return *outcome;
    };
    const std::string label = "strategy=" +
                              std::to_string(static_cast<int>(arm.strategy)) +
                              " k=" + std::to_string(arm.batch_k);
    auto scan_objects = MakeObjects(configs);
    auto heap_objects = MakeObjects(configs);
    const SumOutcome scan = run(false, scan_objects.get());
    const SumOutcome heap = run(true, heap_objects.get());

    EXPECT_TRUE(scan.limited_by_min_width) << label;
    EXPECT_EQ(heap_objects->log, scan_objects->log) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(heap.sum_bounds.lo),
              std::bit_cast<std::uint64_t>(scan.sum_bounds.lo))
        << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(heap.sum_bounds.hi),
              std::bit_cast<std::uint64_t>(scan.sum_bounds.hi))
        << label;
    // One strategy invocation per cycle on both paths.
    EXPECT_EQ(heap.stats.choose_steps, scan.stats.choose_steps) << label;
  }
}

TEST(SumAveHeapTest, SharedObjectRefinedElsewhereIsNotOveriterated) {
  // Object 3 holds the maximum but carries the smallest SUM weight, so the
  // MAX task finalizes it to its stopping condition while the SUM task's
  // heap still holds an entry for it.
  std::vector<SyntheticResultObject::Config> configs;
  const std::vector<double> weights = {4.0, 3.0, 2.5, 0.05, 2.0, 1.5};
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double value = i == 3 ? 60.0 : 10.0 + 3.0 * static_cast<double>(i);
    configs.push_back(Config(value, 6.0 + static_cast<double>(i), 1 + i % 3));
  }

  // The interval the SUM of fully converged objects has.
  Bounds converged;
  {
    auto fresh = MakeObjects(configs);
    NeumaierSum lo;
    NeumaierSum hi;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      ASSERT_TRUE(vao::ConvergeToMinWidth(fresh->ptrs[i]).ok());
      lo.Add(weights[i] * fresh->ptrs[i]->bounds().lo);
      hi.Add(weights[i] * fresh->ptrs[i]->bounds().hi);
    }
    converged = Bounds(lo.Sum(), hi.Sum());
  }

  for (const engine::SchedulerPolicy policy :
       {engine::SchedulerPolicy::kGreedyGlobal,
        engine::SchedulerPolicy::kFairShare,
        engine::SchedulerPolicy::kDeadline}) {
    const std::string label = engine::SchedulerPolicyName(policy);
    auto objects = MakeObjects(configs);
    WorkMeter meter;

    SumAveOptions sum_options;
    sum_options.epsilon = 1e-6;
    sum_options.use_heap_index = true;
    auto sum = SumAveIterationTask::Create(sum_options, objects->ptrs, weights);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    MinMaxOptions max_options;
    max_options.epsilon = 0.01;
    auto max = MinMaxIterationTask::Create(max_options, objects->ptrs);
    ASSERT_TRUE(max.ok()) << max.status().ToString();

    engine::SchedulerOptions scheduler_options;
    scheduler_options.policy = policy;
    engine::WorkScheduler scheduler(scheduler_options);
    const auto stats = scheduler.Run(
        {{sum->get(), {}}, {max->get(), {}}}, &meter);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE((*sum)->Converged()) << label;
    ASSERT_TRUE((*max)->Converged()) << label;

    for (std::size_t i = 0; i < objects->owned.size(); ++i) {
      EXPECT_EQ(objects->owned[i]->past_stop(), 0)
          << label << ": object " << i << " iterated past its stopping "
          << "condition";
    }
    const Bounds answer = (*sum)->Snapshot().sum_bounds;
    EXPECT_LE(answer.lo, converged.lo) << label;
    EXPECT_GE(answer.hi, converged.hi) << label;
  }
}

TEST(SumAveHeapTest, SharedSumStopsOnceTheExactSumMeetsEpsilon) {
  // Fifty objects, a third of them near the maximum, so the MAX refines many
  // objects the SUM also sums. Every SUM iterate must start while the exact
  // sum over the objects' live bounds is still wider than epsilon: a SUM that
  // reads only its own iterates keeps refining after the MAX tightened the
  // exact sum past it.
  std::vector<SyntheticResultObject::Config> configs;
  std::vector<double> weights;
  for (std::size_t i = 0; i < 50; ++i) {
    const double value = i % 3 == 0 ? 90.0 + static_cast<double>(i % 5)
                                    : 20.0 + static_cast<double>(i * 7 % 40);
    configs.push_back(Config(value, 6.0 + static_cast<double>(i % 9),
                             1 + i % 4));
    weights.push_back(1.0);
  }
  constexpr double kEpsilon = 50.0;

  obs::SetTraceRingCapacity(1 << 16);
  obs::SetTraceMode(obs::TraceMode::kFlight);
  obs::ClearTrace();
  auto objects = MakeObjects(configs);
  std::vector<Bounds> live;
  for (const vao::ResultObject* object : objects->ptrs) {
    live.push_back(object->bounds());
  }
  WorkMeter meter;
  SumAveOptions sum_options;
  sum_options.epsilon = kEpsilon;
  sum_options.use_heap_index = true;
  auto sum = SumAveIterationTask::Create(sum_options, objects->ptrs, weights);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  MinMaxOptions max_options;
  max_options.epsilon = 0.01;
  auto max = MinMaxIterationTask::Create(max_options, objects->ptrs);
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  engine::SchedulerOptions scheduler_options;
  scheduler_options.policy = engine::SchedulerPolicy::kFairShare;
  const auto stats = engine::WorkScheduler(scheduler_options)
                         .Run({{sum->get(), {}}, {max->get(), {}}}, &meter);
  const obs::TraceSnapshot trace = obs::SnapshotTrace();
  obs::SetTraceMode(obs::TraceMode::kOff);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE((*sum)->Converged());
  ASSERT_TRUE((*max)->Converged());
  ASSERT_EQ(trace.dropped, 0u);

  // Replay the decisions in order over the objects' bounds, counting the
  // SUM iterates that started once the exact sum already met epsilon.
  std::uint64_t sum_iterates = 0;
  std::uint64_t late_iterates = 0;
  std::uint64_t max_iterates = 0;
  for (const obs::TraceEvent& event : trace.events) {
    if (event.kind != obs::TraceEvent::Kind::kDecision) continue;
    if (std::string(event.name) == "sum_ave") {
      NeumaierSum lo;
      NeumaierSum hi;
      for (std::size_t i = 0; i < live.size(); ++i) {
        lo.Add(weights[i] * live[i].lo);
        hi.Add(weights[i] * live[i].hi);
      }
      if (!(hi.Sum() - lo.Sum() > kEpsilon)) ++late_iterates;
      ++sum_iterates;
    } else {
      ++max_iterates;
    }
    live[event.object_index] = Bounds(event.lo_after, event.hi_after);
  }
  EXPECT_EQ(late_iterates, 0u) << "of " << sum_iterates << " SUM iterates";
  EXPECT_EQ(sum_iterates, (*sum)->Snapshot().stats.iterations);
  EXPECT_EQ(max_iterates, (*max)->Snapshot().stats.iterations);
  EXPECT_LE((*sum)->Snapshot().sum_bounds.Width(), kEpsilon);
}

}  // namespace
}  // namespace vaolib::operators
