// Pins the aggregate operators' exact behaviour: for every aggregate task
// (MIN/MAX both ways, SUM/AVE scan and heap, TOP-K) under every iteration
// strategy, a seeded synthetic workload must reproduce the same work, the
// same OperatorStats, the same per-object iterate counts, the same answer
// bounds (bit patterns), the same decision trace and the same feedback
// store, value for value. The expected lines were recorded from the
// implementation and any change to the adaptive cycle that alters one of
// them is a behaviour change, not a refactor.
//
// The `cq/*` pins run every aggregate kind, exact and approximate, through
// CqExecutor at threads 1 and 2 under both resilience policies, plus a
// function whose Invoke() fails once on one row under SELECT and SUM. They
// pin the executor's tick: work units, the meter, the answer bits, the
// degradation flag and cause, and the report's operator and row counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/work_meter.h"
#include "engine/cost_history.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "operators/min_max.h"
#include "operators/sum_ave.h"
#include "operators/top_k.h"
#include "testing/workload_gen.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::operators {
namespace {

using vao::SyntheticResultObject;

enum class Task { kMax, kMin, kSumScan, kSumHeap, kTopK };

struct PinCase {
  const char* name;
  Task task;
  StrategyKind strategy;
  int batch_k;
  int threads;  ///< > 1 turns on the parallel coarse pre-phase
  const char* expected;
};

constexpr std::size_t kObjects = 12;

std::vector<std::unique_ptr<SyntheticResultObject>> MakeObjects(
    WorkMeter* meter) {
  Rng rng(20261017);
  std::vector<std::unique_ptr<SyntheticResultObject>> objects;
  for (std::size_t i = 0; i < kObjects; ++i) {
    SyntheticResultObject::Config config;
    config.true_value = rng.Uniform(0.0, 40.0);
    config.initial_half_width = rng.Uniform(4.0, 30.0);
    config.skew = rng.Uniform(0.1, 0.9);
    config.shrink = 0.5 + 0.1 * static_cast<double>(rng.UniformInt(0, 2));
    config.min_width = 0.01;
    config.cost_per_iteration =
        static_cast<std::uint64_t>(rng.UniformInt(1, 8));
    config.cost_growth = rng.Uniform(1.0, 1.8);
    config.honest_estimates = i % 5 != 3;
    config.correlation_key = i % 4 == 3 ? "" : "g" + std::to_string(i % 3);
    config.meter = meter;
    objects.push_back(std::make_unique<SyntheticResultObject>(config));
  }
  return objects;
}

// A store that already believes some objects cost more, and shrink less,
// than they claim, so the corrected strategies re-rank from the first cycle.
void SeedHistory(engine::CostHistory* history) {
  for (std::uint64_t id = 0; id < kObjects; id += 2) {
    CostObservation observation;
    observation.est_cost = 4.0;
    observation.actual_cost = id % 4 == 0 ? 12.0 : 2.0;
    observation.est_shrink = 1.0;
    observation.actual_shrink = id % 4 == 0 ? 0.5 : 1.5;
    history->Record(id, -1, observation);
  }
}

std::string Hex(double value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

struct Fnv {
  std::uint64_t hash = 1469598103934665603ULL;
  void Add(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (value >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void Add(const char* text) {
    for (; *text != '\0'; ++text) Add(static_cast<std::uint64_t>(*text));
  }
};

std::string StatsLine(const OperatorStats& s) {
  return "it=" + std::to_string(s.iterations) +
         " cs=" + std::to_string(s.choose_steps) +
         " touched=" + std::to_string(s.objects_touched) +
         " stalled=" + std::to_string(s.stalled_objects) +
         " co=" + std::to_string(s.coarse_iterations) +
         " gr=" + std::to_string(s.greedy_iterations) +
         " fi=" + std::to_string(s.finalize_iterations) +
         " ces=" + std::to_string(s.cost_err_samples) +
         " cd=" + std::to_string(s.corrected_decisions) +
         " raw=" + Hex(s.raw_cost_abs_err) +
         " cor=" + Hex(s.corrected_cost_abs_err);
}

std::string BoundsLine(const Bounds& b) { return Hex(b.lo) + ":" + Hex(b.hi); }

// Runs one case and renders everything it pins into one line.
std::string RunCase(const PinCase& pin) {
  WorkMeter meter;
  auto owned = MakeObjects(&meter);
  std::vector<vao::ResultObject*> objects;
  for (auto& object : owned) objects.push_back(object.get());

  engine::CostHistory history;
  const bool corrected = StrategyUsesCorrections(pin.strategy);
  if (corrected) SeedHistory(&history);
  Rng rng(99);

  auto configure = [&](OperatorOptions* options) {
    options->strategy = pin.strategy;
    options->batch_k = pin.batch_k;
    options->rng = &rng;
    options->meter = &meter;
    options->threads = pin.threads;
    if (pin.threads > 1) {
      options->coarse_width = 2.0;
      options->coarse_max_steps = 3;
    }
    if (corrected) options->feedback = &history;
    options->sentinel_probes = 1;
  };

  obs::ClearTrace();
  std::string answer;
  std::string stats;
  switch (pin.task) {
    case Task::kMax:
    case Task::kMin: {
      MinMaxOptions options;
      configure(&options);
      options.epsilon = 0.05;
      options.kind =
          pin.task == Task::kMax ? ExtremeKind::kMax : ExtremeKind::kMin;
      const auto outcome = MinMaxVao(options).Evaluate(objects);
      if (!outcome.ok()) return outcome.status().ToString();
      answer = "w=" + std::to_string(outcome->winner_index) + " " +
               BoundsLine(outcome->winner_bounds) +
               " tie=" + std::to_string(outcome->tie) + " tied=";
      for (const std::size_t i : outcome->tied_indices) {
        answer += std::to_string(i) + ",";
      }
      stats = StatsLine(outcome->stats);
      break;
    }
    case Task::kSumScan:
    case Task::kSumHeap: {
      SumAveOptions options;
      configure(&options);
      options.epsilon = 0.5;
      options.use_heap_index = pin.task == Task::kSumHeap;
      std::vector<double> weights;
      for (std::size_t i = 0; i < kObjects; ++i) {
        weights.push_back(i == 5 ? 0.0 : 0.25 + 0.125 * (i % 7));
      }
      const auto outcome = SumAveVao(options).Evaluate(objects, weights);
      if (!outcome.ok()) return outcome.status().ToString();
      answer = "sum=" + BoundsLine(outcome->sum_bounds) +
               " lim=" + std::to_string(outcome->limited_by_min_width);
      stats = StatsLine(outcome->stats);
      break;
    }
    case Task::kTopK: {
      TopKOptions options;
      configure(&options);
      options.epsilon = 0.05;
      options.k = 3;
      const auto outcome = TopKVao(options).Evaluate(objects);
      if (!outcome.ok()) return outcome.status().ToString();
      answer = "tie=" + std::to_string(outcome->tie) + " w=";
      for (std::size_t j = 0; j < outcome->winners.size(); ++j) {
        answer += " " + std::to_string(outcome->winners[j]) + "@" +
                  BoundsLine(outcome->winner_bounds[j]);
      }
      stats = StatsLine(outcome->stats);
      break;
    }
  }

  // Every decision the task recorded, in order.
  const obs::TraceSnapshot trace = obs::SnapshotTrace();
  Fnv decisions;
  std::uint64_t decision_count = 0;
  for (const obs::TraceEvent& event : trace.events) {
    if (event.kind != obs::TraceEvent::Kind::kDecision) continue;
    ++decision_count;
    decisions.Add(event.name);
    decisions.Add(event.phase);
    decisions.Add(event.object_index);
    for (const double v :
         {event.lo_before, event.hi_before, event.lo_after, event.hi_after,
          event.est_lo, event.est_hi, event.est_cost, event.actual_cost,
          event.score, event.raw_score}) {
      decisions.Add(v);
    }
  }
  EXPECT_EQ(trace.dropped, 0u) << pin.name;

  // The feedback store the run left behind.
  Fnv store;
  for (const auto& [key, entry] : history.Snapshot()) {
    store.Add(key.first);
    store.Add(static_cast<std::uint64_t>(key.second));
    store.Add(entry.cost_ratio);
    store.Add(entry.shrink_ratio);
    store.Add(entry.weight);
  }

  std::string iterations;
  for (const auto& object : owned) {
    iterations += std::to_string(object->iterations()) + ",";
  }
  char digests[64];
  std::snprintf(digests, sizeof(digests), "dec=%llu/%016llx fb=%016llx",
                static_cast<unsigned long long>(decision_count),
                static_cast<unsigned long long>(decisions.hash),
                static_cast<unsigned long long>(store.hash));
  return "meter=" + std::to_string(meter.Total()) + " " + stats +
         " its=" + iterations + " " + answer + " " + digests;
}

constexpr StrategyKind kG = StrategyKind::kGreedy;
constexpr StrategyKind kRR = StrategyKind::kRoundRobin;
constexpr StrategyKind kRnd = StrategyKind::kRandom;
constexpr StrategyKind kBG = StrategyKind::kBatchGreedy;
constexpr StrategyKind kCal = StrategyKind::kCalibratedGreedy;
constexpr StrategyKind kSen = StrategyKind::kSentinelGreedy;

const PinCase kCases[] = {
    {"max/greedy", Task::kMax, kG, 1, 1,
     "meter=232 it=30 cs=30 touched=6 stalled=0 co=0 gr=30 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,0,1,2,0,3,0,0,0,9,2,13, w=11"
     " 4042ce0964b166aa:4042cef10d419e7c tie=0 tied="
     " dec=30/70ddf89b234566a3 fb=14650fb0739d0383"},
    {"max/round_robin", Task::kMax, kRR, 1, 1,
     "meter=262 it=30 cs=27 touched=8 stalled=0 co=0 gr=27 fi=3 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=1,0,1,2,1,4,0,0,0,8,2,11, w=11"
     " 4042ccd81cef96de:4042d076bf307625 tie=0 tied="
     " dec=30/416ff6ea1e7df229 fb=14650fb0739d0383"},
    {"max/random", Task::kMax, kRnd, 1, 1,
     "meter=1419 it=35 cs=30 touched=7 stalled=0 co=0 gr=30 fi=5 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,0,1,2,2,9,0,0,0,8,2,11, w=11"
     " 4042ccd81cef96de:4042d076bf307625 tie=0 tied="
     " dec=35/05a46b9e36619565 fb=14650fb0739d0383"},
    {"max/batch1", Task::kMax, kBG, 1, 1,
     "meter=232 it=30 cs=30 touched=6 stalled=0 co=0 gr=30 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,0,1,2,0,3,0,0,0,9,2,13, w=11"
     " 4042ce0964b166aa:4042cef10d419e7c tie=0 tied="
     " dec=30/70ddf89b234566a3 fb=14650fb0739d0383"},
    {"max/batch4", Task::kMax, kBG, 4, 1,
     "meter=170 it=29 cs=8 touched=7 stalled=0 co=0 gr=26 fi=3 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,0,1,2,1,4,0,0,0,8,2,11, w=11"
     " 4042ccd81cef96de:4042d076bf307625 tie=0 tied="
     " dec=29/ab07918c7cdf1b9b fb=14650fb0739d0383"},
    {"max/calibrated", Task::kMax, kCal, 1, 1,
     "meter=228 it=30 cs=30 touched=6 stalled=0 co=0 gr=30 fi=0 ces=30"
     " cd=26 raw=0000000000000000 cor=4022c00000000000"
     " its=0,0,1,2,0,3,0,0,0,9,2,13, w=11"
     " 4042ce0964b166aa:4042cef10d419e7c tie=0 tied="
     " dec=30/a51213edfeb0fd11 fb=5b371db3707105cc"},
    {"max/sentinel", Task::kMax, kSen, 1, 1,
     "meter=239 it=31 cs=31 touched=7 stalled=0 co=0 gr=31 fi=0 ces=31"
     " cd=29 raw=0000000000000000 cor=4033600000000000"
     " its=0,0,1,2,0,3,0,0,1,9,2,13, w=11"
     " 4042ce0964b166aa:4042cef10d419e7c tie=0 tied="
     " dec=31/06bc3d86bc8094bf fb=bbca9b24a6e881fd"},
    {"max/coarse_greedy", Task::kMax, kG, 1, 2,
     "meter=337 it=50 cs=14 touched=12 stalled=0 co=36 gr=14 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,3,3,3,3,3,3,3,3,7,3,13, w=11"
     " 4042ce0964b166aa:4042cef10d419e7c tie=0 tied="
     " dec=14/c8c666756292009f fb=14650fb0739d0383"},
    {"max/coarse_batch4", Task::kMax, kBG, 4, 2,
     "meter=347 it=50 cs=5 touched=12 stalled=0 co=36 gr=11 fi=3 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,3,3,3,3,4,3,3,3,8,3,11, w=11"
     " 4042ccd81cef96de:4042d076bf307625 tie=0 tied="
     " dec=14/815d4132926b323e fb=14650fb0739d0383"},
    {"min/greedy", Task::kMin, kG, 1, 1,
     "meter=118859 it=47 cs=47 touched=7 stalled=0 co=0 gr=47 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,2,17,3,1,0,3,18,0,0,0,0, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=47/1411c005c3fd7e20 fb=14650fb0739d0383"},
    {"min/round_robin", Task::kMin, kRR, 1, 1,
     "meter=118962 it=54 cs=54 touched=9 stalled=0 co=0 gr=54 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=4,3,17,4,2,0,3,18,2,0,0,1, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=54/aa76a2bb32afe527 fb=14650fb0739d0383"},
    {"min/random", Task::kMin, kRnd, 1, 1,
     "meter=119013 it=55 cs=55 touched=9 stalled=0 co=0 gr=55 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=5,3,17,5,2,0,3,18,1,0,0,1, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=55/65714c0ea0252fdf fb=14650fb0739d0383"},
    {"min/batch1", Task::kMin, kBG, 1, 1,
     "meter=118859 it=47 cs=47 touched=7 stalled=0 co=0 gr=47 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,2,17,3,1,0,3,18,0,0,0,0, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=47/1411c005c3fd7e20 fb=14650fb0739d0383"},
    {"min/batch4", Task::kMin, kBG, 4, 1,
     "meter=112900 it=50 cs=18 touched=9 stalled=0 co=0 gr=50 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,2,16,4,2,0,3,18,1,0,0,1, w=2"
     " 40211a97974bf19c:40212019db78fe6c tie=0 tied="
     " dec=50/b44cfc6eec866011 fb=14650fb0739d0383"},
    {"min/calibrated", Task::kMin, kCal, 1, 1,
     "meter=118859 it=47 cs=47 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=47 cd=44 raw=0000000000000000 cor=407122ddb8bdc800"
     " its=3,2,17,3,1,0,3,18,0,0,0,0, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=47/2853b4e441e72235 fb=12642d23111de44c"},
    {"min/sentinel", Task::kMin, kSen, 1, 1,
     "meter=118861 it=49 cs=49 touched=9 stalled=0 co=0 gr=49 fi=0"
     " ces=49 cd=45 raw=0000000000000000 cor=4071c2ddb8bdc800"
     " its=3,2,17,3,1,0,3,18,1,0,0,1, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=49/4328e0e24b330193 fb=80ba18c454e97ef6"},
    {"min/coarse_greedy", Task::kMin, kG, 1, 2,
     "meter=118849 it=65 cs=29 touched=12 stalled=0 co=36 gr=29 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,3,17,3,3,3,3,18,3,3,3,3, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=29/4788bc3a33484f27 fb=14650fb0739d0383"},
    {"min/coarse_batch4", Task::kMin, kBG, 4, 2,
     "meter=118856 it=68 cs=15 touched=12 stalled=0 co=36 gr=32 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=4,3,17,5,3,3,3,18,3,3,3,3, w=2"
     " 40211ae62e7a0ed2:40211e345761e34f tie=0 tied="
     " dec=32/c46b0e0776872ee7 fb=14650fb0739d0383"},
    {"sum/greedy", Task::kSumScan, kG, 1, 1,
     "meter=3280324 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/5e622d107a36aabb fb=14650fb0739d0383"},
    {"sum/round_robin", Task::kSumScan, kRR, 1, 1,
     "meter=71566 it=151 cs=151 touched=11 stalled=0 co=0 gr=151 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=14,13,14,15,15,0,12,14,14,15,12,13,"
     " sum=4060d6738171d2dd:4060e525965a23d7 lim=0"
     " dec=151/86d806aba2241033 fb=14650fb0739d0383"},
    {"sum/random", Task::kSumScan, kRnd, 1, 1,
     "meter=938083 it=154 cs=154 touched=11 stalled=0 co=0 gr=154 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=14,13,10,17,23,0,12,14,15,13,12,11,"
     " sum=4060d7b94c2339e5:4060e700c825664b lim=0"
     " dec=154/10b70028e79d9665 fb=14650fb0739d0383"},
    {"sum/batch1", Task::kSumScan, kBG, 1, 1,
     "meter=3280324 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/5e622d107a36aabb fb=14650fb0739d0383"},
    {"sum/batch4", Task::kSumScan, kBG, 4, 1,
     "meter=3279350 it=175 cs=47 touched=11 stalled=0 co=0 gr=175 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,12,23,0,12,24,10,23,12,13,"
     " sum=4060d9b949f41eb2:4060e9a26f890e66 lim=0"
     " dec=175/bc446942706b4436 fb=14650fb0739d0383"},
    {"sum/calibrated", Task::kSumScan, kCal, 1, 1,
     "meter=3280323 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=174 cd=169 raw=0000000000000000 cor=40c56d80f43e47d8"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/edd8110899641460 fb=16fb80fdf0eed70b"},
    {"sum/sentinel", Task::kSumScan, kSen, 1, 1,
     "meter=3280332 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=174 cd=170 raw=0000000000000000 cor=40c56d80f43e47d8"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/e2088ffa61da4b86 fb=16fb80fdf0eed70b"},
    {"sum/coarse_greedy", Task::kSumScan, kG, 1, 2,
     "meter=3280054 it=177 cs=141 touched=12 stalled=0 co=36 gr=141 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,14,23,3,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=141/6420144754961cf0 fb=14650fb0739d0383"},
    {"sum/coarse_batch4", Task::kSumScan, kBG, 4, 2,
     "meter=3279310 it=178 cs=37 touched=12 stalled=0 co=36 gr=142 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,12,23,3,12,24,10,23,12,13,"
     " sum=4060d9b949f41eb2:4060e9a26f890e66 lim=0"
     " dec=142/28d2c99ba1d3e13d fb=14650fb0739d0383"},
    {"sum_heap/greedy", Task::kSumHeap, kG, 1, 1,
     "meter=3280152 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/a3e32ff69c0b4dc8 fb=14650fb0739d0383"},
    {"sum_heap/round_robin", Task::kSumHeap, kRR, 1, 1,
     "meter=71566 it=151 cs=151 touched=11 stalled=0 co=0 gr=151 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=14,13,14,15,15,0,12,14,14,15,12,13,"
     " sum=4060d6738171d2dd:4060e525965a23d7 lim=0"
     " dec=151/86d806aba2241033 fb=14650fb0739d0383"},
    {"sum_heap/random", Task::kSumHeap, kRnd, 1, 1,
     "meter=938083 it=154 cs=154 touched=11 stalled=0 co=0 gr=154 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=14,13,10,17,23,0,12,14,15,13,12,11,"
     " sum=4060d7b94c2339e5:4060e700c825664b lim=0"
     " dec=154/10b70028e79d9665 fb=14650fb0739d0383"},
    {"sum_heap/batch1", Task::kSumHeap, kBG, 1, 1,
     "meter=3280152 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/a3e32ff69c0b4dc8 fb=14650fb0739d0383"},
    {"sum_heap/batch4", Task::kSumHeap, kBG, 4, 1,
     "meter=3280306 it=175 cs=47 touched=11 stalled=0 co=0 gr=175 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,12,23,0,12,24,10,23,12,13,"
     " sum=4060d9b949f41eb2:4060e9a26f890e66 lim=0"
     " dec=175/8dad3ed90071ad71 fb=14650fb0739d0383"},
    {"sum_heap/calibrated", Task::kSumHeap, kCal, 1, 1,
     "meter=3280323 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=174 cd=169 raw=0000000000000000 cor=40c56d80f43e47d8"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/edd8110899641460 fb=16fb80fdf0eed70b"},
    {"sum_heap/sentinel", Task::kSumHeap, kSen, 1, 1,
     "meter=3280332 it=174 cs=174 touched=11 stalled=0 co=0 gr=174 fi=0"
     " ces=174 cd=170 raw=0000000000000000 cor=40c56d80f43e47d8"
     " its=16,13,17,14,23,0,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=174/e2088ffa61da4b86 fb=16fb80fdf0eed70b"},
    {"sum_heap/coarse_greedy", Task::kSumHeap, kG, 1, 2,
     "meter=3279963 it=177 cs=141 touched=12 stalled=0 co=36 gr=141 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,14,23,3,12,24,7,23,12,13,"
     " sum=4060d87944cdd401:4060e6a945edf2fe lim=0"
     " dec=141/a7bc5e139b11d55c fb=14650fb0739d0383"},
    {"sum_heap/coarse_batch4", Task::kSumHeap, kBG, 4, 2,
     "meter=3280123 it=178 cs=37 touched=12 stalled=0 co=36 gr=142 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,12,23,3,12,24,10,23,12,13,"
     " sum=4060d9b949f41eb2:4060e9a26f890e66 lim=0"
     " dec=142/cdb7192109a2477d fb=14650fb0739d0383"},
    {"topk/greedy", Task::kTopK, kG, 1, 1,
     "meter=3286764 it=161 cs=153 touched=11 stalled=0 co=0 gr=153 fi=8"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,2,23,12,12,24,0,19,12,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e35745600d81:4040e46b742ca2fd dec=161/45c026689272dd50"
     " fb=14650fb0739d0383"},
    // round_robin and random pick by position in the candidate list, so
    // they moved when the outsiders' order was fixed (upper bound
    // descending, lowest index first) instead of partial_sort's leftovers.
    {"topk/round_robin", Task::kTopK, kRR, 1, 1,
     "meter=2991 it=70 cs=45 touched=12 stalled=0 co=0 gr=45 fi=25 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=2,6,3,5,5,10,2,1,4,19,2,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e2c1d5615d06:4040e7129093b2f5 dec=70/c5a82de34d0df25d"
     " fb=14650fb0739d0383"},
    {"topk/random", Task::kTopK, kRnd, 1, 1,
     "meter=2647 it=60 cs=35 touched=10 stalled=0 co=0 gr=35 fi=25 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=1,0,3,4,4,10,1,0,5,19,2,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e2c1d5615d06:4040e7129093b2f5 dec=60/28c626e3169ebe2f"
     " fb=14650fb0739d0383"},
    {"topk/batch1", Task::kTopK, kBG, 1, 1,
     "meter=3286764 it=161 cs=153 touched=11 stalled=0 co=0 gr=153 fi=8"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,2,23,12,12,24,0,19,12,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e35745600d81:4040e46b742ca2fd dec=161/45c026689272dd50"
     " fb=14650fb0739d0383"},
    {"topk/batch4", Task::kTopK, kBG, 4, 1,
     "meter=363269 it=152 cs=36 touched=12 stalled=0 co=0 gr=144 fi=8"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=16,13,17,2,18,12,12,19,1,19,12,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e35745600d81:4040e46b742ca2fd dec=152/493618e7d9df2e6e"
     " fb=14650fb0739d0383"},
    {"topk/calibrated", Task::kTopK, kCal, 1, 1,
     "meter=3286761 it=161 cs=153 touched=11 stalled=0 co=0 gr=153 fi=8"
     " ces=161 cd=155 raw=0000000000000000 cor=40c55243543e47d8"
     " its=16,13,17,2,23,12,12,24,0,19,12,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e35745600d81:4040e46b742ca2fd dec=161/b8cb6c14e890b80a"
     " fb=546d3cdf945dc7a9"},
    // sentinel moved when a pending probe among the rank-ordered candidates
    // stopped being missed: object 8's probe now runs.
    {"topk/sentinel", Task::kTopK, kSen, 1, 1,
     "meter=3286779 it=162 cs=154 touched=12 stalled=0 co=0 gr=154 fi=8"
     " ces=162 cd=158 raw=0000000000000000 cor=40c55743543e47d8"
     " its=16,13,17,2,23,12,12,24,1,19,12,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e35745600d81:4040e46b742ca2fd dec=162/51df00d5c0da040c"
     " fb=c840ef17977d17f8"},
    {"topk/coarse_greedy", Task::kTopK, kG, 1, 2,
     "meter=2389 it=67 cs=0 touched=12 stalled=0 co=36 gr=0 fi=31 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,3,3,3,3,10,3,3,3,19,3,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e2c1d5615d06:4040e7129093b2f5 dec=31/d0e77e58e5fc5343"
     " fb=14650fb0739d0383"},
    {"topk/coarse_batch4", Task::kTopK, kBG, 4, 2,
     "meter=2389 it=67 cs=0 touched=12 stalled=0 co=36 gr=0 fi=31 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=3,3,3,3,3,10,3,3,3,19,3,11, tie=0 w="
     " 11@4042ccd81cef96de:4042d076bf307625"
     " 9@40423354cdf2ad2a:4042381052e1ec3b"
     " 5@4040e2c1d5615d06:4040e7129093b2f5 dec=31/d0e77e58e5fc5343"
     " fb=14650fb0739d0383"},
};

TEST(AggregatePinTest, ExactBehaviourIsUnchanged) {
  obs::SetTraceRingCapacity(1 << 16);
  obs::SetTraceMode(obs::TraceMode::kFlight);
  for (const PinCase& pin : kCases) {
    EXPECT_EQ(RunCase(pin), pin.expected) << pin.name;
  }
  obs::SetTraceMode(obs::TraceMode::kOff);
}

// --- TOP-K edge pins -------------------------------------------------------

// Objects in blocks of four identical ones (every upper bound and score in a
// block ties), every ninth of zero width (converged from the start), and
// object 1, in the top block, never shrinks until its stall guard trips.
std::vector<std::unique_ptr<SyntheticResultObject>> MakeEdgeObjects(
    std::size_t n, WorkMeter* meter) {
  std::vector<std::unique_ptr<SyntheticResultObject>> objects;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t key = i / 4;
    SyntheticResultObject::Config config;
    config.true_value =
        110.0 - 0.06 * static_cast<double>(key * 7919 % 997);
    config.initial_half_width =
        i % 9 == 4 ? 0.0 : 3.0 + static_cast<double>(key % 5);
    config.shrink = i == 1 ? 1.0 : 0.5;
    config.skew = 0.25 + 0.125 * static_cast<double>(key % 5);
    config.min_width = 0.01;
    config.cost_per_iteration = 1 + key % 3;
    config.honest_estimates = key % 6 != 5;
    config.meter = meter;
    objects.push_back(std::make_unique<SyntheticResultObject>(config));
  }
  return objects;
}

struct TopKEdgeCase {
  const char* name;
  std::size_t n;
  std::size_t k;
  ExtremeKind kind;
  StrategyKind strategy;
  const char* expected;
};

std::string RunTopKEdgeCase(const TopKEdgeCase& pin) {
  WorkMeter meter;
  auto owned = MakeEdgeObjects(pin.n, &meter);
  std::vector<vao::ResultObject*> objects;
  for (auto& object : owned) objects.push_back(object.get());

  obs::ClearTrace();
  TopKOptions options;
  options.strategy = pin.strategy;
  options.meter = &meter;
  options.epsilon = 0.05;
  options.k = pin.k;
  options.kind = pin.kind;
  const auto outcome = TopKVao(options).Evaluate(objects);
  if (!outcome.ok()) return outcome.status().ToString();

  Fnv decisions;
  std::uint64_t decision_count = 0;
  const obs::TraceSnapshot trace = obs::SnapshotTrace();
  for (const obs::TraceEvent& event : trace.events) {
    if (event.kind != obs::TraceEvent::Kind::kDecision) continue;
    ++decision_count;
    decisions.Add(event.object_index);
    decisions.Add(event.lo_after);
    decisions.Add(event.hi_after);
    decisions.Add(event.score);
  }
  EXPECT_EQ(trace.dropped, 0u) << pin.name;
  Fnv iterations;
  for (const auto& object : owned) {
    iterations.Add(static_cast<std::uint64_t>(object->iterations()));
  }
  Fnv winners;
  for (std::size_t j = 0; j < outcome->winners.size(); ++j) {
    winners.Add(static_cast<std::uint64_t>(outcome->winners[j]));
    winners.Add(outcome->winner_bounds[j].lo);
    winners.Add(outcome->winner_bounds[j].hi);
  }
  std::string first;
  for (std::size_t j = 0; j < std::min<std::size_t>(5, pin.k); ++j) {
    first += " " + std::to_string(outcome->winners[j]) + "@" +
             BoundsLine(outcome->winner_bounds[j]);
  }
  char digests[96];
  std::snprintf(digests, sizeof(digests),
                "its=%016llx win=%016llx dec=%llu/%016llx",
                static_cast<unsigned long long>(iterations.hash),
                static_cast<unsigned long long>(winners.hash),
                static_cast<unsigned long long>(decision_count),
                static_cast<unsigned long long>(decisions.hash));
  return "meter=" + std::to_string(meter.Total()) + " " +
         StatsLine(outcome->stats) + " tie=" + std::to_string(outcome->tie) +
         " w=" + first + " " + digests;
}

constexpr ExtremeKind kHigh = ExtremeKind::kMax;
constexpr ExtremeKind kLow = ExtremeKind::kMin;

const TopKEdgeCase kTopKEdgeCases[] = {
    {"topk_edge/top3", 48, 3, kHigh, kG,
     "meter=215 it=43 cs=43 touched=4 stalled=1 co=0 gr=43 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000 tie=1 w="
     " 1@405b200000000000:405ca00000000000"
     " 0@405b7fe800000000:405b804800000000"
     " 2@405b7fe800000000:405b804800000000 its=bb689797a5d12764"
     " win=1401ef5ec68b463b dec=43/9b530a64fed5d164"},
    {"topk_edge/bottom3", 48, 3, kLow, kG,
     "meter=580 it=51 cs=51 touched=14 stalled=0 co=0 gr=51 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000 tie=1 w="
     " 5@404acc6ccccccccd:404acd6ccccccccd"
     " 6@404acc6ccccccccd:404acd6ccccccccd"
     " 7@404acc6ccccccccd:404acd6ccccccccd its=13648b2d9df306aa"
     " win=8d11925355e22bfc dec=51/027c1b6fdbbd7ccc"},
    {"topk_edge/top3_round_robin", 48, 3, kHigh, kRR,
     "meter=215 it=43 cs=43 touched=4 stalled=1 co=0 gr=43 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000 tie=1 w="
     " 1@405b200000000000:405ca00000000000"
     " 0@405b7fe800000000:405b804800000000"
     " 2@405b7fe800000000:405b804800000000 its=bb689797a5d12764"
     " win=1401ef5ec68b463b dec=43/bf927f521682d249"},
    {"topk_edge/k1", 48, 1, kHigh, kG,
     "meter=215 it=43 cs=43 touched=4 stalled=1 co=0 gr=43 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000 tie=1 w="
     " 1@405b200000000000:405ca00000000000 its=bb689797a5d12764"
     " win=2dc489a916ac149d dec=43/7c5c6273b173c4bf"},
    {"topk_edge/k_n_minus_1", 48, 47, kHigh, kG,
     "meter=986 it=354 cs=41 touched=43 stalled=1 co=0 gr=41 fi=313"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000 tie=1 w="
     " 1@405b200000000000:405ca00000000000"
     " 2@405b7f4000000000:405b824000000000"
     " 3@405b7f4000000000:405b824000000000"
     " 0@405b7f4000000000:405b824000000000"
     " 44@4055f27333333333:4055f47333333333 its=797d8b6c2f534483"
     " win=7b2dc35330a6b5c0 dec=354/5b229f4519a02c2e"},
    {"topk_edge/k_n", 48, 48, kHigh, kG,
     "meter=687 it=348 cs=0 touched=43 stalled=1 co=0 gr=0 fi=348 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000 tie=0 w="
     " 1@405b200000000000:405ca00000000000"
     " 2@405b7f4000000000:405b824000000000"
     " 3@405b7f4000000000:405b824000000000"
     " 0@405b7f4000000000:405b824000000000"
     " 44@4055f27333333333:4055f47333333333 its=99bf0ef65c719c01"
     " win=e3cfff6d4d4a769f dec=348/0aff9d1ad170c84a"},
    {"topk_edge/n2000_top5", 2000, 5, kHigh, kG,
     "meter=488572 it=2033 cs=2033 touched=294 stalled=1 co=0 gr=2033"
     " fi=0 ces=0 cd=0 raw=0000000000000000 cor=0000000000000000 tie=1"
     " w= 1@405b200000000000:405ca00000000000"
     " 0@405b7fe800000000:405b804800000000"
     " 2@405b7fe800000000:405b804800000000"
     " 3@405b7fe800000000:405b804800000000"
     " 1888@405b461666666666:405b46b666666666 its=875059135f9cb602"
     " win=3b6413d19cdc1704 dec=2033/983d17a369854e2f"},
    {"topk_edge/n2000_bottom5", 2000, 5, kLow, kG,
     "meter=625959 it=2249 cs=2249 touched=364 stalled=0 co=0 gr=2249"
     " fi=0 ces=0 cd=0 raw=0000000000000000 cor=0000000000000000 tie=1"
     " w= 140@40491d3851eb851f:4049233851eb851f"
     " 141@40491d3851eb851f:4049233851eb851f"
     " 142@40491d3851eb851f:4049233851eb851f"
     " 143@40491d3851eb851f:4049233851eb851f"
     " 280@4049263666666667:404926f666666667 its=f24b2bf296c6e06c"
     " win=de2de62c32994a90 dec=2249/fcb9fc431f257320"},
};

TEST(AggregatePinTest, TopKEdgeBehaviourIsUnchanged) {
  obs::SetTraceRingCapacity(1 << 16);
  obs::SetTraceMode(obs::TraceMode::kFlight);
  for (const TopKEdgeCase& pin : kTopKEdgeCases) {
    EXPECT_EQ(RunTopKEdgeCase(pin), pin.expected) << pin.name;
  }
  obs::SetTraceMode(obs::TraceMode::kOff);
}

// --- CqExecutor pins -------------------------------------------------------

enum class CqKind {
  kMin,
  kMax,
  kSum,
  kAve,
  kTopK,
  kApproxSum,
  kApproxAve,
  kApproxTopK,
  kFailingSelect,  ///< the failing-Invoke function under SELECT
  kFailingSum,     ///< the failing-Invoke function under SUM
};

struct CqPinCase {
  const char* name;
  CqKind kind;
  int threads;
  engine::ResiliencePolicy policy;
  const char* expected;
};

constexpr std::size_t kFailingRow = 5;

// The synthetic table function, except that the first Invoke() of
// kFailingRow fails with a NumericError; later ones (the kDegrade black-box
// fallback's) succeed.
class FailOnceFunction : public vao::VariableAccuracyFunction {
 public:
  explicit FailOnceFunction(const vao::VariableAccuracyFunction* inner)
      : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  int arity() const override { return inner_->arity(); }
  Result<vao::ResultObjectPtr> Invoke(const std::vector<double>& args,
                                      WorkMeter* meter) const override {
    if (args[0] == static_cast<double>(kFailingRow) &&
        !failed_.exchange(true)) {
      return Status::NumericError("injected Invoke() failure");
    }
    return inner_->Invoke(args, meter);
  }

 private:
  const vao::VariableAccuracyFunction* inner_;
  mutable std::atomic<bool> failed_{false};
};

std::string CqMeterLine(const WorkMeter& meter) {
  return "work=" + std::to_string(meter.Count(WorkKind::kExec)) + "/" +
         std::to_string(meter.Count(WorkKind::kGetState)) + "/" +
         std::to_string(meter.Count(WorkKind::kStoreState)) + "/" +
         std::to_string(meter.Count(WorkKind::kChooseIter));
}

std::string RowsLine(const std::vector<std::size_t>& rows) {
  std::string line;
  for (const std::size_t row : rows) line += std::to_string(row) + ",";
  return line;
}

engine::Query MakeCqQuery(CqKind kind,
                          const vao::VariableAccuracyFunction* function) {
  engine::Query::Builder query(function);
  query.Args({engine::ArgRef::RelationField("id")});
  engine::ApproxSpec approx;
  approx.seed = 11;
  approx.initial_samples = 8;
  approx.target_rel_error = 0.15;
  switch (kind) {
    case CqKind::kMin:
      query.Min().Epsilon(0.05);
      break;
    case CqKind::kMax:
      query.Max().Epsilon(0.05);
      break;
    case CqKind::kSum:
    case CqKind::kFailingSum:
      query.Sum().WeightColumn("weight").Epsilon(2.0);
      break;
    case CqKind::kAve:
      query.Ave().Epsilon(0.5);
      break;
    case CqKind::kTopK:
      query.TopK(3).Epsilon(0.05);
      break;
    case CqKind::kApproxSum:
      approx.max_samples = 32;
      query.Sum().WeightColumn("weight").Epsilon(2.0).Approximate(approx);
      break;
    case CqKind::kApproxAve:
      approx.max_samples = 32;
      query.Ave().Epsilon(0.5).Approximate(approx);
      break;
    case CqKind::kApproxTopK:
      approx.max_samples = 16;
      query.TopK(3).Epsilon(0.05).Approximate(approx);
      break;
    case CqKind::kFailingSelect:
      query.Select(Comparator::kGreaterThan, 60.0);
      break;
  }
  return query.Build();
}

// Runs one case through a fresh CqExecutor and renders what it pins.
std::string RunCqCase(const vaolib::testing::Workload& workload,
                      const CqPinCase& pin) {
  const FailOnceFunction failing(workload.function.get());
  const bool fails = pin.kind == CqKind::kFailingSelect ||
                     pin.kind == CqKind::kFailingSum;
  const vao::VariableAccuracyFunction* function =
      fails ? static_cast<const vao::VariableAccuracyFunction*>(&failing)
            : workload.function.get();
  auto executor = engine::CqExecutor::Create(
      &workload.relation, engine::Schema{}, MakeCqQuery(pin.kind, function),
      engine::ExecutionMode::kVao, pin.threads, pin.policy);
  if (!executor.ok()) return executor.status().ToString();
  const auto tick = (*executor)->ProcessTick({});
  const std::string meter = CqMeterLine((*executor)->meter());
  if (!tick.ok()) {
    return meter + " err=" +
           std::to_string(static_cast<int>(tick.status().code()));
  }
  const vao::Answer& answer = tick->aggregate_bounds;
  std::string top;
  for (std::size_t j = 0; j < tick->top_rows.size(); ++j) {
    top += std::to_string(tick->top_rows[j]) + "@" +
           BoundsLine(tick->top_bounds[j]) + ",";
  }
  return meter + " wu=" + std::to_string(tick->work_units) +
         " deg=" + std::to_string(tick->degraded) + "/" +
         std::to_string(static_cast<int>(tick->degradation_cause.code())) +
         " ans=" + BoundsLine(answer) + " n=" +
         std::to_string(answer.sample_size) +
         " w=" + std::to_string(tick->winner_row.value_or(~0ULL)) +
         " top=" + top + " pass=" + RowsLine(tick->passing_rows) +
         " quar=" + RowsLine(tick->quarantined_rows) +
         " it=" + std::to_string(tick->report.iterations) +
         " cs=" + std::to_string(tick->report.choose_steps) +
         " rs=" + std::to_string(tick->report.rows_scanned);
}

constexpr auto kStrict = engine::ResiliencePolicy::kStrict;
constexpr auto kDegrade = engine::ResiliencePolicy::kDegrade;

const CqPinCase kCqCases[] = {
    {"cq/min/t1/strict", CqKind::kMin, 1, kStrict,
     "work=77549/0/0/1326 wu=78875 deg=0/0"
     " ans=403497894baf5aef:4034999c8cbf8c2b n=0 w=41 top= pass="
     " quar= it=100 cs=100 rs=64"},
    {"cq/min/t2/strict", CqKind::kMin, 2, kStrict,
     "work=79108/0/0/100 wu=79208 deg=0/0"
     " ans=403497894baf5aef:4034999c8cbf8c2b n=0 w=41 top= pass="
     " quar= it=284 cs=28 rs=64"},
    {"cq/min/t1/degrade", CqKind::kMin, 1, kDegrade,
     "work=77549/0/0/1326 wu=78875 deg=0/0"
     " ans=403497894baf5aef:4034999c8cbf8c2b n=0 w=41 top= pass="
     " quar= it=100 cs=100 rs=64"},
    {"cq/min/t2/degrade", CqKind::kMin, 2, kDegrade,
     "work=79108/0/0/100 wu=79208 deg=0/0"
     " ans=403497894baf5aef:4034999c8cbf8c2b n=0 w=41 top= pass="
     " quar= it=284 cs=28 rs=64"},
    {"cq/max/t1/strict", CqKind::kMax, 1, kStrict,
     "work=723/0/0/539 wu=1262 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11 top= pass="
     " quar= it=47 cs=44 rs=64"},
    {"cq/max/t2/strict", CqKind::kMax, 2, kStrict,
     "work=2881/0/0/8 wu=2889 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11 top= pass="
     " quar= it=262 cs=3 rs=64"},
    {"cq/max/t1/degrade", CqKind::kMax, 1, kDegrade,
     "work=723/0/0/539 wu=1262 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11 top= pass="
     " quar= it=47 cs=44 rs=64"},
    {"cq/max/t2/degrade", CqKind::kMax, 2, kDegrade,
     "work=2881/0/0/8 wu=2889 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11 top= pass="
     " quar= it=262 cs=3 rs=64"},
    {"cq/sum/t1/strict", CqKind::kSum, 1, kStrict,
     "work=326268/0/0/12026 wu=338294 deg=0/0"
     " ans=40af5a179c221026:40af5e02205de6c3 n=0"
     " w=18446744073709551615 top= pass= quar= it=859 cs=859 rs=64"},
    {"cq/sum/t2/strict", CqKind::kSum, 2, kStrict,
     "work=326268/0/0/8540 wu=334808 deg=0/0"
     " ans=40af5a179c221026:40af5e02205de6c3 n=0"
     " w=18446744073709551615 top= pass= quar= it=859 cs=610 rs=64"},
    {"cq/sum/t1/degrade", CqKind::kSum, 1, kDegrade,
     "work=326268/0/0/12026 wu=338294 deg=0/0"
     " ans=40af5a179c221026:40af5e02205de6c3 n=0"
     " w=18446744073709551615 top= pass= quar= it=859 cs=859 rs=64"},
    {"cq/sum/t2/degrade", CqKind::kSum, 2, kDegrade,
     "work=326268/0/0/8540 wu=334808 deg=0/0"
     " ans=40af5a179c221026:40af5e02205de6c3 n=0"
     " w=18446744073709551615 top= pass= quar= it=859 cs=610 rs=64"},
    {"cq/ave/t1/strict", CqKind::kAve, 1, kStrict,
     "work=18760/0/0/8736 wu=27496 deg=0/0"
     " ans=404d3da8f02c4a77:404d7d744d390b40 n=0"
     " w=18446744073709551615 top= pass= quar= it=624 cs=624 rs=64"},
    {"cq/ave/t2/strict", CqKind::kAve, 2, kStrict,
     "work=18760/0/0/5166 wu=23926 deg=0/0"
     " ans=404d3da8f02c4a77:404d7d744d390b40 n=0"
     " w=18446744073709551615 top= pass= quar= it=624 cs=369 rs=64"},
    {"cq/ave/t1/degrade", CqKind::kAve, 1, kDegrade,
     "work=18760/0/0/8736 wu=27496 deg=0/0"
     " ans=404d3da8f02c4a77:404d7d744d390b40 n=0"
     " w=18446744073709551615 top= pass= quar= it=624 cs=624 rs=64"},
    {"cq/ave/t2/degrade", CqKind::kAve, 2, kDegrade,
     "work=18760/0/0/5166 wu=23926 deg=0/0"
     " ans=404d3da8f02c4a77:404d7d744d390b40 n=0"
     " w=18446744073709551615 top= pass= quar= it=624 cs=369 rs=64"},
    {"cq/topk/t1/strict", CqKind::kTopK, 1, kStrict,
     "work=32157/0/0/4175 wu=36332 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11"
     " top=11@4058fb2070c48dd7:4058fd156d82bbad,"
     "15@4058ae18d8d26d40:4058af5b653c8576,"
     "36@40588ae20766ce96:40588d98c48027b7,"
     " pass= quar= it=146 cs=137 rs=64"},
    {"cq/topk/t2/strict", CqKind::kTopK, 2, kStrict,
     "work=32157/0/0/4175 wu=36332 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11"
     " top=11@4058fb2070c48dd7:4058fd156d82bbad,"
     "15@4058ae18d8d26d40:4058af5b653c8576,"
     "36@40588ae20766ce96:40588d98c48027b7,"
     " pass= quar= it=146 cs=137 rs=64"},
    {"cq/topk/t1/degrade", CqKind::kTopK, 1, kDegrade,
     "work=32157/0/0/4175 wu=36332 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11"
     " top=11@4058fb2070c48dd7:4058fd156d82bbad,"
     "15@4058ae18d8d26d40:4058af5b653c8576,"
     "36@40588ae20766ce96:40588d98c48027b7,"
     " pass= quar= it=146 cs=137 rs=64"},
    {"cq/topk/t2/degrade", CqKind::kTopK, 2, kDegrade,
     "work=32157/0/0/4175 wu=36332 deg=0/0"
     " ans=4058fb2070c48dd7:4058fd156d82bbad n=0 w=11"
     " top=11@4058fb2070c48dd7:4058fd156d82bbad,"
     "15@4058ae18d8d26d40:4058af5b653c8576,"
     "36@40588ae20766ce96:40588d98c48027b7,"
     " pass= quar= it=146 cs=137 rs=64"},
    {"cq/approx_sum/t1/strict", CqKind::kApproxSum, 1, kStrict,
     "work=120157372/0/0/0 wu=120157372 deg=1/6"
     " ans=40a8bc48029a5273:40b76121b40f6912 n=32"
     " w=18446744073709551615 top= pass= quar= it=530 cs=538 rs=32"},
    {"cq/approx_sum/t2/strict", CqKind::kApproxSum, 2, kStrict,
     "work=120157372/0/0/0 wu=120157372 deg=1/6"
     " ans=40a8bc48029a5273:40b76121b40f6912 n=32"
     " w=18446744073709551615 top= pass= quar= it=530 cs=538 rs=32"},
    {"cq/approx_sum/t1/degrade", CqKind::kApproxSum, 1, kDegrade,
     "work=120157372/0/0/0 wu=120157372 deg=1/6"
     " ans=40a8bc48029a5273:40b76121b40f6912 n=32"
     " w=18446744073709551615 top= pass= quar= it=530 cs=538 rs=32"},
    {"cq/approx_sum/t2/degrade", CqKind::kApproxSum, 2, kDegrade,
     "work=120157372/0/0/0 wu=120157372 deg=1/6"
     " ans=40a8bc48029a5273:40b76121b40f6912 n=32"
     " w=18446744073709551615 top= pass= quar= it=530 cs=538 rs=32"},
    {"cq/approx_ave/t1/strict", CqKind::kApproxAve, 1, kStrict,
     "work=110708078/0/0/0 wu=110708078 deg=0/0"
     " ans=40483e40fd12c303:40505b91f1e09474 n=22"
     " w=18446744073709551615 top= pass= quar= it=337 cs=342 rs=22"},
    {"cq/approx_ave/t2/strict", CqKind::kApproxAve, 2, kStrict,
     "work=110708078/0/0/0 wu=110708078 deg=0/0"
     " ans=40483e40fd12c303:40505b91f1e09474 n=22"
     " w=18446744073709551615 top= pass= quar= it=337 cs=342 rs=22"},
    {"cq/approx_ave/t1/degrade", CqKind::kApproxAve, 1, kDegrade,
     "work=110708078/0/0/0 wu=110708078 deg=0/0"
     " ans=40483e40fd12c303:40505b91f1e09474 n=22"
     " w=18446744073709551615 top= pass= quar= it=337 cs=342 rs=22"},
    {"cq/approx_ave/t2/degrade", CqKind::kApproxAve, 2, kDegrade,
     "work=110708078/0/0/0 wu=110708078 deg=0/0"
     " ans=40483e40fd12c303:40505b91f1e09474 n=22"
     " w=18446744073709551615 top= pass= quar= it=337 cs=342 rs=22"},
    {"cq/approx_topk/t1/strict", CqKind::kApproxTopK, 1, kStrict,
     "work=28040/0/0/393 wu=28433 deg=0/0"
     " ans=40588ae20766ce96:40588d98c48027b7 n=16 w=36"
     " top=36@40588ae20766ce96:40588d98c48027b7,"
     "22@4057b38b929e92be:4057b564f34d5f78,"
     "43@40579f97ececa515:4057a1bcf183e5e6,"
     " pass= quar= it=59 cs=38 rs=16"},
    {"cq/approx_topk/t2/strict", CqKind::kApproxTopK, 2, kStrict,
     "work=28040/0/0/393 wu=28433 deg=0/0"
     " ans=40588ae20766ce96:40588d98c48027b7 n=16 w=36"
     " top=36@40588ae20766ce96:40588d98c48027b7,"
     "22@4057b38b929e92be:4057b564f34d5f78,"
     "43@40579f97ececa515:4057a1bcf183e5e6,"
     " pass= quar= it=59 cs=38 rs=16"},
    {"cq/approx_topk/t1/degrade", CqKind::kApproxTopK, 1, kDegrade,
     "work=28040/0/0/393 wu=28433 deg=0/0"
     " ans=40588ae20766ce96:40588d98c48027b7 n=16 w=36"
     " top=36@40588ae20766ce96:40588d98c48027b7,"
     "22@4057b38b929e92be:4057b564f34d5f78,"
     "43@40579f97ececa515:4057a1bcf183e5e6,"
     " pass= quar= it=59 cs=38 rs=16"},
    {"cq/approx_topk/t2/degrade", CqKind::kApproxTopK, 2, kDegrade,
     "work=28040/0/0/393 wu=28433 deg=0/0"
     " ans=40588ae20766ce96:40588d98c48027b7 n=16 w=36"
     " top=36@40588ae20766ce96:40588d98c48027b7,"
     "22@4057b38b929e92be:4057b564f34d5f78,"
     "43@40579f97ececa515:4057a1bcf183e5e6,"
     " pass= quar= it=59 cs=38 rs=16"},
    {"cq/failing_select/t1/strict", CqKind::kFailingSelect, 1, kStrict,
     "work=774/0/0/0 err=8"},
    {"cq/failing_select/t2/strict", CqKind::kFailingSelect, 2, kStrict,
     "work=774/0/0/0 err=8"},
    {"cq/failing_select/t1/degrade", CqKind::kFailingSelect, 1, kDegrade,
     "work=774/0/0/0 wu=774 deg=1/8"
     " ans=0000000000000000:0000000000000000 n=0"
     " w=18446744073709551615 top="
     " pass=1,9,11,13,15,17,20,22,23,24,25,26,28,30,31,32,34,36,37,43,44,46,"
     "47,48,52,55,57,59,63,"
     " quar=5, it=78 cs=0 rs=64"},
    {"cq/failing_select/t2/degrade", CqKind::kFailingSelect, 2, kDegrade,
     "work=774/0/0/0 wu=774 deg=1/8"
     " ans=0000000000000000:0000000000000000 n=0"
     " w=18446744073709551615 top="
     " pass=1,9,11,13,15,17,20,22,23,24,25,26,28,30,31,32,34,36,37,43,44,46,"
     "47,48,52,55,57,59,63,"
     " quar=5, it=78 cs=0 rs=64"},
    {"cq/failing_sum/t1/strict", CqKind::kFailingSum, 1, kStrict,
     "work=0/0/0/0 err=8"},
    {"cq/failing_sum/t2/strict", CqKind::kFailingSum, 2, kStrict,
     "work=0/0/0/0 err=8"},
    {"cq/failing_sum/t1/degrade", CqKind::kFailingSum, 1, kDegrade,
     "work=256129830/0/0/0 wu=256129830 deg=1/8"
     " ans=40af5c3f8e88cc68:40af5c3f8e88cc68 n=0"
     " w=18446744073709551615 top= pass= quar= it=0 cs=0 rs=64"},
    {"cq/failing_sum/t2/degrade", CqKind::kFailingSum, 2, kDegrade,
     "work=256129830/0/0/0 wu=256129830 deg=1/8"
     " ans=40af5c3f8e88cc68:40af5c3f8e88cc68 n=0"
     " w=18446744073709551615 top= pass= quar= it=0 cs=0 rs=64"},
};

TEST(AggregatePinTest, CqExecutorBehaviourIsUnchanged) {
  vaolib::testing::WorkloadSpec spec;
  spec.rows = 64;
  spec.value_lo = 20.0;  // positive: the APPROX error targets are reachable
  const vaolib::testing::Workload workload =
      vaolib::testing::MakeWorkload(spec, 20261018);
  for (const CqPinCase& pin : kCqCases) {
    EXPECT_EQ(RunCqCase(workload, pin), pin.expected) << pin.name;
  }
}

}  // namespace
}  // namespace vaolib::operators
