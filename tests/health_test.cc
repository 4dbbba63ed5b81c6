// Copyright 2026 The vaolib Authors.
// Tests for the runtime health plane (src/obs/health.h): windowed metric
// views, per-query progress rings with ETA extrapolation, and multi-window
// burn-rate SLO monitors including the flight-recorder arming path.

#include "obs/health.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vaolib::obs {
namespace {

// Metric mutations are gated on the global obs switch; pin it on so these
// tests do not depend on suite ordering or VAOLIB_OBS in the environment.
class ObsEnabledEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { SetEnabled(true); }
};
const auto* const kObsEnv =
    ::testing::AddGlobalTestEnvironment(new ObsEnabledEnvironment);

// ---------------------------------------------------------------- windows

TEST(WindowedViewTest, CounterDeltasOverLastKEpochs) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("requests_total");
  WindowedView view(&registry);

  counter->Add(5);
  view.Advance();  // epoch 1: +5
  counter->Add(7);
  view.Advance();  // epoch 2: +7
  counter->Add(1);
  view.Advance();  // epoch 3: +1

  EXPECT_EQ(view.epochs(), 3u);
  EXPECT_EQ(view.total_advances(), 3u);
  EXPECT_EQ(view.CounterDelta("requests_total", {}, 1), 1u);
  EXPECT_EQ(view.CounterDelta("requests_total", {}, 2), 8u);
  EXPECT_EQ(view.CounterDelta("requests_total", {}, 3), 13u);
  // k = 0 and k > epochs() both clamp to "all retained".
  EXPECT_EQ(view.CounterDelta("requests_total", {}, 0), 13u);
  EXPECT_EQ(view.CounterDelta("requests_total", {}, 99), 13u);
}

TEST(WindowedViewTest, UnknownAndMidSpanCountersReadAsZeroBased) {
  MetricsRegistry registry;
  WindowedView view(&registry);
  view.Advance();
  EXPECT_EQ(view.CounterDelta("never_registered", {}, 1), 0u);

  // A counter born mid-span reads as starting from zero.
  registry.GetCounter("late_total")->Add(4);
  view.Advance();
  EXPECT_EQ(view.CounterDelta("late_total", {}, 2), 4u);
}

TEST(WindowedViewTest, LabeledIdentitiesAreDistinct) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("shed_total", {{"reason", "overload"}});
  Counter* b = registry.GetCounter("shed_total", {{"reason", "quota"}});
  WindowedView view(&registry);
  a->Add(3);
  b->Add(9);
  view.Advance();
  EXPECT_EQ(view.CounterDelta("shed_total", {{"reason", "overload"}}, 1),
            3u);
  EXPECT_EQ(view.CounterDelta("shed_total", {{"reason", "quota"}}, 1), 9u);
  EXPECT_EQ(view.CounterDelta("shed_total", {}, 1), 0u);
}

TEST(WindowedViewTest, RingWrapKeepsOnlyWindowCountEpochs) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("ticks_total");
  WindowedView::Options options;
  options.window_count = 3;
  WindowedView view(&registry, options);

  for (int i = 0; i < 10; ++i) {
    counter->Add(1);
    view.Advance();
  }
  EXPECT_EQ(view.epochs(), 3u);
  EXPECT_EQ(view.total_advances(), 10u);
  // The retained window only spans the last 3 epochs (+1 each).
  EXPECT_EQ(view.CounterDelta("ticks_total", {}, 0), 3u);
}

TEST(WindowedViewTest, TickRatePerEpochAndClockRatePerSecond) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("work_total");
  WindowedView view(&registry);

  counter->Add(10);
  view.Advance();
  counter->Add(30);
  view.Advance();
  // No clocks anywhere: rate is per closed epoch.
  EXPECT_DOUBLE_EQ(view.CounterRate("work_total", {}, 2), 20.0);

  WindowedView clocked(&registry);
  counter->Add(100);
  clocked.Advance(5.0);
  counter->Add(100);
  clocked.Advance(15.0);
  // Both endpoints carry injected timestamps: per second.
  EXPECT_DOUBLE_EQ(clocked.CounterRate("work_total", {}, 1), 10.0);
  // The span back to the (clock-less) baseline falls back to per-epoch.
  EXPECT_DOUBLE_EQ(clocked.CounterRate("work_total", {}, 2), 100.0);
}

TEST(WindowedViewTest, HistogramDeltasIsolateTheWindow) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("latency", {}, {1.0, 2.0, 4.0});
  WindowedView view(&registry);

  histogram->Observe(0.5);
  histogram->Observe(3.0);
  view.Advance();  // epoch 1: two observations
  histogram->Observe(1.5);
  view.Advance();  // epoch 2: one observation

  EXPECT_EQ(view.HistogramCountDelta("latency", {}, 1), 1u);
  EXPECT_EQ(view.HistogramCountDelta("latency", {}, 2), 3u);
  EXPECT_DOUBLE_EQ(view.HistogramSumDelta("latency", {}, 1), 1.5);
  EXPECT_DOUBLE_EQ(view.HistogramSumDelta("latency", {}, 2), 5.0);

  // The epoch-2 window holds exactly one observation in (1, 2]; any
  // quantile lands inside that bucket.
  const double q = view.HistogramQuantile("latency", {}, 0.5, 1);
  EXPECT_GT(q, 1.0);
  EXPECT_LE(q, 2.0);
  // Empty span and unknown metric answer 0.
  EXPECT_DOUBLE_EQ(view.HistogramQuantile("nope", {}, 0.5, 1), 0.0);
}

TEST(WindowedViewTest, QuantileOverDeltasTracksRecentShift) {
  MetricsRegistry registry;
  Histogram* histogram =
      registry.GetHistogram("work", {}, {10.0, 100.0, 1000.0});
  WindowedView view(&registry);

  for (int i = 0; i < 100; ++i) histogram->Observe(5.0);
  view.Advance();
  for (int i = 0; i < 100; ++i) histogram->Observe(500.0);
  view.Advance();

  // Over the last epoch only, p50 sits in the (100, 1000] bucket even
  // though the cumulative histogram is dominated by small values.
  EXPECT_GT(view.HistogramQuantile("work", {}, 0.5, 1), 100.0);
  // Over both epochs the small observations pull p25 back down.
  EXPECT_LE(view.HistogramQuantile("work", {}, 0.25, 2), 10.0);
}

// --------------------------------------------------------------- progress

ProgressSample Sample(std::uint64_t tick, double width,
                      std::uint64_t work = 100, bool converged = false,
                      bool limited = false) {
  ProgressSample sample;
  sample.tick = tick;
  sample.width = width;
  sample.rel_width = width;
  sample.work_spent = work;
  sample.converged = converged;
  sample.limited_by_min_width = limited;
  return sample;
}

TEST(ProgressRingTest, BoundedRingKeepsNewestSamples) {
  ProgressRing ring(3);
  for (std::uint64_t t = 0; t < 5; ++t) {
    ring.Record(Sample(t, 10.0 - static_cast<double>(t)));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.at(0).tick, 2u);  // oldest retained
  EXPECT_EQ(ring.newest().tick, 4u);
}

TEST(ProgressRingTest, EtaExtrapolatesGeometricShrink) {
  ProgressRing ring(8);
  // Width halves every tick: 16, 8, 4, 2.
  for (std::uint64_t t = 0; t < 4; ++t) {
    ring.Record(Sample(t, 16.0 / std::pow(2.0, static_cast<double>(t))));
  }
  const EtaEstimate eta = ring.EstimateEta(/*target_width=*/1.0);
  ASSERT_TRUE(eta.known);
  // 2 -> 1 at a halving per tick: one more tick, one tick's mean work.
  EXPECT_NEAR(eta.ticks, 1.0, 1e-9);
  EXPECT_NEAR(eta.work_units, 100.0, 1e-6);
}

TEST(ProgressRingTest, EtaUnknownWhenFlatWideningOrLimited) {
  ProgressRing flat(8);
  flat.Record(Sample(0, 4.0));
  flat.Record(Sample(1, 4.0));
  EXPECT_FALSE(flat.EstimateEta(1.0).known);

  ProgressRing widening(8);
  widening.Record(Sample(0, 2.0));
  widening.Record(Sample(1, 4.0));
  EXPECT_FALSE(widening.EstimateEta(1.0).known);

  ProgressRing limited(8);
  limited.Record(Sample(0, 8.0));
  limited.Record(Sample(1, 4.0, 100, /*converged=*/false,
                        /*limited=*/true));
  EXPECT_FALSE(limited.EstimateEta(1.0).known);

  ProgressRing empty(8);
  EXPECT_FALSE(empty.EstimateEta(1.0).known);

  ProgressRing single(8);
  single.Record(Sample(0, 8.0));
  EXPECT_FALSE(single.EstimateEta(1.0).known);
}

TEST(ProgressRingTest, EtaZeroWhenAlreadyThere) {
  ProgressRing ring(8);
  ring.Record(Sample(0, 8.0));
  ring.Record(Sample(1, 0.5));
  const EtaEstimate at_target = ring.EstimateEta(1.0);
  ASSERT_TRUE(at_target.known);
  EXPECT_DOUBLE_EQ(at_target.ticks, 0.0);
  EXPECT_DOUBLE_EQ(at_target.work_units, 0.0);

  ProgressRing converged(8);
  converged.Record(Sample(0, 4.0, 100, /*converged=*/true));
  const EtaEstimate done = converged.EstimateEta(1.0);
  ASSERT_TRUE(done.known);
  EXPECT_DOUBLE_EQ(done.ticks, 0.0);
}

// ------------------------------------------------------------------- slos

struct SloHarness {
  MetricsRegistry registry;
  Counter* bad;
  Counter* total;
  WindowedView view;

  explicit SloHarness()
      : bad(registry.GetCounter("bad_total")),
        total(registry.GetCounter("all_total")),
        view(&registry) {}

  SloSpec RatioSpec() {
    SloSpec spec;
    spec.name = "errors";
    spec.bad_metric = "bad_total";
    spec.total_metric = "all_total";
    spec.budget = 0.1;
    spec.fast_epochs = 1;
    spec.slow_epochs = 4;
    spec.degraded_burn = 1.0;
    spec.critical_burn = 2.0;
    return spec;
  }

  void Epoch(std::uint64_t bad_n, std::uint64_t total_n,
             SloMonitor* monitor) {
    bad->Add(bad_n);
    total->Add(total_n);
    view.Advance();
    monitor->Evaluate();
  }
};

TEST(SloMonitorTest, MultiWindowBurnRequiresBothWindowsForCritical) {
  SloHarness h;
  SloMonitor monitor(&h.view, {h.RatioSpec()});
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);

  // Three clean epochs fill the slow window with benign history.
  h.Epoch(0, 10, &monitor);
  h.Epoch(0, 10, &monitor);
  h.Epoch(0, 10, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);

  // One bad epoch: the fast window burns 3x, but diluted over the slow
  // window the burn stays under critical -- degraded, not critical. This
  // is the whole point of multi-window burn alerting: one bad epoch
  // cannot page.
  h.Epoch(3, 10, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kDegraded);
  EXPECT_EQ(monitor.critical_transitions(), 0u);
  EXPECT_DOUBLE_EQ(monitor.statuses()[0].fast_value, 0.3);
  EXPECT_DOUBLE_EQ(monitor.statuses()[0].fast_burn, 3.0);

  // Sustained badness saturates the slow window too: critical, once.
  h.Epoch(5, 10, &monitor);
  h.Epoch(5, 10, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kCritical);
  EXPECT_EQ(monitor.critical_transitions(), 1u);

  // Recovery: clean epochs drain both windows back to healthy.
  for (int i = 0; i < 5; ++i) h.Epoch(0, 10, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_EQ(monitor.critical_transitions(), 1u);
}

TEST(SloMonitorTest, StatePublishedAsGauges) {
  SloHarness h;
  SloMonitor monitor(&h.view, {h.RatioSpec()});
  h.Epoch(10, 10, &monitor);  // 10x burn in every window from the start
  EXPECT_EQ(monitor.state(), HealthState::kCritical);

  EXPECT_EQ(h.registry.GetGauge("vaolib_health_state")->Value(), 2);
  EXPECT_EQ(
      h.registry.GetGauge("vaolib_slo_state", {{"slo", "errors"}})->Value(),
      2);
  EXPECT_EQ(h.registry
                .GetGauge("vaolib_slo_burn_milli",
                          {{"slo", "errors"}, {"window", "fast"}})
                ->Value(),
            10000);
  EXPECT_EQ(
      h.registry.GetCounter("vaolib_slo_critical_transitions_total")
          ->Value(),
      1u);
}

TEST(SloMonitorTest, QuantileModeBurnsAgainstTheLimit) {
  MetricsRegistry registry;
  Histogram* work =
      registry.GetHistogram("tick_work", {}, {10.0, 100.0, 1000.0});
  WindowedView view(&registry);

  SloSpec spec;
  spec.name = "tick_work_p99";
  spec.histogram_metric = "tick_work";
  spec.quantile = 0.99;
  spec.limit = 100.0;
  spec.fast_epochs = 1;
  spec.slow_epochs = 2;
  SloMonitor monitor(&view, {spec});

  for (int i = 0; i < 50; ++i) work->Observe(5.0);
  view.Advance();
  EXPECT_EQ(monitor.Evaluate(), HealthState::kHealthy);

  // p99 blows through the limit in both windows once the load shifts.
  for (int i = 0; i < 200; ++i) work->Observe(900.0);
  view.Advance();
  EXPECT_EQ(monitor.Evaluate(), HealthState::kCritical);
  EXPECT_GT(monitor.statuses()[0].fast_burn, 2.0);
}

TEST(SloMonitorTest, ZeroTrafficIsHealthy) {
  SloHarness h;
  SloMonitor monitor(&h.view, {h.RatioSpec()});
  h.Epoch(0, 0, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(monitor.statuses()[0].fast_burn, 0.0);
}

TEST(SloMonitorTest, CriticalTransitionArmsTheFlightRecorder) {
  const std::string dump_dir = "health_test_dumps";
  std::error_code dir_error;
  std::filesystem::create_directories(dump_dir, dir_error);
  FlightRecorder::Global().SetDumpDir(dump_dir);
  SetTraceMode(TraceMode::kFlight);
  const std::uint64_t before = FlightRecorder::Global().dump_count();

  SloHarness h;
  SloMonitor monitor(&h.view, {h.RatioSpec()});
  h.Epoch(10, 10, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kCritical);

  SetTraceMode(TraceMode::kOff);
  FlightRecorder::Global().SetDumpDir("");

  EXPECT_EQ(FlightRecorder::Global().dump_count(), before + 1);
  // The dump names its trigger, so an on-call reading the directory sees
  // WHY the recorder fired.
  bool found = false;
  for (const auto& entry : std::filesystem::directory_iterator(dump_dir)) {
    if (entry.path().filename().string().find("slo-critical-errors") !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  std::filesystem::remove_all(dump_dir, dir_error);
}

TEST(SloMonitorTest, DisarmedCriticalTransitionDoesNotDump) {
  SetTraceMode(TraceMode::kOff);
  FlightRecorder::Global().SetDumpDir("");
  const std::uint64_t before = FlightRecorder::Global().dump_count();
  SloHarness h;
  SloMonitor monitor(&h.view, {h.RatioSpec()});
  h.Epoch(10, 10, &monitor);
  EXPECT_EQ(monitor.state(), HealthState::kCritical);
  EXPECT_EQ(FlightRecorder::Global().dump_count(), before);
}

TEST(HealthStateTest, NamesAreStable) {
  EXPECT_STREQ(HealthStateName(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(HealthStateName(HealthState::kDegraded), "degraded");
  EXPECT_STREQ(HealthStateName(HealthState::kCritical), "critical");
}

}  // namespace
}  // namespace vaolib::obs
