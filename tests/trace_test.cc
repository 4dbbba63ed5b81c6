// Unit tests for src/obs/trace and src/obs/flight_recorder: env-knob
// parsing (bad values -> safe defaults), ring bounding and wrap-around
// drop accounting, Chrome trace-event export validity (parsed back with
// the library's own JSON reader), the estimator-calibration accumulators,
// flight-recorder dump gating/sanitization, the stall dump trigger, and --
// the PR's acceptance criterion -- that a failing differential seed's
// flight dump replays to the same decision sequence as a fresh re-run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/work_meter.h"
#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/selection.h"
#include "testing/differential_runner.h"
#include "vao/synthetic_result_object.h"

namespace vaolib::obs {
namespace {

namespace fs = std::filesystem;

// Every test that records restores the mode it found; the rings themselves
// are process-global, so tests ClearTrace() before recording.
class TraceModeGuard {
 public:
  TraceModeGuard() : previous_(CurrentTraceMode()) {}
  ~TraceModeGuard() {
    SetTraceMode(previous_);
    FlightRecorder::Global().SetDumpDir("");
  }

 private:
  TraceMode previous_;
};

#ifndef VAOLIB_OBS_DISABLED
std::string FreshDumpDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Result<std::unique_ptr<json::JsonValue>> ParseFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return json::Parse(buffer.str());
}

// (operator name, phase, object index) per decision event, in file order
// (ExportChromeTrace writes seq-sorted events).
using DecisionKey = std::tuple<std::string, std::string, std::uint64_t>;

std::vector<DecisionKey> DecisionsFromJson(const json::JsonValue& root) {
  std::vector<DecisionKey> out;
  const auto events = json::Child(root, "traceEvents");
  EXPECT_TRUE(events.ok());
  if (!events.ok()) return out;
  for (const auto& entry : events.value()->array) {
    const auto cat = json::GetString(*entry, "cat");
    if (!cat.ok() || cat.value() != "decision") continue;
    const auto name = json::GetString(*entry, "name");
    const auto args = json::Child(*entry, "args");
    EXPECT_TRUE(name.ok() && args.ok());
    if (!name.ok() || !args.ok()) continue;
    const auto phase = json::GetString(*args.value(), "phase");
    const auto object = json::GetNumber(*args.value(), "object");
    EXPECT_TRUE(phase.ok() && object.ok());
    if (!phase.ok() || !object.ok()) continue;
    out.emplace_back(name.value(), phase.value(), object.value());
  }
  return out;
}

std::vector<DecisionKey> DecisionsFromSnapshot(const TraceSnapshot& snap) {
  std::vector<DecisionKey> out;
  for (const TraceEvent& event : snap.events) {
    if (event.kind != TraceEvent::Kind::kDecision) continue;
    out.emplace_back(event.name,
                     event.phase != nullptr ? event.phase : "",
                     event.object_index);
  }
  return out;
}
#endif  // VAOLIB_OBS_DISABLED

TEST(TraceKnobTest, ParseTraceModeFallsBackToOff) {
  EXPECT_EQ(ParseTraceMode(nullptr), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode(""), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode("off"), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode("0"), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode("false"), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode("flight"), TraceMode::kFlight);
  EXPECT_EQ(ParseTraceMode("recorder"), TraceMode::kFlight);
  EXPECT_EQ(ParseTraceMode("full"), TraceMode::kFull);
  EXPECT_EQ(ParseTraceMode("on"), TraceMode::kFull);
  EXPECT_EQ(ParseTraceMode("1"), TraceMode::kFull);
  EXPECT_EQ(ParseTraceMode("true"), TraceMode::kFull);
  // Unrecognized values must not accidentally enable tracing.
  EXPECT_EQ(ParseTraceMode("banana"), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode("FULLY"), TraceMode::kOff);
  EXPECT_EQ(ParseTraceMode("2"), TraceMode::kOff);
}

TEST(TraceKnobTest, ParseRingCapacityClampsAndDefaults) {
  EXPECT_EQ(ParseRingCapacity(nullptr), 4096u);
  EXPECT_EQ(ParseRingCapacity(""), 4096u);
  EXPECT_EQ(ParseRingCapacity("junk"), 4096u);
  EXPECT_EQ(ParseRingCapacity("-5"), 4096u);
  EXPECT_EQ(ParseRingCapacity("0"), 4096u);
  EXPECT_EQ(ParseRingCapacity("8192"), 8192u);
  EXPECT_EQ(ParseRingCapacity("10"), 64u);         // clamp to the floor
  EXPECT_EQ(ParseRingCapacity("99999999"), 1u << 20);  // and the ceiling
}

TEST(TraceKnobTest, EnvInitFallsBackToOffOnBadValue) {
  const TraceModeGuard guard;
  ::setenv("VAOLIB_TRACE", "bogus-mode", 1);
  internal::g_trace_mode.store(-1);  // force re-read of the env
  EXPECT_EQ(CurrentTraceMode(), TraceMode::kOff);
  EXPECT_FALSE(TraceActive(TraceDetail::kCoarse));

#ifndef VAOLIB_OBS_DISABLED
  ::setenv("VAOLIB_TRACE", "flight", 1);
  internal::g_trace_mode.store(-1);
  EXPECT_EQ(CurrentTraceMode(), TraceMode::kFlight);
  EXPECT_TRUE(TraceActive(TraceDetail::kCoarse));
  EXPECT_FALSE(TraceActive(TraceDetail::kFine));
  ::unsetenv("VAOLIB_TRACE");
#endif
}

#ifndef VAOLIB_OBS_DISABLED
TEST(TraceRingTest, WrapKeepsLastEventsAndCountsDropped) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFull);
  ClearTrace();
  // Ring capacity only applies to rings created after the call, so record
  // from a brand-new thread whose ring is born at the small capacity.
  SetTraceRingCapacity(64);
  std::thread writer([] {
    for (int i = 0; i < 200; ++i) {
      RecordInstant("test", "tick", TraceDetail::kCoarse);
    }
  });
  writer.join();
  SetTraceRingCapacity(4096);

  const TraceSnapshot snap = SnapshotTrace();
  std::size_t test_events = 0;
  std::uint64_t last_seq = 0;
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    if (std::string(snap.events[i].cat) == "test") ++test_events;
    if (i > 0) {
      EXPECT_GT(snap.events[i].seq, last_seq);
    }
    last_seq = snap.events[i].seq;
  }
  EXPECT_EQ(test_events, 64u);      // only the last ring-full survives
  EXPECT_GE(snap.dropped, 136u);    // 200 - 64 overwritten

  ClearTrace();
  EXPECT_EQ(SnapshotTrace().events.size(), 0u);
  EXPECT_EQ(SnapshotTrace().dropped, 0u);
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(TraceSpanTest, FineSpansRecordOnlyInFullMode) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();
  { const ScopedSpan coarse("test", "coarse"); }
  { const ScopedSpan fine("test", "fine", TraceDetail::kFine); }
  TraceSnapshot snap = SnapshotTrace();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_STREQ(snap.events[0].name, "coarse");

  SetTraceMode(TraceMode::kFull);
  ClearTrace();
  { const ScopedSpan fine("test", "fine", TraceDetail::kFine); }
  snap = SnapshotTrace();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_STREQ(snap.events[0].name, "fine");
  EXPECT_EQ(snap.events[0].kind, TraceEvent::Kind::kSpan);

  SetTraceMode(TraceMode::kOff);
  ClearTrace();
  { const ScopedSpan span("test", "off"); }
  RecordInstant("test", "off", TraceDetail::kCoarse);
  EXPECT_EQ(SnapshotTrace().events.size(), 0u);
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(TraceExportTest, ChromeTraceJsonParsesWithDecisionPayload) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();

  Decision decision;
  decision.op = "min_max";
  decision.phase = "search";
  decision.object_index = 7;
  decision.lo_before = 1.0;
  decision.hi_before = 9.0;
  decision.lo_after = 2.0;
  decision.hi_after = 8.0;
  decision.est_lo = 2.5;
  decision.est_hi = 7.5;
  decision.est_cost = 100.0;
  decision.actual_cost = 110.0;
  decision.score = 0.0625;
  RecordDecision(decision);
  RecordSpan("tick", "max", 1000, 2500, TraceDetail::kCoarse);

  std::ostringstream os;
  ExportChromeTrace(os);
  const auto parsed = json::Parse(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << os.str();

  const auto decisions = DecisionsFromJson(*parsed.value());
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0], DecisionKey("min_max", "search", 7u));

  const auto events = json::Child(*parsed.value(), "traceEvents");
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value()->array.size(), 2u);
  bool saw_span = false;
  for (const auto& entry : events.value()->array) {
    const auto ph = json::GetString(*entry, "ph");
    ASSERT_TRUE(ph.ok());
    if (ph.value() != "X") continue;
    saw_span = true;
    const auto dur = json::GetDouble(*entry, "dur");
    ASSERT_TRUE(dur.ok());
    EXPECT_DOUBLE_EQ(dur.value(), 1.5);  // 1500 ns == 1.5 us
  }
  EXPECT_TRUE(saw_span);
  const auto other = json::Child(*parsed.value(), "otherData");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(json::GetNumber(*other.value(), "dropped").value(), 0u);
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(TraceExportTest, NonFiniteDecisionFieldsStayValidJson) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();
  Decision decision;
  decision.op = "sum_ave";
  decision.phase = "scan";
  decision.lo_after = std::numeric_limits<double>::quiet_NaN();
  decision.hi_after = std::numeric_limits<double>::infinity();
  RecordDecision(decision);
  std::ostringstream os;
  ExportChromeTrace(os);
  // Chaos runs push NaN/Inf bounds through the tracer; the export must
  // stay parseable (non-finite doubles become quoted tokens).
  const auto parsed = json::Parse(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << os.str();
  EXPECT_NE(os.str().find("\"nan\""), std::string::npos);
  EXPECT_NE(os.str().find("\"inf\""), std::string::npos);
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(CalibrationTest, SamplesAccumulateAndNonFiniteDropsWhole) {
  // A local account: the two finite samples add up exactly; any non-finite
  // error drops a sample whole, so the shared sample count stays a valid
  // denominator for all six sums.
  CalibrationKindStats local;
  local.Add(/*est_cost=*/10.0, /*est_lo=*/0.0, /*est_hi=*/2.0,
            /*actual_cost=*/12.0, /*actual_lo=*/0.5, /*actual_hi=*/1.5);
  local.Add(10.0, 0.0, 2.0, 9.0, -0.5, 2.5);
  local.Add(10.0, 0.0, 2.0, std::numeric_limits<double>::quiet_NaN(), 0.0,
            2.0);
  local.Add(-std::numeric_limits<double>::infinity(), 0.0, 2.0, 11.0, 0.0,
            2.0);
  EXPECT_EQ(local.samples, 2u);
  EXPECT_EQ(local.cost_err_sum, 2.0 + -1.0);
  EXPECT_EQ(local.cost_abs_err_sum, 2.0 + 1.0);
  EXPECT_EQ(local.lo_err_sum, 0.5 + -0.5);
  EXPECT_EQ(local.lo_abs_err_sum, 0.5 + 0.5);
  EXPECT_EQ(local.hi_err_sum, -0.5 + 0.5);
  EXPECT_EQ(local.hi_abs_err_sum, 0.5 + 0.5);

  // The process-wide account adds the same samples to the totals it held,
  // with the same arithmetic, and touches no other solver kind.
  SetEnabled(true);
  constexpr int kOde = static_cast<int>(SolverKind::kOde);
  constexpr int kPde2d = static_cast<int>(SolverKind::kPde2d);
  const CalibrationSnapshot before = CalibrationSnapshot::Capture();
  RecordEstimatorSample(SolverKind::kOde, 10.0, 0.0, 2.0, 12.0, 0.5, 1.5);
  RecordEstimatorSample(SolverKind::kOde, 10.0, 0.0, 2.0, 9.0, -0.5, 2.5);
  RecordEstimatorSample(SolverKind::kOde, 10.0, 0.0, 2.0,
                        std::numeric_limits<double>::quiet_NaN(), 0.0, 2.0);
  RecordEstimatorSample(SolverKind::kOde,
                        -std::numeric_limits<double>::infinity(), 0.0, 2.0,
                        11.0, 0.0, 2.0);
  CalibrationKindStats expected = before.kinds[kOde];
  expected.Add(10.0, 0.0, 2.0, 12.0, 0.5, 1.5);
  expected.Add(10.0, 0.0, 2.0, 9.0, -0.5, 2.5);
  const CalibrationSnapshot after = CalibrationSnapshot::Capture();
  EXPECT_EQ(after.kinds[kOde], expected);
  EXPECT_EQ(after.kinds[kOde].samples, before.kinds[kOde].samples + 2);
  EXPECT_EQ(after.kinds[kPde2d], before.kinds[kPde2d]);
}

TEST(CalibrationTest, ConcurrentSamplesAddUpExactly) {
  // Two threads record into the process-wide account at once while this
  // one reads it. Every sample is the same, so the totals do not depend on
  // the interleaving: they must equal the same samples added one by one.
  SetEnabled(true);
  constexpr int kRoot = static_cast<int>(SolverKind::kRoot);
  constexpr int kPerThread = 20000;
  auto record = [] {
    for (int i = 0; i < kPerThread; ++i) {
      RecordEstimatorSample(SolverKind::kRoot, /*est_cost=*/4.0,
                            /*est_lo=*/1.0, /*est_hi=*/3.0,
                            /*actual_cost=*/6.5, /*actual_lo=*/1.25,
                            /*actual_hi=*/2.5);
    }
  };
  const CalibrationSnapshot before = CalibrationSnapshot::Capture();
  std::thread first(record);
  std::thread second(record);
  std::uint64_t seen = before.kinds[kRoot].samples;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now =
        CalibrationSnapshot::Capture().kinds[kRoot].samples;
    EXPECT_GE(now, seen);
    seen = now;
  }
  first.join();
  second.join();

  CalibrationKindStats expected = before.kinds[kRoot];
  for (int i = 0; i < 2 * kPerThread; ++i) {
    expected.Add(4.0, 1.0, 3.0, 6.5, 1.25, 2.5);
  }
  const CalibrationKindStats after =
      CalibrationSnapshot::Capture().kinds[kRoot];
  EXPECT_EQ(after.samples, before.kinds[kRoot].samples + 2 * kPerThread);
  EXPECT_EQ(after, expected);
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(FlightRecorderTest, ArmedRequiresModeAndDir) {
  const TraceModeGuard guard;
  FlightRecorder& recorder = FlightRecorder::Global();
  SetTraceMode(TraceMode::kOff);
  recorder.SetDumpDir(FreshDumpDir("trace_test_armed"));
  EXPECT_FALSE(recorder.Armed());
  EXPECT_FALSE(recorder.Dump("nope").has_value());

  SetTraceMode(TraceMode::kFlight);
  EXPECT_TRUE(recorder.Armed());
  recorder.SetDumpDir("");
  EXPECT_FALSE(recorder.Armed());
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(FlightRecorderTest, DumpWritesSanitizedSequencedParseableFile) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();
  RecordInstant("test", "before-dump", TraceDetail::kCoarse);

  const std::string dir = FreshDumpDir("trace_test_dump");
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetDumpDir(dir);
  const auto path = recorder.Dump("bad reason/../:x");
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(fs::path(*path).parent_path().string(), dir);
  // Sanitized: nothing outside [A-Za-z0-9_-] survives into the name.
  EXPECT_EQ(fs::path(*path).filename().string().find('/'),
            std::string::npos);
  EXPECT_NE(path->find("bad_reason"), std::string::npos);

  const auto parsed = ParseFile(*path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const auto events = json::Child(*parsed.value(), "traceEvents");
  ASSERT_TRUE(events.ok());
  EXPECT_GE(events.value()->array.size(), 1u);

  // Sequence numbers advance per dump even for repeated reasons.
  const auto second = recorder.Dump("again");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*path, *second);
}
#endif  // VAOLIB_OBS_DISABLED

#ifndef VAOLIB_OBS_DISABLED
TEST(FlightRecorderTest, PredicateStallTriggersDump) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();
  const std::string dir = FreshDumpDir("trace_test_stall");
  FlightRecorder::Global().SetDumpDir(dir);
  const std::uint64_t dumps_before = FlightRecorder::Global().dump_count();

  // A synthetic object that never shrinks, straddling the constant: the
  // stall guard must trip and the failure path must leave a flight dump
  // behind.
  WorkMeter meter;
  vao::SyntheticResultObject::Config config;
  config.shrink = 1.0;
  config.min_width = 0.01;
  config.meter = &meter;
  vao::SyntheticResultObject object(config);
  const operators::SelectionVao selection(operators::Comparator::kGreaterThan,
                                          config.true_value);
  const auto outcome = selection.Evaluate(&object, &meter);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().Is(StatusCode::kResourceExhausted))
      << outcome.status();
  EXPECT_GT(FlightRecorder::Global().dump_count(), dumps_before);
  bool found = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find("predicate-stall") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}
#endif  // VAOLIB_OBS_DISABLED

// The acceptance criterion: a failing differential seed produces a flight
// dump whose decision events replay to the same iterate sequence when the
// combo is re-run fresh. Single-threaded so the decision order is total.
#ifndef VAOLIB_OBS_DISABLED
TEST(FlightRecorderTest, DifferentialFailureDumpReplaysDecisions) {
  const TraceModeGuard guard;
  SetTraceMode(TraceMode::kFlight);
  ClearTrace();
  const std::string dir = FreshDumpDir("trace_test_diff");
  FlightRecorder::Global().SetDumpDir(dir);

  vaolib::testing::DifferentialOptions options;
  options.seeds = 2;
  options.thread_counts = {1};
  options.cache_modes = {false};
  options.kinds = {{engine::QueryKind::kMax, 1}};
  options.strategies = {};
  options.scheduler_policies = {};
  options.mutation = vaolib::testing::Mutation::kSwapMinMax;
  options.max_failures = 1;
  options.shrink = false;

  vaolib::testing::DifferentialRunner runner(options);
  const auto summary = runner.RunAll();
  ASSERT_TRUE(summary.ok()) << summary.status();
  ASSERT_FALSE(summary.value().failures.empty())
      << "kSwapMinMax must make MAX queries fail differentially";
  const vaolib::testing::DifferentialFailure& failure =
      summary.value().failures.front();

  // Find the dump RecordFailure wrote for this seed.
  std::string dump_path;
  const std::string needle = "seed-" + std::to_string(failure.seed);
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find(needle) != std::string::npos) {
      dump_path = entry.path().string();
    }
  }
  ASSERT_FALSE(dump_path.empty()) << "no flight dump for " << needle;

  const auto parsed = ParseFile(dump_path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::vector<DecisionKey> dumped =
      DecisionsFromJson(*parsed.value());
  ASSERT_FALSE(dumped.empty());

  // Fresh replay of the identical combo must produce the identical
  // decision sequence (the determinism contract of the tracer).
  ClearTrace();
  const auto replay = runner.RunOne(failure.seed, failure.variant,
                                    failure.rows, failure.threads,
                                    failure.cache);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay.value().has_value());  // still failing, same combo
  const std::vector<DecisionKey> fresh =
      DecisionsFromSnapshot(SnapshotTrace());
  EXPECT_EQ(dumped, fresh);
}
#endif  // VAOLIB_OBS_DISABLED

}  // namespace
}  // namespace vaolib::obs
