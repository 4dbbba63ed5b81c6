#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>

#include "common/trace_hook.h"

namespace vaolib::obs {

namespace {
// Installs (or clears) the thread-pool chunk-span hook; defined below, next
// to the tracer epoch it rebases timestamps onto.
void UpdatePoolTraceHook(TraceMode mode);
}  // namespace

namespace internal {

std::atomic<int> g_trace_mode{-1};

TraceMode InitTraceModeFromEnv() {
  const TraceMode mode = ParseTraceMode(std::getenv("VAOLIB_TRACE"));
  // Another thread may race the init; both compute the same value.
  g_trace_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  UpdatePoolTraceHook(mode);
  return mode;
}

}  // namespace internal

namespace {

constexpr std::size_t kDefaultRingCapacity = 4096;
constexpr std::size_t kMinRingCapacity = 64;
constexpr std::size_t kMaxRingCapacity = 1u << 20;

std::atomic<std::size_t> g_ring_capacity{kDefaultRingCapacity};
std::atomic<std::uint64_t> g_seq{0};

// One bounded event ring per recording thread. Only the owning thread
// writes; the mutex serializes those writes against snapshot/clear readers.
struct Ring {
  explicit Ring(std::size_t cap, std::uint64_t id) : capacity(cap), tid(id) {
    events.reserve(capacity);
  }

  std::mutex mu;
  std::vector<TraceEvent> events;  // ring storage, grown up to `capacity`
  std::size_t next = 0;            // next write slot once wrapped
  bool wrapped = false;
  std::uint64_t dropped = 0;  // events overwritten by wrap-around
  const std::size_t capacity;
  const std::uint64_t tid;
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;  // outlive their threads
  std::uint64_t next_tid = 0;
};

RingRegistry& Registry() {
  // Leaked intentionally, same rationale as MetricsRegistry::Global().
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

Ring& ThreadRing() {
  static thread_local std::shared_ptr<Ring> ring = [] {
    RingRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto created = std::make_shared<Ring>(
        g_ring_capacity.load(std::memory_order_relaxed), registry.next_tid++);
    registry.rings.push_back(created);
    return created;
  }();
  return *ring;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// The hook the thread pool (vaolib_common, which cannot link obs) calls
// around each chunk it executes. Timestamps arrive as absolute steady ns;
// rebase them onto the tracer epoch. RecordSpan re-checks TraceActive, so a
// stale installed hook after a mode change records nothing.
void PoolChunkSpan(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns) {
  const auto epoch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          TraceEpoch().time_since_epoch())
          .count());
  RecordSpan("pool", name, start_ns >= epoch_ns ? start_ns - epoch_ns : 0,
             end_ns >= epoch_ns ? end_ns - epoch_ns : 0, TraceDetail::kFine);
}

void UpdatePoolTraceHook(TraceMode mode) {
#ifdef VAOLIB_OBS_DISABLED
  (void)mode;
#else
  if (mode != TraceMode::kOff) TraceEpoch();  // pin before rebasing spans
  TraceSpanHook().store(mode == TraceMode::kOff ? nullptr : &PoolChunkSpan,
                        std::memory_order_relaxed);
#endif
}

void Push(TraceEvent event) {
  Ring& ring = ThreadRing();
  event.seq = g_seq.fetch_add(1, std::memory_order_relaxed);
  event.tid = ring.tid;
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.events.size() < ring.capacity) {
    ring.events.push_back(event);
    return;
  }
  ring.events[ring.next] = event;
  ring.next = (ring.next + 1) % ring.capacity;
  ring.wrapped = true;
  ++ring.dropped;
}

// JSON-safe double: bare number when finite, quoted token otherwise (the
// chaos harness injects NaN/Inf bounds and trace dumps must stay parseable).
void AppendJsonDouble(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
    return;
  }
  if (std::isnan(v)) {
    os << "\"nan\"";
  } else {
    os << (v > 0 ? "\"inf\"" : "\"-inf\"");
  }
}

void AppendMicros(std::ostream& os, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

// The process-wide estimator-calibration account (RecordEstimatorSample).
std::mutex g_calibration_mutex;
CalibrationKindStats g_calibration[kNumSolverKinds];

}  // namespace

TraceMode ParseTraceMode(const char* text) {
  if (text == nullptr || *text == '\0') return TraceMode::kOff;
  if (std::strcmp(text, "off") == 0 || std::strcmp(text, "0") == 0 ||
      std::strcmp(text, "false") == 0) {
    return TraceMode::kOff;
  }
  if (std::strcmp(text, "flight") == 0 || std::strcmp(text, "recorder") == 0) {
    return TraceMode::kFlight;
  }
  if (std::strcmp(text, "full") == 0 || std::strcmp(text, "on") == 0 ||
      std::strcmp(text, "1") == 0 || std::strcmp(text, "true") == 0) {
    return TraceMode::kFull;
  }
  return TraceMode::kOff;  // unrecognized values must not enable tracing
}

std::size_t ParseRingCapacity(const char* text) {
  if (text == nullptr || *text == '\0') return kDefaultRingCapacity;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || parsed <= 0) {
    return kDefaultRingCapacity;
  }
  const auto capacity = static_cast<std::size_t>(parsed);
  return std::clamp(capacity, kMinRingCapacity, kMaxRingCapacity);
}

std::size_t TraceRingCapacity() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* env = std::getenv("VAOLIB_TRACE_RING")) {
      g_ring_capacity.store(ParseRingCapacity(env),
                            std::memory_order_relaxed);
    }
  });
  return g_ring_capacity.load(std::memory_order_relaxed);
}

void SetTraceRingCapacity(std::size_t capacity) {
  TraceRingCapacity();  // settle the env init so it cannot overwrite us
  g_ring_capacity.store(
      std::clamp(capacity, kMinRingCapacity, kMaxRingCapacity),
      std::memory_order_relaxed);
}

TraceMode CurrentTraceMode() {
#ifdef VAOLIB_OBS_DISABLED
  return TraceMode::kOff;
#else
  const int mode = internal::g_trace_mode.load(std::memory_order_relaxed);
  if (mode >= 0) return static_cast<TraceMode>(mode);
  return internal::InitTraceModeFromEnv();
#endif
}

void SetTraceMode(TraceMode mode) {
  internal::g_trace_mode.store(static_cast<int>(mode),
                               std::memory_order_relaxed);
  UpdatePoolTraceHook(mode);
}

std::uint64_t TraceNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - TraceEpoch())
          .count());
}

void RecordSpan(const char* cat, const char* name, std::uint64_t start_ns,
                std::uint64_t end_ns, TraceDetail detail) {
  if (!TraceActive(detail)) return;
  TraceRingCapacity();  // settle env ring sizing before the first ring
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.cat = cat;
  event.name = name;
  event.ts_ns = start_ns;
  event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  Push(event);
}

void RecordInstant(const char* cat, const char* name, TraceDetail detail) {
  if (!TraceActive(detail)) return;
  TraceRingCapacity();
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.cat = cat;
  event.name = name;
  event.ts_ns = TraceNowNs();
  Push(event);
}

void RecordDecision(const Decision& decision) {
  if (!DecisionTraceActive()) return;
  TraceRingCapacity();
  TraceEvent event;
  event.kind = TraceEvent::Kind::kDecision;
  event.cat = "decision";
  event.name = decision.op;
  event.phase = decision.phase;
  event.ts_ns = TraceNowNs();
  event.object_index = decision.object_index;
  event.lo_before = decision.lo_before;
  event.hi_before = decision.hi_before;
  event.lo_after = decision.lo_after;
  event.hi_after = decision.hi_after;
  event.est_lo = decision.est_lo;
  event.est_hi = decision.est_hi;
  event.est_cost = decision.est_cost;
  event.actual_cost = decision.actual_cost;
  event.score = decision.score;
  event.raw_score = decision.raw_score;
  Push(event);
}

TraceSnapshot SnapshotTrace() {
  TraceSnapshot snapshot;
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    rings = registry.rings;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    snapshot.dropped += ring->dropped;
    if (!ring->wrapped) {
      snapshot.events.insert(snapshot.events.end(), ring->events.begin(),
                             ring->events.end());
      continue;
    }
    // Oldest-first: [next, end) then [0, next).
    snapshot.events.insert(snapshot.events.end(),
                           ring->events.begin() +
                               static_cast<std::ptrdiff_t>(ring->next),
                           ring->events.end());
    snapshot.events.insert(snapshot.events.end(), ring->events.begin(),
                           ring->events.begin() +
                               static_cast<std::ptrdiff_t>(ring->next));
  }
  std::sort(snapshot.events.begin(), snapshot.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return snapshot;
}

void ClearTrace() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    rings = registry.rings;
  }
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->wrapped = false;
    ring->dropped = 0;
  }
}

void ExportChromeTrace(const TraceSnapshot& snapshot, std::ostream& os) {
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : snapshot.events) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\": \"" << event.name << "\", \"cat\": \"" << event.cat
       << "\", \"ph\": \""
       << (event.kind == TraceEvent::Kind::kSpan ? "X" : "i")
       << "\", \"ts\": ";
    AppendMicros(os, event.ts_ns);
    if (event.kind == TraceEvent::Kind::kSpan) {
      os << ", \"dur\": ";
      AppendMicros(os, event.dur_ns);
    } else {
      os << ", \"s\": \"t\"";
    }
    os << ", \"pid\": 1, \"tid\": " << event.tid;
    os << ", \"args\": {\"seq\": " << event.seq;
    if (event.kind == TraceEvent::Kind::kDecision) {
      os << ", \"phase\": \"" << (event.phase != nullptr ? event.phase : "")
         << "\", \"object\": " << event.object_index;
      os << ", \"lo_before\": ";
      AppendJsonDouble(os, event.lo_before);
      os << ", \"hi_before\": ";
      AppendJsonDouble(os, event.hi_before);
      os << ", \"lo_after\": ";
      AppendJsonDouble(os, event.lo_after);
      os << ", \"hi_after\": ";
      AppendJsonDouble(os, event.hi_after);
      os << ", \"est_lo\": ";
      AppendJsonDouble(os, event.est_lo);
      os << ", \"est_hi\": ";
      AppendJsonDouble(os, event.est_hi);
      os << ", \"est_cost\": ";
      AppendJsonDouble(os, event.est_cost);
      os << ", \"actual_cost\": ";
      AppendJsonDouble(os, event.actual_cost);
      os << ", \"score\": ";
      AppendJsonDouble(os, event.score);
      os << ", \"raw_score\": ";
      AppendJsonDouble(os, event.raw_score);
    }
    os << "}}";
  }
  os << "],\n\"otherData\": {\"dropped\": " << snapshot.dropped << "}}\n";
}

void ExportChromeTrace(std::ostream& os) {
  ExportChromeTrace(SnapshotTrace(), os);
}

void CalibrationKindStats::Add(double est_cost, double est_lo, double est_hi,
                               double actual_cost, double actual_lo,
                               double actual_hi) {
  const double errors[3] = {actual_cost - est_cost, actual_lo - est_lo,
                            actual_hi - est_hi};
  // Chaos-injected NaN/Inf bounds would poison the sums, and a partially
  // recorded sample would skew the shared sample count that turns the six
  // sums into means -- so a sample records all three errors or none.
  for (const double error : errors) {
    if (!std::isfinite(error)) return;
  }
  ++samples;
  cost_err_sum += errors[0];
  cost_abs_err_sum += std::abs(errors[0]);
  lo_err_sum += errors[1];
  lo_abs_err_sum += std::abs(errors[1]);
  hi_err_sum += errors[2];
  hi_abs_err_sum += std::abs(errors[2]);
}

void CalibrationKindStats::Merge(const CalibrationKindStats& other) {
  samples += other.samples;
  cost_err_sum += other.cost_err_sum;
  cost_abs_err_sum += other.cost_abs_err_sum;
  lo_err_sum += other.lo_err_sum;
  lo_abs_err_sum += other.lo_abs_err_sum;
  hi_err_sum += other.hi_err_sum;
  hi_abs_err_sum += other.hi_abs_err_sum;
}

void RecordEstimatorSample(SolverKind kind, double est_cost, double est_lo,
                           double est_hi, double actual_cost,
                           double actual_lo, double actual_hi) {
#ifdef VAOLIB_OBS_DISABLED
  (void)kind;
  (void)est_cost;
  (void)est_lo;
  (void)est_hi;
  (void)actual_cost;
  (void)actual_lo;
  (void)actual_hi;
#else
  if (!Enabled()) return;
  const std::lock_guard<std::mutex> lock(g_calibration_mutex);
  g_calibration[static_cast<int>(kind)].Add(est_cost, est_lo, est_hi,
                                            actual_cost, actual_lo, actual_hi);
#endif
}

CalibrationSnapshot CalibrationSnapshot::Capture() {
  CalibrationSnapshot snapshot;
  const std::lock_guard<std::mutex> lock(g_calibration_mutex);
  std::copy(std::begin(g_calibration), std::end(g_calibration),
            std::begin(snapshot.kinds));
  return snapshot;
}

}  // namespace vaolib::obs
