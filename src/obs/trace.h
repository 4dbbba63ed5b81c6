// Copyright 2026 The vaolib Authors.
// Execution tracing: thread-striped, bounded-memory ring buffers recording
// spans (executor ticks, scheduler dispatches, solver invocations, cache
// lookups, pool chunks) and per-iteration decision events (which result
// object the strategy picked, bounds before/after, predicted vs. actual
// cost, and the greedy score that won), exportable as Chrome trace-event
// JSON (load a dump in Perfetto / chrome://tracing).
//
// Modes (env VAOLIB_TRACE, or SetTraceMode()):
//   off     nothing is recorded (the default; one relaxed load per site).
//   flight  decision events + coarse spans into per-thread rings that keep
//           only the last N events (flight recorder; see flight_recorder.h
//           for the dump triggers).
//   full    everything, including fine-grained spans (solver invocations,
//           sampled cache lookups, pool chunks). Still ring-bounded.
//
// Memory bound: ring capacity (env VAOLIB_TRACE_RING, default 4096) x
// sizeof(TraceEvent) (~128 B) per thread that ever records. Rings never
// allocate on the hot path after their first event.
//
// Determinism contract: recording reads object state (bounds(), est_cost())
// through their free accessors and never charges a WorkMeter, so enabling
// tracing cannot change work totals, iterate sequences, or answers. Event
// order is a global atomic sequence number; on a single driving thread the
// decision sequence is exactly the iterate sequence.
//
// The estimator-calibration audit is independent of the trace mode: like
// the solver work counters it is active whenever obs::Enabled(). Its
// per-solver-kind sums are kept twice, from the same samples: per task (the
// calibration section of its ExecutionReport) and once per process
// (RecordEstimatorSample, read through CalibrationSnapshot::Capture()).
// Both decision events and calibration samples are published from one
// record per iterate, taken at the operators' IterationTask seam.

#ifndef VAOLIB_OBS_TRACE_H_
#define VAOLIB_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/metrics.h"

namespace vaolib::obs {

/// \brief How much the tracer records; see the file comment.
enum class TraceMode : int { kOff = 0, kFlight = 1, kFull = 2 };

/// \brief Parses a VAOLIB_TRACE value. nullptr/""/"off"/"0"/"false" give
/// kOff, "flight"/"recorder" give kFlight, "full"/"on"/"1"/"true" give
/// kFull; anything unrecognized falls back to the safe default kOff.
TraceMode ParseTraceMode(const char* text);

/// \brief Parses a VAOLIB_TRACE_RING value: a positive integer clamped to
/// [64, 1048576]. nullptr, junk, or non-positive values fall back to the
/// default capacity (4096).
std::size_t ParseRingCapacity(const char* text);

/// \brief Per-thread ring capacity for rings created after the call.
std::size_t TraceRingCapacity();
void SetTraceRingCapacity(std::size_t capacity);

/// \brief The current mode (initialized from env VAOLIB_TRACE on first use).
TraceMode CurrentTraceMode();
void SetTraceMode(TraceMode mode);

/// \brief Span granularity: kCoarse spans record in flight and full modes,
/// kFine (hot-path) spans only in full mode.
enum class TraceDetail : int { kCoarse = 0, kFine = 1 };

namespace internal {
// Tri-state mirror of metrics.h's g_enabled: -1 = read env on first use.
extern std::atomic<int> g_trace_mode;
TraceMode InitTraceModeFromEnv();
}  // namespace internal

/// \brief Whether spans of \p detail are being recorded right now.
inline bool TraceActive(TraceDetail detail) {
#ifdef VAOLIB_OBS_DISABLED
  (void)detail;
  return false;
#else
  int mode = internal::g_trace_mode.load(std::memory_order_relaxed);
  if (mode < 0) mode = static_cast<int>(internal::InitTraceModeFromEnv());
  if (mode == static_cast<int>(TraceMode::kOff)) return false;
  return detail == TraceDetail::kCoarse ||
         mode == static_cast<int>(TraceMode::kFull);
#endif
}

/// \brief Whether decision events are being recorded (flight or full mode).
inline bool DecisionTraceActive() { return TraceActive(TraceDetail::kCoarse); }

/// \brief One recorded event. `cat`/`name`/`phase` must be string literals
/// (or otherwise immortal): rings store the pointers, never copies.
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant, kDecision };

  Kind kind = Kind::kSpan;
  const char* cat = "";
  const char* name = "";
  const char* phase = nullptr;  ///< decision events: operator phase label
  std::uint64_t seq = 0;        ///< global total order (atomic counter)
  std::uint64_t ts_ns = 0;      ///< steady-clock ns since tracer epoch
  std::uint64_t dur_ns = 0;     ///< spans only
  std::uint64_t tid = 0;        ///< recording thread's stripe id

  /// \name Decision payload (kDecision only).
  /// @{
  std::uint64_t object_index = 0;  ///< which result object was picked
  double lo_before = 0.0, hi_before = 0.0;
  double lo_after = 0.0, hi_after = 0.0;
  double est_lo = 0.0, est_hi = 0.0;  ///< predicted post-iterate bounds
  double est_cost = 0.0;              ///< predicted work units
  double actual_cost = 0.0;           ///< measured work-unit delta
  double score = 0.0;                 ///< greedy benefit/cost score that won
  /// Score the raw (uncorrected) estimates would have produced. Equal to
  /// `score` under the classic strategies; under kCalibratedGreedy /
  /// kSentinelGreedy the gap between the two is why the pick changed.
  double raw_score = 0.0;
  /// @}
};

/// \brief Nanoseconds since the tracer's process-local epoch.
std::uint64_t TraceNowNs();

/// \brief Records a completed span. No-op unless TraceActive(detail).
void RecordSpan(const char* cat, const char* name, std::uint64_t start_ns,
                std::uint64_t end_ns, TraceDetail detail);

/// \brief Records an instant event at the current time.
void RecordInstant(const char* cat, const char* name, TraceDetail detail);

/// \brief Decision-event payload; see TraceEvent for field meanings.
struct Decision {
  const char* op = "";        ///< operator name ("min_max", "sum_ave", ...)
  const char* phase = "";     ///< operator phase ("search", "finalize", ...)
  std::uint64_t object_index = 0;
  double lo_before = 0.0, hi_before = 0.0;
  double lo_after = 0.0, hi_after = 0.0;
  double est_lo = 0.0, est_hi = 0.0;
  double est_cost = 0.0;
  double actual_cost = 0.0;
  double score = 0.0;
  double raw_score = 0.0;  ///< score from uncorrected estimates
};

/// \brief Records one per-iteration decision event. Callers should gate on
/// DecisionTraceActive() so payload assembly stays off the disabled path.
void RecordDecision(const Decision& decision);

/// \brief RAII span: captures the start time if tracing is active, records
/// on destruction. Cheap no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name,
             TraceDetail detail = TraceDetail::kCoarse)
      : cat_(cat), name_(name), detail_(detail), active_(TraceActive(detail)) {
    if (active_) start_ns_ = TraceNowNs();
  }
  ~ScopedSpan() {
    if (active_) RecordSpan(cat_, name_, start_ns_, TraceNowNs(), detail_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* cat_;
  const char* name_;
  TraceDetail detail_;
  bool active_;
  std::uint64_t start_ns_ = 0;
};

/// \brief Merged, seq-sorted copy of every thread ring.
struct TraceSnapshot {
  std::vector<TraceEvent> events;
  /// Events overwritten by ring wrap-around since the last ClearTrace().
  std::uint64_t dropped = 0;
};

/// \brief Copies all rings (seq-sorted). Safe from any thread.
TraceSnapshot SnapshotTrace();

/// \brief Empties every ring and resets the drop counter (the sequence
/// counter keeps running so ordering stays globally monotonic).
void ClearTrace();

/// \brief Writes \p snapshot in Chrome trace-event JSON ("traceEvents"
/// array of "X"/"i" events; decision payloads under "args").
void ExportChromeTrace(const TraceSnapshot& snapshot, std::ostream& os);

/// \brief SnapshotTrace() + ExportChromeTrace().
void ExportChromeTrace(std::ostream& os);

/// \name Estimator-calibration audit.
/// @{

/// \brief Estimator-calibration account for one solver kind: signed and
/// absolute error sums of the UDF's estCPU/estL/estH predictions against
/// the actuals of sampled iterates. Samples are the operator tasks'
/// attributable iterates -- serial steps costed by the step meter, batch
/// steps by per-object spend, blocking selections by the row meter -- each
/// taken from the one record that also feeds the decision trace; the
/// parallel coarse pre-phase and threaded selection notches are not
/// sampled, so `samples` never depends on the thread count. Each task adds
/// its samples to its own OperatorStats, which becomes its query's
/// ExecutionReport::calibration; RecordEstimatorSample adds the same
/// samples to the process-wide account. Stored as sums so the JSON
/// round-trip is exact; bias and MAE are derived views.
struct CalibrationKindStats {
  std::uint64_t samples = 0;
  double cost_err_sum = 0.0;
  double cost_abs_err_sum = 0.0;
  double lo_err_sum = 0.0;
  double lo_abs_err_sum = 0.0;
  double hi_err_sum = 0.0;
  double hi_abs_err_sum = 0.0;

  /// Adds one Iterate() outcome against the estimates that preceded it:
  /// the signed and absolute errors (actual - est) of the predicted cost
  /// and the predicted [L,H] bounds. A sample with any non-finite error is
  /// dropped whole, so `samples` stays valid as the denominator for all
  /// six sums.
  void Add(double est_cost, double est_lo, double est_hi, double actual_cost,
           double actual_lo, double actual_hi);

  /// Adds \p other's samples and sums to this one's (e.g. a tick's queries).
  void Merge(const CalibrationKindStats& other);

  /// \name Guarded bias/MAE accessors (error convention: actual - est).
  /// Zero-sample kinds return 0.0 -- never NaN -- so consumers (the
  /// calibrated scoring path, ExecutionReport JSON) stay finite and fall
  /// back to raw estimates bit-exactly.
  /// @{
  double CostBias() const { return Mean(cost_err_sum); }
  double CostMae() const { return Mean(cost_abs_err_sum); }
  double LoBias() const { return Mean(lo_err_sum); }
  double LoMae() const { return Mean(lo_abs_err_sum); }
  double HiBias() const { return Mean(hi_err_sum); }
  double HiMae() const { return Mean(hi_abs_err_sum); }
  /// @}

  bool operator==(const CalibrationKindStats&) const = default;

 private:
  double Mean(double sum) const {
    return samples == 0 ? 0.0 : sum / static_cast<double>(samples);
  }
};

/// \brief Adds one sample (CalibrationKindStats::Add) of solver kind
/// \p kind to the process-wide account, under its one mutex. Active
/// whenever obs::Enabled(); gate call sites on it.
///
/// The one caller is the operators' observed-iterate seam
/// (operators::IterationTask::IterateObserved / IterateObservedBatch), which
/// adds the same sample to the task's own account. Threaded selection
/// notches and iterates outside any task (parallel coarse pre-phase,
/// ConvergeAllToMinWidth, black-box calibration, the optimal-extreme
/// oracle) are never sampled.
void RecordEstimatorSample(SolverKind kind, double est_cost, double est_lo,
                           double est_hi, double actual_cost, double actual_lo,
                           double actual_hi);

/// \brief Copy of the process-wide account: every sample recorded since the
/// process started. The calibrated scoring path (operators::ScoreCorrector)
/// reads its per-kind biases.
struct CalibrationSnapshot {
  CalibrationKindStats kinds[kNumSolverKinds] = {};

  static CalibrationSnapshot Capture();
};

/// @}

}  // namespace vaolib::obs

#endif  // VAOLIB_OBS_TRACE_H_
