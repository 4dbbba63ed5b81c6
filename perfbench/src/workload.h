// The workload interface of the perfbench harness.
//
// A workload is a closed loop driven from one thread: the harness asks for
// operation i, the workload sends it into vaolib through public APIs only,
// waits for every answer, checks the answers and returns. Inputs are
// generated from the seed when the workload is constructed, before any
// timing starts; Setup() builds the system under test and may be called on
// fresh instances several times per run (its median is setup_s).

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "reference.h"
#include "timed_function.h"
#include "trace.h"

namespace perfbench {

/// Deterministic per-operation counts (identical in traced and untraced
/// passes over the same operations).
struct OpCounts {
  std::uint64_t work = 0;           ///< work units the operation charged
  std::uint64_t frames = 0;         ///< frames decoded (REPORT excluded)
  std::uint64_t payload_bytes = 0;  ///< their payload bytes
  std::uint64_t results = 0;        ///< answers (RESULT frames / queries)
  std::uint64_t converged = 0;      ///< answers with converged=1
  std::uint64_t choose_steps = 0;   ///< ExecutionReport::choose_steps
  std::uint64_t iterations = 0;     ///< ExecutionReport::iterations
  std::uint64_t rows_scanned = 0;   ///< ExecutionReport::rows_scanned
  std::uint64_t approx_answers = 0;
  std::uint64_t approx_covered = 0;  ///< approximate intervals holding truth
  double sample_fraction_sum = 0.0;  ///< sum of sample_size / population
  double budget_utilization = 0.0;   ///< work / tick budget (budgeted ticks)
};

struct OpResult {
  bool ok = true;
  std::string failure;  ///< first failed output check
  /// Steady-clock time at which the operation's last answer was decoded;
  /// everything after it (checks, bookkeeping) is outside the timing.
  std::int64_t end_ns = 0;
  std::int64_t churn_ns = 0;     ///< replacement part of a churn round
  std::int64_t dispatch_ns = 0;  ///< dispatcher tick wall (metrics histogram)
  std::uint64_t digest = 0;      ///< hash of the operation's answers
  OpCounts counts;

  void Fail(std::string why) {
    if (ok) failure = std::move(why);
    ok = false;
  }
};

/// Spans and decorator counters of a traced pass (both null when untraced).
struct Tracing {
  SpanRecorder* recorder = nullptr;
  VaoCounters* vao = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system under test, registers queries and runs warm-up
  /// operations. With \p tracing set, the UDF is wrapped in TimedFunction
  /// and REPORT frames are subscribed where the workload uses them.
  virtual bool Setup(const Tracing& tracing, std::string* error) = 0;

  /// Runs operation \p index, which the harness started just before.
  virtual OpResult RunOp(std::size_t index) = 0;

  /// Untimed output checks after the untraced pass; adds to the counts.
  virtual void Verify(std::size_t* attempted, std::size_t* failed) {
    (void)attempted;
    (void)failed;
  }

  /// Operations the digest and the exact per-layer counts cover; every
  /// run completes at least this many.
  virtual std::size_t window() const = 0;

  /// Operations generated up front; a run stops early if it gets there.
  virtual std::size_t capacity() const = 0;

  /// Whether operations go through the server (tick/churn split, server
  /// and dispatch layers) or straight to the engine.
  virtual bool serves() const = 0;

  /// The shape of the reference block timed beside this workload's
  /// operations: that of the code it spends most of its time in.
  virtual ReferenceShape reference_shape() const = 0;
};

/// The workloads, by the names the harness accepts.
std::unique_ptr<Workload> MakeServeStorm(std::uint64_t seed);
std::unique_ptr<Workload> MakeServeFanoutChurn(std::uint64_t seed);
std::unique_ptr<Workload> MakeAggregateWide(std::uint64_t seed);

/// Prints serve_storm's reserved-tenant converge-all demand per tick (the
/// W its fixed budget constants were derived from); returns an exit code.
int ProbeStormDemand();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
