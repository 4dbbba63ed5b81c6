// Copyright 2026 The vaolib Authors.
// Low-overhead metrics for the observability layer: counters, gauges, and
// fixed-bucket histograms collected in a process-wide registry, exported as
// JSON or Prometheus text.
//
// Design goals, in order:
//   1. Near-zero hot-path cost. Counter::Add is one relaxed flag load plus
//      one relaxed fetch_add to a thread-striped cell; instrumentation sites
//      cache the Counter* so no name lookup ever happens on a hot path.
//   2. Zero cost when disabled. Compile with VAOLIB_OBS_DISABLED (the CMake
//      option VAOLIB_ENABLE_OBSERVABILITY=OFF) and every mutation inlines to
//      nothing; at runtime, SetEnabled(false) (or env VAOLIB_OBS=0) reduces
//      mutations to a single relaxed load.
//   3. Shard friendliness. Counters stripe their cells across cache lines by
//      thread, so pool workers (common/thread_pool.h) charging the same
//      counter do not bounce one cache line around.
//
// Reads (Value(), renderers) are racy-but-atomic snapshots, exact once
// concurrent writers have quiesced -- the same contract as WorkMeter.

#ifndef VAOLIB_OBS_METRICS_H_
#define VAOLIB_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace vaolib::obs {

namespace internal {

// Tri-state runtime flag: -1 = uninitialized (read env VAOLIB_OBS on first
// use), 0 = disabled, 1 = enabled.
extern std::atomic<int> g_enabled;

/// Slow path: initializes g_enabled from the environment.
bool InitEnabledFromEnv();

/// Round-robin stripe assignment for new threads (defined in metrics.cc).
std::size_t AssignStripe();

/// This thread's counter stripe, assigned once per thread.
inline std::size_t ThreadStripe() {
  static thread_local const std::size_t stripe = AssignStripe();
  return stripe;
}

}  // namespace internal

/// \brief Whether metric mutations record anything at runtime.
inline bool Enabled() {
#ifdef VAOLIB_OBS_DISABLED
  return false;
#else
  const int v = internal::g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return internal::InitEnabledFromEnv();
#endif
}

/// \brief Turns runtime metric collection on or off (process-wide).
void SetEnabled(bool enabled);

/// \brief Monotonic counter, thread-striped to avoid cache-line contention.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  /// Adds \p n. Safe from any thread; no-op when observability is disabled.
  void Add(std::uint64_t n) {
#ifndef VAOLIB_OBS_DISABLED
    if (!Enabled()) return;
    cells_[internal::ThreadStripe() % kStripes].value.fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void Increment() { Add(1); }

  /// Sum over all stripes (approximate while writers are active).
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  Cell cells_[kStripes];
};

/// \brief Last-write-wins signed gauge.
class Gauge {
 public:
  void Set(std::int64_t v) {
#ifndef VAOLIB_OBS_DISABLED
    if (Enabled()) value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void Add(std::int64_t n) {
#ifndef VAOLIB_OBS_DISABLED
    if (Enabled()) value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// \brief Fixed-bucket histogram (Prometheus semantics: buckets are counts
/// of observations <= each upper bound, plus an implicit +Inf bucket).
class Histogram {
 public:
  /// \p upper_bounds must be strictly increasing; values above the last
  /// bound land in the +Inf bucket.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Records \p count observations of \p value. Safe from any thread.
  void Observe(double value, std::uint64_t count = 1);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Non-cumulative count of observations in bucket \p i (the +Inf bucket
  /// is index upper_bounds().size()).
  std::uint64_t BucketCount(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t TotalCount() const;
  double Sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Prometheus-style quantile estimate (q in [0,1], clamped): finds the
  /// bucket holding the q-th observation and interpolates linearly inside
  /// it. The first bucket's lower edge is 0 when its upper bound is
  /// positive (the Prometheus convention), otherwise the bound itself; a
  /// quantile landing in the +Inf bucket returns the last finite bound.
  /// Returns 0 for an empty histogram.
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> upper_bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds + inf
  std::atomic<double> sum_{0.0};
};

/// \brief Point-in-time copy of every registered metric's cumulative state.
/// `WindowedView` (obs/health.h) diffs successive snapshots into per-epoch
/// deltas; counters/histograms are monotone so deltas are non-negative once
/// writers have quiesced. Samples appear in registration order.
struct MetricsSnapshot {
  using Labels = std::map<std::string, std::string>;
  struct CounterSample {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    Labels labels;
    std::int64_t value = 0;
  };
  struct HistogramSample {
    std::string name;
    Labels labels;
    std::vector<double> upper_bounds;
    /// Non-cumulative per-bucket counts; the last slot is the +Inf bucket,
    /// so counts.size() == upper_bounds.size() + 1.
    std::vector<std::uint64_t> counts;
    double sum = 0.0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// \brief Process-wide registry of named metrics. Get* registers on first
/// use and returns a stable pointer; instrumentation sites should cache it
/// (e.g. in a function-local static) so the map lookup happens once.
class MetricsRegistry {
 public:
  using Labels = std::map<std::string, std::string>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under (\p name, \p labels), creating it
  /// if needed. The pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  /// \p upper_bounds is used only on first registration; later calls with
  /// the same identity return the existing histogram unchanged.
  Histogram* GetHistogram(const std::string& name, const Labels& labels,
                          std::vector<double> upper_bounds);

  /// Registers the # HELP text for a metric family. Applies to every label
  /// variant of \p name; families without registered help render a generic
  /// placeholder so the exposition stays promtool-clean.
  void SetHelp(const std::string& name, const std::string& help);

  /// Prometheus text exposition format (one # HELP + # TYPE line pair per
  /// family, preceding that family's samples).
  void RenderPrometheus(std::ostream& os) const;
  /// {"counters": [...], "gauges": [...], "histograms": [...]}.
  void RenderJson(std::ostream& os) const;

  /// Zeroes every registered metric (metrics stay registered). Test support
  /// and tick-delta capture; not intended for concurrent use with writers.
  void ResetAll();

  std::size_t metric_count() const;

  /// Racy-but-atomic copy of every registered metric (same read contract as
  /// Value()): exact once concurrent writers have quiesced. O(metrics).
  MetricsSnapshot Snapshot() const;

 private:
  struct Entry;

 public:
  /// \brief A fixed set of metric identities (name plus labels) to snapshot
  /// repeatedly. Each identity is resolved to its registry entry once, on
  /// the first Snapshot() that finds it registered; one that is not
  /// registered yet is simply absent from that snapshot.
  class Selection {
   public:
    using Identity = std::pair<std::string, Labels>;
    explicit Selection(std::vector<Identity> identities)
        : identities_(std::move(identities)),
          entries_(identities_.size(), nullptr) {}

   private:
    friend class MetricsRegistry;
    std::vector<Identity> identities_;
    std::vector<const Entry*> entries_;  // resolved, or null
  };

  /// Copy of only the metrics \p selection names (same read contract as
  /// Snapshot()); resolves the identities still unresolved. O(selection).
  MetricsSnapshot Snapshot(Selection* selection) const;

  /// The process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

 private:
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      Type type);
  /// Appends \p entry's current state to \p snapshot. Needs mutex_.
  static void AppendSample(const Entry& entry, MetricsSnapshot* snapshot);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
  std::map<std::string, Entry*> index_;
  std::map<std::string, std::string> help_;  // family name -> # HELP text
};

/// \brief The solver families whose work the observability layer breaks
/// down (one counter per kind: vaolib_solver_work_units_total{solver=...}).
enum class SolverKind : int {
  kPde = 0,
  kPde2d = 1,
  kOde = 2,
  kIvp = 3,
  kIntegral = 4,
  kRoot = 5,
};
inline constexpr int kNumSolverKinds = 6;

/// \brief Label value for \p kind ("pde", "pde2d", "ode", "ivp",
/// "integral", "root").
const char* SolverKindName(SolverKind kind);

/// \brief Global per-kind work counter (cached; cheap after first call).
Counter* SolverWorkCounter(SolverKind kind);

/// \brief Charges \p units of solver work to the global per-kind counter.
/// Called from the numeric solvers next to their WorkMeter charges.
inline void CountSolverWork(SolverKind kind, std::uint64_t units) {
#ifndef VAOLIB_OBS_DISABLED
  SolverWorkCounter(kind)->Add(units);
#else
  (void)kind;
  (void)units;
#endif
}

/// \brief Snapshot of the six solver-kind counters; Delta() gives per-query
/// attribution (exact when no other query runs concurrently).
struct SolverWorkSnapshot {
  std::uint64_t units[kNumSolverKinds] = {};

  static SolverWorkSnapshot Capture();
  SolverWorkSnapshot DeltaSince(const SolverWorkSnapshot& before) const;
};

}  // namespace vaolib::obs

#endif  // VAOLIB_OBS_METRICS_H_
