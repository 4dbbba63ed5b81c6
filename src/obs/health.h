// Copyright 2026 The vaolib Authors.
// Runtime health plane: windowed metric views, per-query convergence
// progress rings, and multi-window burn-rate SLO monitors.
//
// Everything here is pull-driven and clock-free by design:
//   * WindowedView snapshots the (cumulative) MetricsRegistry into a ring
//     of epochs. Epochs advance when the owner calls Advance() -- from the
//     server tick loop or with an injected wall-clock timestamp -- so no
//     now() call ever sits on a hot path, and deterministic runs produce
//     deterministic windows.
//   * ProgressRing records one bound-width sample per standing-query tick
//     and answers "how wide, shrinking how fast, done when?" from the
//     retained trajectory alone.
//   * SloMonitor evaluates declarative objectives over a fast and a slow
//     window of the view, Google-SRE multi-window burn-rate style:
//         burn = observed_bad_fraction / error_budget
//     degraded when either window burns >= degraded_burn, critical when
//     BOTH windows burn >= critical_burn (the fast window confirms the
//     slow one so a single bad epoch cannot page). A transition into
//     critical arms the flight recorder (obs/flight_recorder.h).
//
// Overhead contract: the hot path pays exactly one MetricsRegistry
// snapshot per epoch advance -- of only the series the SLOs read, when the
// view is built with SeriesReadBy() -- plus one ProgressRing store per
// query-tick; all rate/quantile/burn queries run on the introspection
// (INSPECT/METRICS) path. bench/obs02_health_overhead gates the total at
// <2% of tick cost.

#ifndef VAOLIB_OBS_HEALTH_H_
#define VAOLIB_OBS_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace vaolib::obs {

/// \brief A metrics view windowed into a ring of epochs. Each Advance()
/// closes one epoch by snapshotting the registry's cumulative state;
/// queries then read counter/histogram *deltas* over the last K closed
/// epochs. Not thread-safe: the owner serializes Advance() and queries
/// (the server dispatcher holds its tick lock across both).
class WindowedView {
 public:
  struct Options {
    /// Closed epochs retained (the ring's depth); K in queries is clamped
    /// to this.
    std::size_t window_count = 64;
    /// Metrics each epoch snapshots; empty snapshots the whole registry.
    /// Queries about any other metric read as 0.
    std::vector<MetricsRegistry::Selection::Identity> series;
  };

  /// Captures the baseline snapshot immediately, so the first closed epoch
  /// covers exactly the activity after construction. \p registry must
  /// outlive the view.
  explicit WindowedView(MetricsRegistry* registry);
  WindowedView(MetricsRegistry* registry, Options options);

  /// Closes the current epoch (tick-driven; no wall clock recorded).
  void Advance();
  /// Closes the current epoch with an injected timestamp; rates over
  /// epochs that all carry timestamps come back per second instead of per
  /// epoch. \p now_seconds must be monotonically non-decreasing.
  void Advance(double now_seconds);

  /// Closed epochs currently retained (<= window_count).
  std::size_t epochs() const { return ring_.size() - 1; }
  /// Epochs closed over the view's lifetime (not capped by the ring).
  std::uint64_t total_advances() const { return total_advances_; }
  const Options& options() const { return options_; }
  MetricsRegistry* registry() const { return registry_; }

  /// Counter increment over the last \p k closed epochs (k clamped to
  /// [1, epochs()]; 0 means "all retained"). Unregistered identities read
  /// as 0.
  std::uint64_t CounterDelta(const std::string& name,
                             const MetricsRegistry::Labels& labels,
                             std::size_t k) const;

  /// CounterDelta per second when every epoch in the span carries an
  /// injected timestamp, otherwise per epoch. 0 when the span is empty.
  double CounterRate(const std::string& name,
                     const MetricsRegistry::Labels& labels,
                     std::size_t k) const;

  /// Histogram observation count / sum over the last \p k closed epochs.
  std::uint64_t HistogramCountDelta(const std::string& name,
                                    const MetricsRegistry::Labels& labels,
                                    std::size_t k) const;
  double HistogramSumDelta(const std::string& name,
                           const MetricsRegistry::Labels& labels,
                           std::size_t k) const;

  /// Quantile estimate over the bucket deltas of the last \p k closed
  /// epochs (same interpolation contract as Histogram::Quantile). Returns
  /// 0 when no observation landed in the span.
  double HistogramQuantile(const std::string& name,
                           const MetricsRegistry::Labels& labels, double q,
                           std::size_t k) const;

 private:
  struct Epoch {
    MetricsSnapshot snapshot;
    double at_seconds = 0.0;
    bool has_clock = false;
  };

  void Push(double now_seconds, bool has_clock);
  /// Indices into ring_ spanning the last k closed epochs: (older, newest).
  std::pair<std::size_t, std::size_t> Span(std::size_t k) const;

  MetricsRegistry* registry_;
  Options options_;
  /// options_.series resolved against the registry (unused when empty).
  MetricsRegistry::Selection selection_;
  std::deque<Epoch> ring_;  // oldest first; size() == epochs() + 1
  std::uint64_t total_advances_ = 0;
};

/// \brief One standing query's convergence state after one tick.
struct ProgressSample {
  std::uint64_t tick = 0;        ///< dispatcher tick sequence number
  double width = 0.0;            ///< H - L of the tick's answer interval
  double rel_width = 0.0;        ///< width / max(|L|, |H|), 0 when both 0
  std::uint64_t work_spent = 0;  ///< work units this query spent this tick
  bool converged = false;
  /// The query finished its tick without reaching the requested epsilon:
  /// its objects are at minimum width, so more budget cannot help.
  bool limited_by_min_width = false;
};

/// \brief Ticks/work remaining until a query's interval reaches a target
/// width, extrapolated from its retained trajectory.
struct EtaEstimate {
  bool known = false;
  double ticks = 0.0;
  double work_units = 0.0;
};

/// \brief Bounded ring of per-tick progress samples for one standing
/// query. Not thread-safe (owned and serialized by the dispatcher).
class ProgressRing {
 public:
  explicit ProgressRing(std::size_t capacity = 32);

  void Record(const ProgressSample& sample);

  std::size_t size() const { return samples_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_recorded() const { return total_recorded_; }
  /// \p i = 0 is the oldest retained sample.
  const ProgressSample& at(std::size_t i) const { return samples_[i]; }
  const ProgressSample& newest() const { return samples_.back(); }

  /// Extrapolates the per-tick log-width shrink rate of the last few
  /// samples to estimate ticks/work until width <= \p target_width. The
  /// samples are measured widths, so the rate already is the actual
  /// shrink. Unknown when the ring is empty, the trajectory is flat or
  /// widening, the newest sample is limited_by_min_width, or widths are not
  /// finite. A query already at or below the target reports {known, 0, 0}.
  EtaEstimate EstimateEta(double target_width) const;

 private:
  std::size_t capacity_;
  std::deque<ProgressSample> samples_;  // oldest first
  std::uint64_t total_recorded_ = 0;
};

/// \brief Overall health verdict, ordered by severity.
enum class HealthState : int {
  kHealthy = 0,
  kDegraded = 1,
  kCritical = 2,
};

/// "healthy" / "degraded" / "critical".
const char* HealthStateName(HealthState state);

/// \brief One declarative objective. Two shapes:
///   * ratio (bad_metric non-empty): observed value = bad/total counter
///     deltas over the window, error budget = \p budget (max allowed bad
///     fraction), burn = value / budget.
///   * quantile (bad_metric empty): observed value = \p quantile of
///     histogram_metric's deltas over the window, burn = value / limit.
struct SloSpec {
  std::string name;

  std::string bad_metric;
  MetricsRegistry::Labels bad_labels;
  std::string total_metric;
  MetricsRegistry::Labels total_labels;
  double budget = 0.01;

  std::string histogram_metric;
  MetricsRegistry::Labels histogram_labels;
  double quantile = 0.99;
  double limit = 0.0;

  /// Window sizes in closed epochs (clamped to the view's retained depth).
  std::size_t fast_epochs = 6;
  std::size_t slow_epochs = 36;
  /// Either window burning >= degraded_burn marks the SLO degraded; BOTH
  /// windows burning >= critical_burn mark it critical.
  double degraded_burn = 1.0;
  double critical_burn = 2.0;
};

/// \brief One objective's evaluated state.
struct SloStatus {
  std::string name;
  double fast_value = 0.0;  ///< observed bad fraction or quantile
  double slow_value = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  HealthState state = HealthState::kHealthy;
};

/// \brief Every metric identity \p specs read (deduplicated, in first-use
/// order): the WindowedView::Options::series that serves exactly them.
std::vector<MetricsRegistry::Selection::Identity> SeriesReadBy(
    const std::vector<SloSpec>& specs);

/// \brief Evaluates a set of SloSpecs against a WindowedView and maintains
/// the process health gauges:
///   vaolib_health_state                 0|1|2 (worst SLO)
///   vaolib_slo_state{slo=...}           0|1|2
///   vaolib_slo_burn_milli{slo=,window=} burn rate x1000, saturated
/// A transition into critical bumps vaolib_slo_critical_transitions_total
/// and calls FlightRecorder::Global().DumpIfArmed("slo-critical-<name>").
/// Not thread-safe (serialized by the owner, like the view).
class SloMonitor {
 public:
  /// \p view must outlive the monitor; gauges register in view->registry().
  SloMonitor(const WindowedView* view, std::vector<SloSpec> specs);

  /// Re-evaluates every objective over the view's closed epochs. Cheap
  /// enough for once-per-epoch use.
  HealthState Evaluate();

  HealthState state() const { return state_; }
  const std::vector<SloStatus>& statuses() const { return statuses_; }
  const std::vector<SloSpec>& specs() const { return specs_; }
  /// Count of SLO transitions into critical since construction.
  std::uint64_t critical_transitions() const { return critical_transitions_; }

 private:
  /// One spec's gauges, resolved at construction.
  struct SpecGauges {
    Gauge* state = nullptr;
    Gauge* burn_fast = nullptr;
    Gauge* burn_slow = nullptr;
  };

  const WindowedView* view_;
  std::vector<SloSpec> specs_;
  std::vector<SloStatus> statuses_;
  std::vector<SpecGauges> gauges_;
  Gauge* health_gauge_ = nullptr;
  Counter* critical_counter_ = nullptr;
  HealthState state_ = HealthState::kHealthy;
  std::uint64_t critical_transitions_ = 0;
};

}  // namespace vaolib::obs

#endif  // VAOLIB_OBS_HEALTH_H_
