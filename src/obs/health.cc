#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/flight_recorder.h"

namespace vaolib::obs {

namespace {

const MetricsSnapshot::CounterSample* FindCounter(
    const MetricsSnapshot& snapshot, const std::string& name,
    const MetricsRegistry::Labels& labels) {
  for (const auto& sample : snapshot.counters) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramSample* FindHistogram(
    const MetricsSnapshot& snapshot, const std::string& name,
    const MetricsRegistry::Labels& labels) {
  for (const auto& sample : snapshot.histograms) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

}  // namespace

WindowedView::WindowedView(MetricsRegistry* registry)
    : WindowedView(registry, Options()) {}

WindowedView::WindowedView(MetricsRegistry* registry, Options options)
    : registry_(registry),
      options_(std::move(options)),
      selection_(options_.series) {
  if (options_.window_count == 0) options_.window_count = 1;
  Push(0.0, /*has_clock=*/false);  // baseline
}

void WindowedView::Push(double now_seconds, bool has_clock) {
  Epoch epoch;
  epoch.snapshot = options_.series.empty() ? registry_->Snapshot()
                                           : registry_->Snapshot(&selection_);
  epoch.at_seconds = now_seconds;
  epoch.has_clock = has_clock;
  ring_.push_back(std::move(epoch));
  while (ring_.size() > options_.window_count + 1) ring_.pop_front();
}

void WindowedView::Advance() {
  Push(0.0, /*has_clock=*/false);
  ++total_advances_;
}

void WindowedView::Advance(double now_seconds) {
  Push(now_seconds, /*has_clock=*/true);
  ++total_advances_;
}

std::pair<std::size_t, std::size_t> WindowedView::Span(std::size_t k) const {
  const std::size_t newest = ring_.size() - 1;
  if (k == 0 || k > newest) k = newest;
  return {newest - k, newest};
}

std::uint64_t WindowedView::CounterDelta(const std::string& name,
                                         const MetricsRegistry::Labels& labels,
                                         std::size_t k) const {
  if (epochs() == 0) return 0;
  const auto [older, newest] = Span(k);
  const auto* now = FindCounter(ring_[newest].snapshot, name, labels);
  if (now == nullptr) return 0;
  const auto* then = FindCounter(ring_[older].snapshot, name, labels);
  // A counter registered mid-span reads as starting from zero.
  const std::uint64_t base = then != nullptr ? then->value : 0;
  return now->value >= base ? now->value - base : 0;
}

double WindowedView::CounterRate(const std::string& name,
                                 const MetricsRegistry::Labels& labels,
                                 std::size_t k) const {
  if (epochs() == 0) return 0.0;
  const auto [older, newest] = Span(k);
  const double delta =
      static_cast<double>(CounterDelta(name, labels, newest - older));
  if (ring_[older].has_clock && ring_[newest].has_clock) {
    const double elapsed = ring_[newest].at_seconds - ring_[older].at_seconds;
    if (elapsed > 0.0) return delta / elapsed;
  }
  return delta / static_cast<double>(newest - older);
}

std::uint64_t WindowedView::HistogramCountDelta(
    const std::string& name, const MetricsRegistry::Labels& labels,
    std::size_t k) const {
  if (epochs() == 0) return 0;
  const auto [older, newest] = Span(k);
  const auto* now = FindHistogram(ring_[newest].snapshot, name, labels);
  if (now == nullptr) return 0;
  const auto* then = FindHistogram(ring_[older].snapshot, name, labels);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < now->counts.size(); ++i) {
    const std::uint64_t base =
        (then != nullptr && i < then->counts.size()) ? then->counts[i] : 0;
    if (now->counts[i] > base) total += now->counts[i] - base;
  }
  return total;
}

double WindowedView::HistogramSumDelta(const std::string& name,
                                       const MetricsRegistry::Labels& labels,
                                       std::size_t k) const {
  if (epochs() == 0) return 0.0;
  const auto [older, newest] = Span(k);
  const auto* now = FindHistogram(ring_[newest].snapshot, name, labels);
  if (now == nullptr) return 0.0;
  const auto* then = FindHistogram(ring_[older].snapshot, name, labels);
  return now->sum - (then != nullptr ? then->sum : 0.0);
}

double WindowedView::HistogramQuantile(const std::string& name,
                                       const MetricsRegistry::Labels& labels,
                                       double q, std::size_t k) const {
  if (epochs() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto [older, newest] = Span(k);
  const auto* now = FindHistogram(ring_[newest].snapshot, name, labels);
  if (now == nullptr) return 0.0;
  const auto* then = FindHistogram(ring_[older].snapshot, name, labels);

  std::vector<std::uint64_t> delta(now->counts.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < now->counts.size(); ++i) {
    const std::uint64_t base =
        (then != nullptr && i < then->counts.size()) ? then->counts[i] : 0;
    if (now->counts[i] > base) delta[i] = now->counts[i] - base;
    total += delta[i];
  }
  if (total == 0) return 0.0;

  // Same interpolation contract as Histogram::Quantile, over the deltas.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  const auto& bounds = now->upper_bounds;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (delta[i] == 0) continue;
    cumulative += delta[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double upper = bounds[i];
      const double lower = i == 0 ? (upper > 0.0 ? 0.0 : upper)
                                  : bounds[i - 1];
      const double into_bucket =
          rank - static_cast<double>(cumulative - delta[i]);
      return lower +
             (upper - lower) * (into_bucket / static_cast<double>(delta[i]));
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

ProgressRing::ProgressRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void ProgressRing::Record(const ProgressSample& sample) {
  samples_.push_back(sample);
  while (samples_.size() > capacity_) samples_.pop_front();
  ++total_recorded_;
}

EtaEstimate ProgressRing::EstimateEta(double target_width) const {
  EtaEstimate eta;
  if (samples_.empty() || !(target_width > 0.0)) return eta;
  const ProgressSample& last = samples_.back();
  if (!std::isfinite(last.width)) return eta;
  if (last.converged || last.width <= target_width) {
    eta.known = true;
    return eta;
  }
  // At minimum object width more budget cannot tighten the interval, so
  // there is no honest ETA to the target.
  if (last.limited_by_min_width) return eta;

  // Fit the per-tick log-width shrink over the most recent samples.
  constexpr std::size_t kFitWindow = 8;
  const std::size_t n = std::min(samples_.size(), kFitWindow);
  if (n < 2) return eta;
  const ProgressSample& first = samples_[samples_.size() - n];
  if (!std::isfinite(first.width) || first.width <= 0.0 || last.width <= 0.0) {
    return eta;
  }
  const double per_tick =
      (std::log(first.width) - std::log(last.width)) /
      static_cast<double>(n - 1);
  if (!(per_tick > 1e-12)) return eta;  // flat or widening trajectory

  eta.known = true;
  eta.ticks = std::log(last.width / target_width) / per_tick;
  double work = 0.0;
  for (std::size_t i = samples_.size() - n; i < samples_.size(); ++i) {
    work += static_cast<double>(samples_[i].work_spent);
  }
  eta.work_units = eta.ticks * (work / static_cast<double>(n));
  return eta;
}

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

std::vector<MetricsRegistry::Selection::Identity> SeriesReadBy(
    const std::vector<SloSpec>& specs) {
  std::vector<MetricsRegistry::Selection::Identity> series;
  const auto add = [&](const std::string& name,
                       const MetricsRegistry::Labels& labels) {
    if (name.empty()) return;
    MetricsRegistry::Selection::Identity identity(name, labels);
    if (std::find(series.begin(), series.end(), identity) == series.end()) {
      series.push_back(std::move(identity));
    }
  };
  for (const SloSpec& spec : specs) {
    add(spec.bad_metric, spec.bad_labels);
    add(spec.total_metric, spec.total_labels);
    add(spec.histogram_metric, spec.histogram_labels);
  }
  return series;
}

SloMonitor::SloMonitor(const WindowedView* view, std::vector<SloSpec> specs)
    : view_(view), specs_(std::move(specs)) {
  MetricsRegistry* registry = view_->registry();
  statuses_.resize(specs_.size());
  gauges_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const std::string& name = specs_[i].name;
    statuses_[i].name = name;
    gauges_[i].state = registry->GetGauge("vaolib_slo_state", {{"slo", name}});
    gauges_[i].burn_fast = registry->GetGauge(
        "vaolib_slo_burn_milli", {{"slo", name}, {"window", "fast"}});
    gauges_[i].burn_slow = registry->GetGauge(
        "vaolib_slo_burn_milli", {{"slo", name}, {"window", "slow"}});
  }
  health_gauge_ = registry->GetGauge("vaolib_health_state");
  critical_counter_ =
      registry->GetCounter("vaolib_slo_critical_transitions_total");
  registry->SetHelp("vaolib_health_state",
                    "Worst SLO state: 0 healthy, 1 degraded, 2 critical.");
  registry->SetHelp("vaolib_slo_state",
                    "Per-SLO state: 0 healthy, 1 degraded, 2 critical.");
  registry->SetHelp("vaolib_slo_burn_milli",
                    "Per-SLO burn rate x1000 over the fast/slow window.");
  registry->SetHelp("vaolib_slo_critical_transitions_total",
                    "SLO transitions into the critical state.");
}

HealthState SloMonitor::Evaluate() {
  HealthState worst = HealthState::kHealthy;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SloStatus& status = statuses_[i];
    const HealthState previous = status.state;

    auto observe = [&](std::size_t window_epochs) -> double {
      if (!spec.bad_metric.empty()) {
        const std::uint64_t bad =
            view_->CounterDelta(spec.bad_metric, spec.bad_labels,
                                window_epochs);
        const std::uint64_t total = view_->CounterDelta(
            spec.total_metric, spec.total_labels, window_epochs);
        return total > 0 ? static_cast<double>(bad) /
                               static_cast<double>(total)
                         : 0.0;
      }
      return view_->HistogramQuantile(spec.histogram_metric,
                                      spec.histogram_labels, spec.quantile,
                                      window_epochs);
    };
    const double denom =
        !spec.bad_metric.empty() ? spec.budget : spec.limit;
    status.fast_value = observe(spec.fast_epochs);
    status.slow_value = observe(spec.slow_epochs);
    status.fast_burn = denom > 0.0 ? status.fast_value / denom : 0.0;
    status.slow_burn = denom > 0.0 ? status.slow_value / denom : 0.0;

    if (status.fast_burn >= spec.critical_burn &&
        status.slow_burn >= spec.critical_burn) {
      status.state = HealthState::kCritical;
    } else if (status.fast_burn >= spec.degraded_burn ||
               status.slow_burn >= spec.degraded_burn) {
      status.state = HealthState::kDegraded;
    } else {
      status.state = HealthState::kHealthy;
    }
    worst = std::max(worst, status.state);

    if (status.state == HealthState::kCritical &&
        previous != HealthState::kCritical) {
      ++critical_transitions_;
      critical_counter_->Increment();
      FlightRecorder::Global().DumpIfArmed("slo-critical-" + spec.name);
    }
    gauges_[i].state->Set(static_cast<std::int64_t>(status.state));
    const auto milli = [](double burn) {
      // Saturate: gauges are int64 and a cold denominator can burn huge.
      return static_cast<std::int64_t>(
          std::min(burn * 1000.0, 1.0e12));
    };
    gauges_[i].burn_fast->Set(milli(status.fast_burn));
    gauges_[i].burn_slow->Set(milli(status.slow_burn));
  }
  state_ = worst;
  health_gauge_->Set(static_cast<std::int64_t>(state_));
  return state_;
}

}  // namespace vaolib::obs
