#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

namespace vaolib::obs {

namespace internal {

std::atomic<int> g_enabled{-1};

bool InitEnabledFromEnv() {
  bool enabled = true;
  if (const char* env = std::getenv("VAOLIB_OBS")) {
    enabled = !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
                std::strcmp(env, "false") == 0);
  }
  // Another thread may race the init; both compute the same value.
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
  return enabled;
}

std::size_t AssignStripe() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

namespace {

// Lock-free add for pre-C++20-fetch_add atomic<double> portability.
void AtomicAddDouble(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

// Serializes labels into the registry's index key (label order is already
// canonical because Labels is an ordered map).
std::string IndexKey(const std::string& name,
                     const MetricsRegistry::Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key.push_back('\x01');
    key += k;
    key.push_back('\x02');
    key += v;
  }
  return key;
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// # HELP text escapes only backslash and newline (exposition format).
std::string EscapePrometheusHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string EscapePrometheusLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

// {key="value",...} or "" when there are no labels.
std::string PrometheusLabels(const MetricsRegistry::Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapePrometheusLabel(v) + "\"";
  }
  out += "}";
  return out;
}

// Same, but with extra label appended (for histogram le buckets).
std::string PrometheusLabelsWith(const MetricsRegistry::Labels& labels,
                                 const std::string& key,
                                 const std::string& value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + EscapePrometheusLabel(v) + "\"";
  }
  if (!first) out += ",";
  out += key + "=\"" + EscapePrometheusLabel(value) + "\"";
  out += "}";
  return out;
}

std::string JsonLabels(const MetricsRegistry::Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + EscapeJson(k) + "\": \"" + EscapeJson(v) + "\"";
  }
  out += "}";
  return out;
}

// Finite doubles without trailing-zero noise (bucket bounds, sums).
std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(new std::atomic<std::uint64_t>[upper_bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= upper_bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value, std::uint64_t count) {
#ifndef VAOLIB_OBS_DISABLED
  if (!Enabled() || count == 0) return;
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - upper_bounds_.begin());
  counts_[bucket].fetch_add(count, std::memory_order_relaxed);
  AtomicAddDouble(sum_, value * static_cast<double>(count));
#else
  (void)value;
  (void)count;
#endif
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t total = TotalCount();
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < upper_bounds_.size(); ++i) {
    const std::uint64_t count = BucketCount(i);
    if (count == 0) continue;
    cumulative += count;
    if (static_cast<double>(cumulative) >= rank) {
      const double upper = upper_bounds_[i];
      const double lower =
          i == 0 ? (upper > 0.0 ? 0.0 : upper) : upper_bounds_[i - 1];
      const double into_bucket =
          rank - static_cast<double>(cumulative - count);
      return lower +
             (upper - lower) * (into_bucket / static_cast<double>(count));
    }
  }
  // The q-th observation sits in the +Inf bucket: the last finite bound is
  // the tightest sound answer a fixed-bucket histogram can give.
  return upper_bounds_.empty() ? 0.0 : upper_bounds_.back();
}

std::uint64_t Histogram::TotalCount() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= upper_bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= upper_bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const Labels& labels,
                                                      Type type) {
  const std::string key = IndexKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Same identity registered as a different type is a programming error;
    // return the existing entry and let the caller's Get* surface nullptr.
    return it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->type = type;
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  index_[key] = raw;
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  Entry* entry = FindOrCreate(name, labels, Type::kCounter);
  if (entry->type != Type::kCounter) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  Entry* entry = FindOrCreate(name, labels, Type::kGauge);
  if (entry->type != Type::kGauge) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         std::vector<double> upper_bounds) {
  Entry* entry = FindOrCreate(name, labels, Type::kHistogram);
  if (entry->type != Type::kHistogram) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return entry->histogram.get();
}

void MetricsRegistry::SetHelp(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  help_[name] = help;
}

void MetricsRegistry::RenderPrometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Group by family: every sample of a name must sit under a single
  // # HELP + # TYPE line pair (exposition-format requirement), even when
  // label variants of the family were registered with other metrics in
  // between.
  std::vector<const Entry*> ordered;
  ordered.reserve(entries_.size());
  std::map<std::string, bool> emitted;
  for (const auto& first : entries_) {
    if (emitted[first->name]) continue;
    emitted[first->name] = true;
    for (const auto& entry : entries_) {
      if (entry->name == first->name) ordered.push_back(entry.get());
    }
  }
  std::string last_typed_name;
  for (const Entry* entry : ordered) {
    if (entry->name != last_typed_name) {
      const char* type = entry->type == Type::kCounter    ? "counter"
                         : entry->type == Type::kGauge    ? "gauge"
                                                          : "histogram";
      const auto help_it = help_.find(entry->name);
      os << "# HELP " << entry->name << " "
         << EscapePrometheusHelp(help_it != help_.end()
                                     ? help_it->second
                                     : std::string("vaolib metric"))
         << "\n";
      os << "# TYPE " << entry->name << " " << type << "\n";
      last_typed_name = entry->name;
    }
    switch (entry->type) {
      case Type::kCounter:
        os << entry->name << PrometheusLabels(entry->labels) << " "
           << entry->counter->Value() << "\n";
        break;
      case Type::kGauge:
        os << entry->name << PrometheusLabels(entry->labels) << " "
           << entry->gauge->Value() << "\n";
        break;
      case Type::kHistogram: {
        const Histogram& h = *entry->histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += h.BucketCount(i);
          os << entry->name << "_bucket"
             << PrometheusLabelsWith(entry->labels, "le",
                                     FormatDouble(h.upper_bounds()[i]))
             << " " << cumulative << "\n";
        }
        cumulative += h.BucketCount(h.upper_bounds().size());
        os << entry->name << "_bucket"
           << PrometheusLabelsWith(entry->labels, "le", "+Inf") << " "
           << cumulative << "\n";
        os << entry->name << "_sum" << PrometheusLabels(entry->labels) << " "
           << FormatDouble(h.Sum()) << "\n";
        os << entry->name << "_count" << PrometheusLabels(entry->labels)
           << " " << cumulative << "\n";
        break;
      }
    }
  }
}

void MetricsRegistry::RenderJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto render_family = [&](Type type, const char* family) {
    os << "\"" << family << "\": [";
    bool first = true;
    for (const auto& entry : entries_) {
      if (entry->type != type) continue;
      if (!first) os << ", ";
      first = false;
      os << "{\"name\": \"" << EscapeJson(entry->name)
         << "\", \"labels\": " << JsonLabels(entry->labels);
      switch (type) {
        case Type::kCounter:
          os << ", \"value\": " << entry->counter->Value();
          break;
        case Type::kGauge:
          os << ", \"value\": " << entry->gauge->Value();
          break;
        case Type::kHistogram: {
          const Histogram& h = *entry->histogram;
          os << ", \"buckets\": [";
          for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
            if (i > 0) os << ", ";
            os << "{\"le\": " << FormatDouble(h.upper_bounds()[i])
               << ", \"count\": " << h.BucketCount(i) << "}";
          }
          os << "], \"inf_count\": "
             << h.BucketCount(h.upper_bounds().size())
             << ", \"sum\": " << FormatDouble(h.Sum())
             << ", \"count\": " << h.TotalCount();
          break;
        }
      }
      os << "}";
    }
    os << "]";
  };
  os << "{";
  render_family(Type::kCounter, "counters");
  os << ", ";
  render_family(Type::kGauge, "gauges");
  os << ", ";
  render_family(Type::kHistogram, "histograms");
  os << "}";
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    switch (entry->type) {
      case Type::kCounter:
        if (entry->counter) entry->counter->Reset();
        break;
      case Type::kGauge:
        if (entry->gauge) entry->gauge->Reset();
        break;
      case Type::kHistogram:
        if (entry->histogram) entry->histogram->Reset();
        break;
    }
  }
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::AppendSample(const Entry& entry,
                                   MetricsSnapshot* snapshot) {
  switch (entry.type) {
    case Type::kCounter:
      if (entry.counter) {
        snapshot->counters.push_back(
            {entry.name, entry.labels, entry.counter->Value()});
      }
      break;
    case Type::kGauge:
      if (entry.gauge) {
        snapshot->gauges.push_back(
            {entry.name, entry.labels, entry.gauge->Value()});
      }
      break;
    case Type::kHistogram:
      if (entry.histogram) {
        const Histogram& h = *entry.histogram;
        MetricsSnapshot::HistogramSample sample;
        sample.name = entry.name;
        sample.labels = entry.labels;
        sample.upper_bounds = h.upper_bounds();
        sample.counts.resize(h.upper_bounds().size() + 1);
        for (std::size_t i = 0; i <= h.upper_bounds().size(); ++i) {
          sample.counts[i] = h.BucketCount(i);
        }
        sample.sum = h.Sum();
        snapshot->histograms.push_back(std::move(sample));
      }
      break;
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& entry : entries_) AppendSample(*entry, &snapshot);
  return snapshot;
}

MetricsSnapshot MetricsRegistry::Snapshot(Selection* selection) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (std::size_t i = 0; i < selection->identities_.size(); ++i) {
    const Entry*& entry = selection->entries_[i];
    if (entry == nullptr) {
      const auto& [name, labels] = selection->identities_[i];
      const auto it = index_.find(IndexKey(name, labels));
      if (it == index_.end()) continue;
      entry = it->second;
    }
    AppendSample(*entry, &snapshot);
  }
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: instrumentation sites cache Counter* in static
  // storage, so the registry must outlive every static destructor.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

const char* SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kPde:
      return "pde";
    case SolverKind::kPde2d:
      return "pde2d";
    case SolverKind::kOde:
      return "ode";
    case SolverKind::kIvp:
      return "ivp";
    case SolverKind::kIntegral:
      return "integral";
    case SolverKind::kRoot:
      return "root";
  }
  return "unknown";
}

Counter* SolverWorkCounter(SolverKind kind) {
  static Counter* counters[kNumSolverKinds] = {};
  static std::once_flag once;
  std::call_once(once, []() {
    for (int k = 0; k < kNumSolverKinds; ++k) {
      counters[k] = MetricsRegistry::Global().GetCounter(
          "vaolib_solver_work_units_total",
          {{"solver", SolverKindName(static_cast<SolverKind>(k))}});
    }
  });
  return counters[static_cast<int>(kind)];
}

SolverWorkSnapshot SolverWorkSnapshot::Capture() {
  SolverWorkSnapshot snapshot;
  for (int k = 0; k < kNumSolverKinds; ++k) {
    snapshot.units[k] = SolverWorkCounter(static_cast<SolverKind>(k))->Value();
  }
  return snapshot;
}

SolverWorkSnapshot SolverWorkSnapshot::DeltaSince(
    const SolverWorkSnapshot& before) const {
  SolverWorkSnapshot delta;
  for (int k = 0; k < kNumSolverKinds; ++k) {
    delta.units[k] = units[k] - before.units[k];
  }
  return delta;
}

}  // namespace vaolib::obs
