// Summary statistics and span arithmetic of the perfbench harness.
//
// Timings are reported as a median plus the highest tail percentile that
// still has at least ten samples beyond it (nearest-rank definition), with
// the sample count. Span self time is a span's duration minus the part of
// that interval its child spans cover.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank quantile of \p sorted (ascending): the smallest sample with
/// at least q*n samples at or below it. 0 for an empty vector.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples beyond the nearest-rank q-quantile of n samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The highest of p99.9 / p99 / p90 that has at least kTailSamples samples
/// beyond it among \p n samples; 0 when even p90 has fewer (n < 100).
inline double TailLevel(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (SamplesBeyond(n, q) >= kTailSamples) return q;
  }
  return 0.0;
}

/// Median, p90 and the rule's tail percentile of a sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double tail_level = 0.0;  ///< TailLevel(count); 0 when undefined
  double tail = 0.0;        ///< the tail_level quantile
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const double v : samples) total += v;
  s.mean = total / static_cast<double>(samples.size());
  s.p50 = NearestRank(samples, 0.5);
  s.p90 = NearestRank(samples, 0.9);
  s.tail_level = TailLevel(samples.size());
  s.tail = s.tail_level > 0.0 ? NearestRank(samples, s.tail_level) : 0.0;
  return s;
}

/// A closed time interval in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of \p parent minus the length of the union of \p children clipped
/// to \p parent: the parent's self time. Children may overlap or spill over
/// the parent's edges; neither is counted twice or outside the parent.
inline std::int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start;
  for (const Interval& child : children) {
    const std::int64_t lo = std::max(child.start, cursor);
    const std::int64_t hi = std::min(child.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return std::max<std::int64_t>(0, parent.end - parent.start - covered);
}

/// 64-bit FNV-1a, for payload digests that must match run to run.
class Fnv1a {
 public:
  void Add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void AddString(std::string_view s) {
    Add(s.data(), s.size());
    const unsigned char separator = 0xff;
    Add(&separator, 1);
  }
  void AddU64(std::uint64_t v) { Add(&v, sizeof(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
