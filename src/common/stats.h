// Copyright 2026 The vaolib Authors.
// Streaming statistics accumulators used by workload analysis and benches.

#ifndef VAOLIB_COMMON_STATS_H_
#define VAOLIB_COMMON_STATS_H_

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace vaolib {

/// \brief Streaming mean/variance/min/max accumulator (Welford's algorithm;
/// numerically stable for long streams).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added.
  std::size_t count() const { return count_; }

  /// Arithmetic mean (0 when empty).
  double Mean() const { return mean_; }

  /// Population variance (0 when fewer than 2 observations).
  double Variance() const;

  /// Sample variance with Bessel's correction (0 when fewer than 2).
  double SampleVariance() const;

  /// Population standard deviation.
  double StdDev() const;

  /// Minimum observation (+inf when empty).
  double Min() const { return min_; }

  /// Maximum observation (-inf when empty).
  double Max() const { return max_; }

  /// Sum of all observations.
  double Sum() const { return mean_ * static_cast<double>(count_); }

  /// Resets to the empty state.
  void Reset();

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Computes the q-quantile (q in [0,1]) of \p values by linear
/// interpolation between order statistics. Copies and sorts; O(n log n).
/// Returns NaN for an empty input.
double Quantile(std::vector<double> values, double q);

/// \brief Compensated (Neumaier/Kahan-Babuska) streaming summation. Keeps a
/// running correction term so that sums of values with wildly different
/// magnitudes -- the ill-conditioned case the naive `total += x` loop gets
/// wrong -- stay accurate to within a few ulps of the exact result.
class NeumaierSum {
 public:
  /// Adds one term.
  void Add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;  // low-order bits of sum_ lost in t
    } else {
      comp_ += (x - t) + sum_;  // low-order bits of x lost in t
    }
    sum_ = t;
  }

  /// The compensated running total.
  double Sum() const { return sum_ + comp_; }

  /// Resets to zero.
  void Reset() {
    sum_ = 0.0;
    comp_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// \brief Inverse of the standard normal CDF (the z-value with
/// P(Z <= z) = p). Acklam's rational approximation, |relative error|
/// < 1.2e-9 over (0, 1). Returns +/-infinity at the endpoints and NaN
/// outside [0, 1].
double NormalQuantile(double p);

}  // namespace vaolib

#endif  // VAOLIB_COMMON_STATS_H_
