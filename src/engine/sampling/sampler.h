// Copyright 2026 The vaolib Authors.
// Row samplers for the approximate query tier. All samplers are
// deterministic given their seed, so approximate answers replay exactly in
// the differential harness.
//
// PrefixSampler is the workhorse: an incremental simple-random-sample
// without replacement. Draw(k) extends the current sample by k fresh rows,
// and after any number of draws the selected prefix is an exact uniform
// SRSWOR of its size -- which is what lets SampledSumTask widen the sample
// mid-flight without bias. Internally it runs a sparse Fisher-Yates
// shuffle: only the O(n_drawn) displaced slots are materialized in a hash
// map, so sampling 10^4 rows out of 10^7 costs memory proportional to the
// sample, not the population.

#ifndef VAOLIB_ENGINE_SAMPLING_SAMPLER_H_
#define VAOLIB_ENGINE_SAMPLING_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace vaolib::engine::sampling {

/// \brief Incremental uniform sampling without replacement from
/// {0, ..., population-1}. Each Draw() appends fresh rows; the union of all
/// draws so far is an exact uniform SRSWOR of its size.
class PrefixSampler {
 public:
  PrefixSampler(std::size_t population, std::uint64_t seed)
      : population_(population), rng_(seed) {}

  /// Draws up to \p k fresh rows (fewer when the population is exhausted)
  /// and appends them to the internal sample. Returns the newly drawn rows.
  std::vector<std::size_t> Draw(std::size_t k);

  /// All rows drawn so far, in draw order.
  const std::vector<std::size_t>& sample() const { return sample_; }

  /// Rows drawn so far.
  std::size_t drawn() const { return sample_.size(); }

  /// Population size.
  std::size_t population() const { return population_; }

  /// True when every row has been drawn.
  bool Exhausted() const { return sample_.size() >= population_; }

 private:
  /// Virtual array slot: slots_[i] defaults to i when absent.
  std::size_t SlotValue(std::size_t i) const;

  std::size_t population_;
  Rng rng_;
  std::vector<std::size_t> sample_;
  /// Sparse Fisher-Yates displacement records.
  std::unordered_map<std::size_t, std::size_t> slots_;
};

/// \brief Fixed-size reservoir sample of {0, ..., population-1} via
/// Algorithm L (skip-based; O(k (1 + log(n/k))) RNG work). Returns the
/// selected rows sorted ascending; the whole population when k >= n.
std::vector<std::size_t> ReservoirSample(std::size_t population,
                                         std::size_t k, std::uint64_t seed);

}  // namespace vaolib::engine::sampling

#endif  // VAOLIB_ENGINE_SAMPLING_SAMPLER_H_
