#include "engine/sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace vaolib::engine::sampling {

std::size_t PrefixSampler::SlotValue(std::size_t i) const {
  const auto it = slots_.find(i);
  return it == slots_.end() ? i : it->second;
}

std::vector<std::size_t> PrefixSampler::Draw(std::size_t k) {
  std::vector<std::size_t> fresh;
  fresh.reserve(k);
  while (k-- > 0 && sample_.size() < population_) {
    // Classic Fisher-Yates step over the virtual array [drawn, population):
    // pick a uniform slot j, take its value, and move the front value into
    // the hole so it stays drawable.
    const std::size_t front = sample_.size();
    const std::size_t j =
        static_cast<std::size_t>(rng_.UniformInt(
            static_cast<std::int64_t>(front),
            static_cast<std::int64_t>(population_ - 1)));
    const std::size_t picked = SlotValue(j);
    slots_[j] = SlotValue(front);
    slots_.erase(front);  // slot `front` is never read again; reclaim it
    sample_.push_back(picked);
    fresh.push_back(picked);
  }
  return fresh;
}

std::vector<std::size_t> ReservoirSample(std::size_t population,
                                         std::size_t k, std::uint64_t seed) {
  std::vector<std::size_t> out;
  if (k == 0 || population == 0) return out;
  if (k >= population) {
    out.resize(population);
    std::iota(out.begin(), out.end(), std::size_t{0});
    return out;
  }
  Rng rng(seed);
  out.resize(k);
  std::iota(out.begin(), out.end(), std::size_t{0});
  // Algorithm L (Li 1994): skip ahead geometrically instead of testing
  // every row.
  double w = std::exp(std::log(rng.NextDouble()) / static_cast<double>(k));
  std::size_t i = k - 1;
  while (true) {
    const double skip =
        std::floor(std::log(rng.NextDouble()) / std::log(1.0 - w));
    if (!std::isfinite(skip) || skip >= static_cast<double>(population)) {
      break;
    }
    i += static_cast<std::size_t>(skip) + 1;
    if (i >= population) break;
    const std::size_t victim = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(k) - 1));
    out[victim] = i;
    w *= std::exp(std::log(rng.NextDouble()) / static_cast<double>(k));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vaolib::engine::sampling
