#include "engine/cost_history.h"

#include <algorithm>
#include <cmath>

namespace vaolib::engine {

namespace {

using operators::kMaxRatio;
using operators::kMinDenominator;
using operators::kMinRatio;

bool RatioOf(double actual, double est, double* ratio) {
  if (actual < 0.0 || est < kMinDenominator) return false;
  const double r = actual / est;
  if (!std::isfinite(r)) return false;
  *ratio = std::clamp(r, kMinRatio, kMaxRatio);
  return true;
}

}  // namespace

CostHistory::CostHistory() : CostHistory(Options()) {}

CostHistory::CostHistory(Options options) : options_(options) {}

void CostHistory::Record(std::uint64_t id, int kind,
                         const operators::CostObservation& observation) {
  double cost_ratio = 1.0;
  double shrink_ratio = 1.0;
  const bool has_cost =
      RatioOf(observation.actual_cost, observation.est_cost, &cost_ratio);
  const bool has_shrink =
      RatioOf(observation.actual_shrink, observation.est_shrink,
              &shrink_ratio);
  if (!has_cost && !has_shrink) return;

  const Key key{id, kind};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (lru_.size() >= options_.max_entries && !lru_.empty()) {
      index_.erase(lru_.front().key);
      lru_.pop_front();
    }
    lru_.push_back(Node{key, Entry{}});
    it = index_.emplace(key, std::prev(lru_.end())).first;
  } else {
    // Touch: recording moves the entry to the most-recently-recorded end.
    lru_.splice(lru_.end(), lru_, it->second);
    it->second = std::prev(lru_.end());
  }
  Entry& entry = it->second->entry;
  if (has_cost) {
    entry.cost_ratio = entry.has_cost
                           ? options_.alpha * cost_ratio +
                                 (1.0 - options_.alpha) * entry.cost_ratio
                           : cost_ratio;
    entry.has_cost = true;
  }
  if (has_shrink) {
    entry.shrink_ratio =
        entry.has_shrink ? options_.alpha * shrink_ratio +
                               (1.0 - options_.alpha) * entry.shrink_ratio
                         : shrink_ratio;
    entry.has_shrink = true;
  }
  entry.weight += 1.0;
}

bool CostHistory::Predict(std::uint64_t id, int kind, double* cost_ratio,
                          double* shrink_ratio) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(Key{id, kind});
  if (it == index_.end()) return false;
  const Entry& entry = it->second->entry;
  if (entry.weight < options_.min_predict_weight) return false;
  if (cost_ratio != nullptr) {
    *cost_ratio = entry.has_cost ? entry.cost_ratio : 1.0;
  }
  if (shrink_ratio != nullptr) {
    *shrink_ratio = entry.has_shrink ? entry.shrink_ratio : 1.0;
  }
  return true;
}

void CostHistory::BeginTick() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    it->entry.weight *= options_.decay;
    if (it->entry.weight < options_.min_weight) {
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t CostHistory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

bool CostHistory::Lookup(std::uint64_t id, int kind, Entry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(Key{id, kind});
  if (it == index_.end()) return false;
  if (out != nullptr) *out = it->second->entry;
  return true;
}

std::vector<std::pair<std::pair<std::uint64_t, int>, CostHistory::Entry>>
CostHistory::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<Key, Entry>> out;
  out.reserve(lru_.size());
  for (const Node& node : lru_) out.emplace_back(node.key, node.entry);
  return out;
}

}  // namespace vaolib::engine
