#include "vao/pde_profile_cache.h"

#include <utility>

#include "obs/metrics.h"

namespace vaolib::vao {

namespace {

thread_local PdeProfileCache* active_cache = nullptr;

// Process-wide event counters and byte gauge, in the style of the bounds
// cache's; every live cache adds its own bytes to the gauge.
struct CacheMetrics {
  obs::Counter* hit;
  obs::Counter* miss;
  obs::Counter* eviction;
  obs::Gauge* bytes;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    registry.SetHelp("vaolib_pde_profile_cache_events_total",
                     "PDE profile cache lookups (hit, miss) and LRU "
                     "evictions.");
    registry.SetHelp("vaolib_pde_profile_cache_bytes",
                     "Bytes of t = 0 PDE profiles held by live caches.");
    const char* const name = "vaolib_pde_profile_cache_events_total";
    return CacheMetrics{
        registry.GetCounter(name, {{"event", "hit"}}),
        registry.GetCounter(name, {{"event", "miss"}}),
        registry.GetCounter(name, {{"event", "eviction"}}),
        registry.GetGauge("vaolib_pde_profile_cache_bytes"),
    };
  }();
  return metrics;
}

std::size_t ProfileBytes(const std::vector<double>& profile) {
  return profile.size() * sizeof(double);
}

}  // namespace

PdeProfileCache::~PdeProfileCache() {
  Metrics().bytes->Add(-static_cast<std::int64_t>(bytes_));
}

PdeProfileCache::Scope::Scope(PdeProfileCache* cache)
    : previous_(active_cache) {
  active_cache = cache;
}

PdeProfileCache::Scope::~Scope() { active_cache = previous_; }

PdeProfileCache* PdeProfileCache::Active() { return active_cache; }

std::uint64_t PdeProfileCache::Intern(const std::vector<double>& problem_key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ids_.try_emplace(problem_key, ids_.size()).first->second;
}

int PdeProfileCache::StepsLeft(std::uint64_t id,
                               const numeric::PdeGrid& grid) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(KeyOf(id, grid));
  if (it == slots_.end()) return grid.t_steps;
  if (it->second.profile != nullptr) return 0;
  return grid.t_steps - it->second.march.steps;
}

PdeProfileCache::Lookup PdeProfileCache::Acquire(std::uint64_t id,
                                                 const numeric::PdeGrid& grid,
                                                 bool wait) {
  const Key key = KeyOf(id, grid);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, Slot{}).first;
      it->second.lru_position = lru_.end();
    }
    Slot& slot = it->second;
    if (slot.profile != nullptr) {
      lru_.splice(lru_.begin(), lru_, slot.lru_position);
      ++hits_;
      Metrics().hit->Increment();
      return Lookup{slot.profile, false, {}};
    }
    if (!slot.owned) {
      slot.owned = true;
      ++misses_;
      Metrics().miss->Increment();
      return Lookup{nullptr, true, std::move(slot.march)};
    }
    if (!wait) return Lookup{};
    published_.wait(lock);
  }
}

void PdeProfileCache::Publish(std::uint64_t id, const numeric::PdeGrid& grid,
                              Profile profile) {
  const Key key = KeyOf(id, grid);
  const std::size_t added = ProfileBytes(*profile);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[key];
    slot.profile = std::move(profile);
    slot.owned = false;
    slot.march = {};
    lru_.push_front(key);
    slot.lru_position = lru_.begin();
    bytes_ += added;
    Metrics().bytes->Add(static_cast<std::int64_t>(added));
    EvictLocked();
  }
  published_.notify_all();
}

void PdeProfileCache::Suspend(std::uint64_t id,
                              const numeric::PdeGrid& grid,
                              numeric::PdeMarch march) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[KeyOf(id, grid)];
    slot.owned = false;
    slot.march = std::move(march);
  }
  published_.notify_all();
}

void PdeProfileCache::Abandon(std::uint64_t id,
                              const numeric::PdeGrid& grid) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(KeyOf(id, grid));
    if (it != slots_.end() && it->second.profile == nullptr) slots_.erase(it);
  }
  published_.notify_all();
}

void PdeProfileCache::EvictLocked() {
  // The newest entry always stays, so a published profile is readable by
  // the waiters it wakes even if it alone exceeds the cap.
  while (bytes_ > kCapacityBytes && lru_.size() > 1) {
    const auto it = slots_.find(lru_.back());
    const std::size_t freed = ProfileBytes(*it->second.profile);
    bytes_ -= freed;
    Metrics().bytes->Add(-static_cast<std::int64_t>(freed));
    ++evictions_;
    Metrics().eviction->Increment();
    slots_.erase(it);
    lru_.pop_back();
  }
}

std::size_t PdeProfileCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t PdeProfileCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::uint64_t PdeProfileCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t PdeProfileCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t PdeProfileCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace vaolib::vao
