// Copyright 2026 The vaolib Authors.
// CostHistory: the engine-side store behind operators::CostFeedback.
//
// Keyed by (object position, solver kind), each entry keeps EWMA'd
// actual/estimated ratios for per-iteration cost and bound shrink, plus a
// decaying sample weight. A caller that runs the same rows every tick
// passes one store as OperatorOptions::feedback to each tick's operators
// and calls BeginTick() between ticks, so an object that lies about its
// estimates on tick 1 is scored honestly on tick 2 even though its result
// objects are rebuilt from scratch.
//
// Bounded: at most max_entries live at once; recording past the bound
// evicts the least-recently-recorded entry. Decayed: BeginTick() scales
// every weight by `decay` and drops entries below `min_weight`, so stale
// entries age out.
//
// Thread-safe (one mutex); the operators only record on their serial
// adaptive paths, so the recorded sample sequence -- and therefore the
// EWMA state -- is invariant under the operator's thread count.

#ifndef VAOLIB_ENGINE_COST_HISTORY_H_
#define VAOLIB_ENGINE_COST_HISTORY_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "operators/cost_feedback.h"

namespace vaolib::engine {

class CostHistory : public operators::CostFeedback {
 public:
  struct Options {
    /// EWMA weight of the newest sample: ratio' = alpha*sample +
    /// (1-alpha)*ratio. The first sample sets the ratio directly.
    double alpha = 0.25;
    /// Per-tick multiplier applied to every entry's weight by BeginTick().
    double decay = 0.5;
    /// Entries whose decayed weight falls below this are dropped at tick
    /// boundaries.
    double min_weight = 0.05;
    /// Predict() answers only for entries with at least this much weight.
    double min_predict_weight = 0.5;
    /// Hard cap on live entries; recording past it evicts the
    /// least-recently-recorded entry.
    std::size_t max_entries = 4096;
  };

  /// One entry's learned state (exposed for tests and audits).
  struct Entry {
    double cost_ratio = 1.0;    ///< EWMA of actual/estimated cost
    double shrink_ratio = 1.0;  ///< EWMA of actual/estimated shrink
    bool has_cost = false;      ///< any cost sample recorded yet
    bool has_shrink = false;    ///< any shrink sample recorded yet
    double weight = 0.0;        ///< decayed sample count
  };

  CostHistory();
  explicit CostHistory(Options options);

  // CostFeedback:
  void Record(std::uint64_t id, int kind,
              const operators::CostObservation& observation) override;
  bool Predict(std::uint64_t id, int kind, double* cost_ratio,
               double* shrink_ratio) const override;

  /// Decays all weights and drops entries below min_weight. Call once per
  /// standing-query tick, before the tick's operators run.
  void BeginTick();

  /// Number of live entries.
  std::size_t size() const;

  /// Looks up one entry; returns false when absent.
  bool Lookup(std::uint64_t id, int kind, Entry* out) const;

  /// All live entries as ((id, kind), entry), most recently recorded last.
  /// For tests and the calibration audit.
  std::vector<std::pair<std::pair<std::uint64_t, int>, Entry>> Snapshot()
      const;

  const Options& options() const { return options_; }

 private:
  using Key = std::pair<std::uint64_t, int>;
  struct Node {
    Key key;
    Entry entry;
  };

  Options options_;
  mutable std::mutex mu_;
  /// LRU by recording time: least-recently-recorded at the front.
  std::list<Node> lru_;
  std::map<Key, std::list<Node>::iterator> index_;
};

}  // namespace vaolib::engine

#endif  // VAOLIB_ENGINE_COST_HISTORY_H_
