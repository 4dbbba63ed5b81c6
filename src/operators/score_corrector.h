// Copyright 2026 The vaolib Authors.
// ScoreCorrector: the predictive-planning engine shared by the aggregate
// IterationTasks.
//
// It does three jobs on the serial adaptive loop:
//
//   * Correct: rescales a candidate's raw estCPU/estL/estH before the
//     greedy comparison. Precedence per candidate: (1) the per-(object,
//     kind) CostFeedback history, (2) the sentinel fit of the object's
//     correlation group, (3) the live CalibrationSnapshot bias for the
//     object's solver kind. A candidate matching none of the three scores
//     on its raw estimates bit-exactly.
//   * Probe: under kSentinelGreedy, overrides the strategy's pick until
//     each correlation group's probe quota (the cheapest members by raw
//     estCPU) has been observed; the observed-vs-predicted ratios fitted
//     from those probes become correction source (2) for the rest of the
//     group.
//   * Record: consumes the one IterateRecord the owning task captured
//     around each of its iterates (IterationTask::IterateObserved): feeds
//     the sentinel fit, the actual-vs-estimated cost and shrink into the
//     CostFeedback store, and the raw/corrected MAE audit into
//     OperatorStats. Tasks iterate only on paths whose iterate sequence is
//     thread-count invariant (the parallel coarse pre-phase runs outside
//     the task seam), so the history an operator run leaves behind is too.
//
// Everything is inert (no allocation, no snapshot capture) unless the
// options enable feedback or a corrected strategy.

#ifndef VAOLIB_OPERATORS_SCORE_CORRECTOR_H_
#define VAOLIB_OPERATORS_SCORE_CORRECTOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bounds.h"
#include "obs/trace.h"
#include "operators/operator_base.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief One observed Iterate(): the object's estimates just before it and
/// what it actually did. IterationTask::IterateObserved captures it once
/// and hands the same record to every active sink -- the decision trace,
/// the ScoreCorrector and the estimator-calibration accounts.
struct IterateRecord {
  std::size_t index = 0;  ///< the object's position in the task
  int kind = -1;          ///< its calibration_kind()
  Bounds before = Bounds(0.0, 0.0);
  Bounds est = Bounds(0.0, 0.0);  ///< est_bounds() before the iterate
  double est_cost = 0.0;          ///< raw est_cost() before the iterate
  Bounds after = Bounds(0.0, 0.0);
  /// Work units attributed to this iterate; < 0 = unknown (no step meter,
  /// or a threaded step whose per-object spend is unattributable).
  double actual_cost = -1.0;
};

class ScoreCorrector {
 public:
  /// \p objects must outlive the corrector (the owning task guarantees
  /// this). Captures the live CalibrationSnapshot when the strategy is a
  /// corrected one.
  ScoreCorrector(const OperatorOptions& options,
                 const std::vector<vao::ResultObject*>& objects);

  /// True when observations should be recorded (a feedback store is
  /// attached).
  bool recording() const { return feedback_ != nullptr; }
  /// True when Record() has work to do: a feedback store to feed or
  /// sentinel probes to fit.
  bool observing() const { return recording() || probing_; }
  /// True when candidate estimates should be corrected before scoring.
  bool correcting() const { return correcting_; }
  /// True when sentinel probing should override picks.
  bool probing() const { return probing_; }

  /// A candidate's corrected estimates. When `changed` is false the values
  /// are the raw inputs, bit-exactly.
  struct Corrected {
    double cost = 1.0;
    Bounds est = Bounds(0.0, 0.0);
    bool changed = false;
  };

  /// Corrects object \p i's raw estimates: \p cur its current bounds,
  /// \p est its raw est_bounds(), \p raw_cost its raw est cost (>= 1).
  Corrected Correct(std::size_t i, const Bounds& cur, const Bounds& est,
                    double raw_cost) const;

  /// Sentinel pick override: when a correlation-group probe is still
  /// pending among \p iterable (object indices, in any order), sets \p probe
  /// and returns true. Pending probes that are no longer iterable
  /// (converged, pruned, stalled) are retired without an observation so
  /// the queue cannot wedge.
  bool NextProbe(const std::vector<std::size_t>& iterable,
                 std::size_t* probe);

  /// Records one observed iterate of object \p record.index: updates the
  /// sentinel fit, the feedback store, and the \p stats audit (nullable).
  /// A negative record.actual_cost contributes shrink only.
  void Record(const IterateRecord& record, OperatorStats* stats);

 private:
  struct Group {
    std::vector<std::size_t> members;
    std::vector<std::size_t> probes;  ///< pending, cheapest-first
    std::size_t probes_retired = 0;
    double cost_ratio_sum = 0.0;
    double shrink_ratio_sum = 0.0;
    int cost_samples = 0;
    int shrink_samples = 0;
    bool fitted = false;
    double cost_ratio = 1.0;
    double shrink_ratio = 1.0;
  };

  void EnsureGroups();
  void RecordProbe(std::size_t i, double cost_ratio_sample, bool has_cost,
                   double shrink_ratio_sample, bool has_shrink);
  Corrected ApplyRatios(const Bounds& cur, const Bounds& est,
                        double raw_cost, double cost_ratio,
                        double shrink_ratio) const;

  const std::vector<vao::ResultObject*>* objects_;
  CostFeedback* feedback_ = nullptr;
  bool correcting_ = false;
  bool probing_ = false;
  bool flip_ = false;
  int sentinel_probes_ = 0;
  obs::CalibrationSnapshot snapshot_;

  bool groups_built_ = false;
  std::map<std::string, Group> groups_;
  /// Per object: group pointer (stable: std::map nodes) or null.
  std::vector<Group*> group_of_;
  /// Per object: 1 = pending probe, 2 = observed/retired probe, 0 = not a
  /// probe.
  std::vector<int> probe_state_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_SCORE_CORRECTOR_H_
