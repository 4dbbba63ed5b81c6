// Copyright 2026 The vaolib Authors.

#include "operators/score_corrector.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/metrics.h"

namespace vaolib::operators {

namespace {

double ClampRatio(double r) {
  if (!std::isfinite(r)) return 1.0;
  return std::min(kMaxRatio, std::max(kMinRatio, r));
}

}  // namespace

ScoreCorrector::ScoreCorrector(const OperatorOptions& options,
                               const std::vector<vao::ResultObject*>& objects)
    : objects_(&objects),
      feedback_(options.feedback),
      correcting_(StrategyUsesCorrections(options.strategy)),
      probing_(options.strategy == StrategyKind::kSentinelGreedy),
      flip_(options.mutate_flip_correction),
      sentinel_probes_(std::max(options.sentinel_probes, 0)) {
  if (correcting_) snapshot_ = obs::CalibrationSnapshot::Capture();
}

ScoreCorrector::Corrected ScoreCorrector::ApplyRatios(
    const Bounds& cur, const Bounds& est, double raw_cost, double cost_ratio,
    double shrink_ratio) const {
  if (flip_) {
    // Planted-defect mode: the correction direction is inverted, so a
    // learned "this object is 4x cheaper than it claims" becomes "4x more
    // expensive". The differential calibration audit must catch this.
    cost_ratio = 1.0 / cost_ratio;
    shrink_ratio = 1.0 / shrink_ratio;
  }
  Corrected out;
  out.cost = std::max(1.0, raw_cost * cost_ratio);
  // Rescale the predicted per-side tightening, then renest inside the
  // current bounds so downstream benefit formulas stay sound.
  double t_lo = std::max(0.0, est.lo - cur.lo) * shrink_ratio;
  double t_hi = std::max(0.0, cur.hi - est.hi) * shrink_ratio;
  const double width = cur.Width();
  const double total = t_lo + t_hi;
  if (total > width && total > kMinDenominator) {
    const double scale = width / total;
    t_lo *= scale;
    t_hi *= scale;
  }
  out.est = Bounds(cur.lo + t_lo, cur.hi - t_hi);
  out.changed = true;
  return out;
}

ScoreCorrector::Corrected ScoreCorrector::Correct(std::size_t i,
                                                  const Bounds& cur,
                                                  const Bounds& est,
                                                  double raw_cost) const {
  if (!correcting_) return Corrected{raw_cost, est, false};
  const int kind = (*objects_)[i]->calibration_kind();

  // (1) Per-object history: the strongest signal -- it has seen THIS
  // object (keyed by its position) before.
  if (feedback_ != nullptr) {
    double cost_ratio = 1.0;
    double shrink_ratio = 1.0;
    if (feedback_->Predict(i, kind, &cost_ratio, &shrink_ratio)) {
      return ApplyRatios(cur, est, raw_cost, cost_ratio, shrink_ratio);
    }
  }

  // (2) Sentinel fit of the object's correlation group.
  if (probing_ && i < group_of_.size() && group_of_[i] != nullptr &&
      group_of_[i]->fitted) {
    return ApplyRatios(cur, est, raw_cost, group_of_[i]->cost_ratio,
                       group_of_[i]->shrink_ratio);
  }

  // (3) Process-wide calibration bias for the object's solver kind
  // (additive: the account sums actual - est errors).
  if (kind >= 0 && kind < obs::kNumSolverKinds &&
      snapshot_.kinds[kind].samples > 0) {
    const auto& k = snapshot_.kinds[kind];
    const double sign = flip_ ? -1.0 : 1.0;
    Corrected out;
    out.cost = std::max(1.0, raw_cost + sign * k.CostBias());
    double lo = est.lo + sign * k.LoBias();
    double hi = est.hi + sign * k.HiBias();
    // Renest inside the current bounds (a prediction outside them is
    // useless to the benefit formulas and would break their invariants).
    lo = std::min(std::max(lo, cur.lo), cur.hi);
    hi = std::min(std::max(hi, lo), cur.hi);
    out.est = Bounds(lo, hi);
    out.changed = true;
    return out;
  }

  // (4) No signal: raw estimates, bit-exactly.
  return Corrected{raw_cost, est, false};
}

void ScoreCorrector::EnsureGroups() {
  if (groups_built_) return;
  groups_built_ = true;
  const std::size_t n = objects_->size();
  group_of_.assign(n, nullptr);
  probe_state_.assign(n, 0);
  std::map<std::string, std::vector<std::size_t>> keyed;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key = (*objects_)[i]->correlation_key();
    if (key.empty()) continue;
    keyed[std::move(key)].push_back(i);
  }
  for (auto& [key, members] : keyed) {
    // A singleton group has nobody to generalise the probe to.
    if (members.size() < 2) continue;
    Group& group = groups_[key];
    group.members = members;
    // Probe the cheapest members by raw est cost (tie: lowest index), but
    // always leave at least one member to benefit from the fit.
    std::vector<std::size_t> order = members;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return (*objects_)[a]->est_cost() <
                              (*objects_)[b]->est_cost();
                     });
    const std::size_t quota =
        std::min<std::size_t>(static_cast<std::size_t>(sentinel_probes_),
                              members.size() - 1);
    group.probes.assign(order.begin(), order.begin() + quota);
    for (std::size_t p : group.probes) probe_state_[p] = 1;
    for (std::size_t m : members) group_of_[m] = &group;
  }
}

bool ScoreCorrector::NextProbe(const std::vector<std::size_t>& iterable,
                               std::size_t* probe) {
  if (!probing_) return false;
  EnsureGroups();
  for (auto& [key, group] : groups_) {
    if (group.probes_retired >= group.probes.size()) continue;
    for (std::size_t p : group.probes) {
      if (p >= probe_state_.size() || probe_state_[p] != 1) continue;
      if (std::find(iterable.begin(), iterable.end(), p) != iterable.end()) {
        *probe = p;
        return true;
      }
      // Converged / pruned / stalled before its probe ran: retire without
      // an observation so the probe queue cannot wedge the operator.
      RecordProbe(p, 0.0, false, 0.0, false);
    }
  }
  return false;
}

void ScoreCorrector::RecordProbe(std::size_t i, double cost_ratio_sample,
                                 bool has_cost, double shrink_ratio_sample,
                                 bool has_shrink) {
  if (i >= probe_state_.size() || probe_state_[i] != 1) return;
  probe_state_[i] = 2;
  Group* group = group_of_[i];
  if (group == nullptr) return;
  ++group->probes_retired;
  if (has_cost) {
    group->cost_ratio_sum += cost_ratio_sample;
    ++group->cost_samples;
  }
  if (has_shrink) {
    group->shrink_ratio_sum += shrink_ratio_sample;
    ++group->shrink_samples;
  }
  if (group->probes_retired >= group->probes.size()) {
    group->cost_ratio =
        group->cost_samples > 0
            ? ClampRatio(group->cost_ratio_sum / group->cost_samples)
            : 1.0;
    group->shrink_ratio =
        group->shrink_samples > 0
            ? ClampRatio(group->shrink_ratio_sum / group->shrink_samples)
            : 1.0;
    group->fitted = true;
  }
}

void ScoreCorrector::Record(const IterateRecord& record,
                            OperatorStats* stats) {
  const std::size_t i = record.index;
  const double raw_cost = std::max(record.est_cost, 1.0);
  const double actual_cost = record.actual_cost;
  const double actual_shrink =
      std::max(0.0, record.before.Width() - record.after.Width());
  const double est_shrink = std::max(0.0, record.est.lo - record.before.lo) +
                            std::max(0.0, record.before.hi - record.est.hi);

  if (stats != nullptr) {
    // Audit the prediction as it stood at decision time (the record has
    // not been fed back yet, so Correct() reproduces it).
    const Corrected corrected =
        Correct(i, record.before, record.est, raw_cost);
    if (actual_cost >= 0.0) {
      ++stats->cost_err_samples;
      stats->raw_cost_abs_err += std::abs(actual_cost - raw_cost);
      stats->corrected_cost_abs_err += std::abs(actual_cost - corrected.cost);
    }
    if (corrected.changed) ++stats->corrected_decisions;
  }

  if (probing_ && i < probe_state_.size() && probe_state_[i] == 1) {
    const bool has_cost = actual_cost >= 0.0 && raw_cost > kMinDenominator;
    const bool has_shrink = est_shrink > kMinDenominator;
    RecordProbe(i, has_cost ? actual_cost / raw_cost : 0.0, has_cost,
                has_shrink ? actual_shrink / est_shrink : 0.0, has_shrink);
  }

  if (feedback_ != nullptr) {
    CostObservation observation;
    observation.est_cost = raw_cost;
    observation.actual_cost = actual_cost;
    observation.est_shrink = est_shrink;
    observation.actual_shrink = actual_shrink;
    feedback_->Record(i, record.kind, observation);
  }
}

}  // namespace vaolib::operators
