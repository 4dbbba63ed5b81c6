#include "operators/iteration_task.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "vao/batch_iterate.h"
#include "vao/parallel.h"

namespace vaolib::operators {

namespace {

// Greedy score ingredients of Section 5.2: weighted predicted error
// reduction (bounds \p cur moving to \p est) and estimated CPU cycles (the
// strategy divides them).
double SumReduction(const Bounds& cur, const Bounds& est, double weight) {
  return std::max(0.0, weight * ((est.lo - cur.lo) + (cur.hi - est.hi)));
}

double EstCostOf(const vao::ResultObject& object) {
  return static_cast<double>(
      std::max<std::uint64_t>(object.est_cost(), 1));
}

double GreedyScore(const vao::ResultObject& object, double weight) {
  return SumReduction(object.bounds(), object.est_bounds(), weight) /
         EstCostOf(object);
}

std::uint64_t Log2Ceil(std::size_t n) {
  std::uint64_t bits = 1;
  while (n > 1) {
    ++bits;
    n >>= 1;
  }
  return bits;
}

// The greedy benefit/cost score of the candidate the strategy picked (zero
// when it was not scored).
double ChosenScore(const std::vector<IterationCandidate>& candidates,
                   std::size_t chosen) {
  for (const IterationCandidate& candidate : candidates) {
    if (candidate.index == chosen) {
      return candidate.benefit / std::max(candidate.cost, 1.0);
    }
  }
  return 0.0;
}

// The pre-iterate half of object \p index's record.
IterateRecord Before(std::size_t index, const vao::ResultObject& object) {
  IterateRecord record;
  record.index = index;
  record.kind = object.calibration_kind();
  record.before = object.bounds();
  record.est = object.est_bounds();
  record.est_cost = static_cast<double>(object.est_cost());
  return record;
}

// Batch width of one adaptive cycle: only the batch-aware strategies read
// OperatorOptions::batch_k; everything else stays at the paper's one object
// per cycle.
std::size_t CycleBatchK(const OperatorOptions& options) {
  if (options.strategy != StrategyKind::kBatchGreedy) return 1;
  return static_cast<std::size_t>(std::max(options.batch_k, 1));
}

// The input checks MIN/MAX and TOP-K share, labelled \p who: at least one
// object, all non-null with well-formed bounds, and epsilon at least the
// largest input minWidth (footnote 10: bounds within epsilon cannot be
// guaranteed when epsilon is tighter than an input's convergence floor).
Status ValidateExtremeInputs(const std::vector<vao::ResultObject*>& objects,
                             double epsilon, const char* who) {
  if (objects.empty()) {
    return Status::InvalidArgument(std::string(who) +
                                   " over an empty object set");
  }
  double max_min_width = 0.0;
  for (const auto* object : objects) {
    if (object == nullptr) {
      return Status::InvalidArgument(std::string(who) +
                                     " over a null result object");
    }
    VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(*object, who));
    max_min_width = std::max(max_min_width, object->min_width());
  }
  if (epsilon < max_min_width) {
    return Status::InvalidArgument(
        "precision constraint " + std::to_string(epsilon) +
        " is below the largest input minWidth " +
        std::to_string(max_min_width));
  }
  return Status::OK();
}

}  // namespace

Status ValidateMinMaxInputs(const std::vector<vao::ResultObject*>& objects,
                            double epsilon) {
  return ValidateExtremeInputs(objects, epsilon, "MIN/MAX");
}

Status ValidateTopKInputs(const std::vector<vao::ResultObject*>& objects,
                          std::size_t k, double epsilon) {
  VAOLIB_RETURN_IF_ERROR(ValidateExtremeInputs(objects, epsilon, "TOP-K"));
  if (k < 1 || k > objects.size()) {
    return Status::InvalidArgument("TOP-K k must lie in [1, n]");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IterationTask base
// ---------------------------------------------------------------------------

std::uint64_t IterationTask::Prepay(std::uint64_t units) {
  if (done_ || !parked_ || blocked_ == nullptr) return 0;
  return blocked_->Prepay(units);
}

Status IterationTask::Step(WorkMeter* meter, std::uint64_t allowance) {
  if (done_) {
    return Status::FailedPrecondition(std::string(name()) +
                                      " task stepped after completion");
  }
  parked_ = false;
  blocked_ = nullptr;
  allowance_ = allowance;
  const Status status = StepImpl(meter);
  allowance_ = kUnlimited;
  if (!status.ok()) {
    done_ = true;
    converged_ = false;
  }
  return status;
}

void IterationTask::Publish(const IterateRecord& record, const char* phase,
                            double score, double raw_score, bool trace,
                            bool correct) {
  if (trace) {
    obs::Decision decision;
    decision.op = name();
    decision.phase = phase;
    decision.object_index = static_cast<std::uint64_t>(record.index);
    decision.lo_before = record.before.lo;
    decision.hi_before = record.before.hi;
    decision.est_lo = record.est.lo;
    decision.est_hi = record.est.hi;
    decision.est_cost = record.est_cost;
    decision.lo_after = record.after.lo;
    decision.hi_after = record.after.hi;
    decision.actual_cost = std::max(record.actual_cost, 0.0);
    decision.score = score;
    decision.raw_score = raw_score;
    obs::RecordDecision(decision);
  }
  if (correct) sink_corrector_->Record(record, &stats_);
  if (record.kind >= 0 && record.actual_cost >= 0.0 && obs::Enabled()) {
    stats_.calibration[record.kind].Add(record.est_cost, record.est.lo,
                                        record.est.hi, record.actual_cost,
                                        record.after.lo, record.after.hi);
    obs::RecordEstimatorSample(static_cast<obs::SolverKind>(record.kind),
                               record.est_cost, record.est.lo, record.est.hi,
                               record.actual_cost, record.after.lo,
                               record.after.hi);
  }
}

Status IterationTask::IterateObserved(std::size_t index,
                                      vao::ResultObject* object,
                                      const char* phase, WorkMeter* meter,
                                      double score, double raw_score) {
  const bool trace = obs::DecisionTraceActive();
  const bool correct =
      sink_corrector_ != nullptr && sink_corrector_->observing();
  const bool calibrate = meter != nullptr && obs::Enabled() &&
                         object->calibration_kind() >= 0;
  if (!trace && !correct && !calibrate) return object->Iterate();

  IterateRecord record = Before(index, *object);
  const std::uint64_t work_before = meter != nullptr ? meter->Total() : 0;
  VAOLIB_RETURN_IF_ERROR(object->Iterate());
  record.after = object->bounds();
  if (meter != nullptr) {
    record.actual_cost = static_cast<double>(meter->Total() - work_before);
  }
  Publish(record, phase, score, raw_score, trace, correct);
  return Status::OK();
}

std::vector<Status> IterationTask::IterateObservedBatch(
    const std::vector<vao::ResultObject*>& objects,
    const std::vector<std::size_t>& chosen, const char* phase,
    WorkMeter* meter, const std::vector<double>& scores,
    const std::vector<double>& raw_scores, int threads) {
  const bool attributed = threads < 2 && meter != nullptr;
  const bool trace = obs::DecisionTraceActive();
  const bool correct =
      sink_corrector_ != nullptr && sink_corrector_->observing();
  const bool calibrate = attributed && obs::Enabled();

  std::vector<vao::ResultObject*> batch;
  batch.reserve(chosen.size());
  for (const std::size_t i : chosen) batch.push_back(objects[i]);

  // One record per chosen object some sink wants, in chosen order.
  std::vector<std::optional<IterateRecord>> records;
  if (trace || correct || calibrate) {
    records.resize(chosen.size());
    for (std::size_t j = 0; j < chosen.size(); ++j) {
      if (trace || correct ||
          (calibrate && batch[j]->calibration_kind() >= 0)) {
        records[j] = Before(chosen[j], *batch[j]);
      }
    }
  }

  std::vector<Status> statuses;
  std::vector<std::uint64_t> spent;
  if (threads < 2) {
    vao::BatchIterateOutcome outcome = vao::IterateBatch(batch, meter);
    statuses = std::move(outcome.statuses);
    spent = std::move(outcome.spent);
  } else {
    statuses = vao::StepAll(batch, threads);
  }

  for (std::size_t j = 0; j < records.size(); ++j) {
    if (!records[j].has_value() || !statuses[j].ok()) continue;
    IterateRecord& record = *records[j];
    record.after = batch[j]->bounds();
    if (attributed) record.actual_cost = static_cast<double>(spent[j]);
    const double score = j < scores.size() ? scores[j] : 0.0;
    Publish(record, phase, score,
            j < raw_scores.size() ? raw_scores[j] : score, trace, correct);
  }
  return statuses;
}

void IterationTask::TrackObjects(std::size_t n, const char* label,
                                 const char* stall_dump) {
  label_ = label;
  stall_dump_ = stall_dump;
  stall_.assign(n, StallGuard());
  iterates_.assign(n, 0);
}

Status IterationTask::Settle(std::size_t i, const vao::ResultObject& object,
                             std::uint64_t bulk) {
  // NaN/Inf or inverted bounds must surface as NumericError, never flow
  // into a comparison or a sum.
  VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(object, label_));
  if (reads_notices_) Noticed(i, object);
  if (notices_ != nullptr) notices_->Report(this, i, object);
  const std::uint64_t iterates = bulk > 0 ? bulk : 1;
  iterates_[i] += iterates;
  if (bulk == 0 && !stall_[i].stalled() &&
      stall_[i].Observe(object.bounds().Width())) {
    obs::RecordInstant("stall", name(), obs::TraceDetail::kCoarse);
    obs::FlightRecorder::Global().DumpIfArmed(stall_dump_);
  }
  stats_.iterations += iterates;
  if (stats_.iterations > kMaxTotalIterations) {
    return Status::NotConverged(std::string(label_) +
                                " exceeded max_total_iterations");
  }
  return Status::OK();
}

OperatorStats IterationTask::TalliedStats() const {
  OperatorStats stats = stats_;
  stats.objects_touched = static_cast<std::uint64_t>(
      std::count_if(iterates_.begin(), iterates_.end(),
                    [](std::uint64_t n) { return n > 0; }));
  stats.stalled_objects = static_cast<std::uint64_t>(
      std::count_if(stall_.begin(), stall_.end(),
                    [](const StallGuard& guard) { return guard.stalled(); }));
  return stats;
}

SettleNotices::SettleNotices(const std::vector<IterationTask*>& tasks) {
  for (IterationTask* task : tasks) {
    if (task->notices_ != nullptr) continue;
    task->notices_ = this;
    attached_.push_back(task);
    if (task->reads_notices_) readers_.push_back(task);
  }
}

SettleNotices::~SettleNotices() {
  for (IterationTask* task : attached_) task->notices_ = nullptr;
}

void SettleNotices::Report(const IterationTask* from, std::size_t hint,
                           const vao::ResultObject& object) const {
  for (IterationTask* reader : readers_) {
    if (reader != from) reader->Noticed(hint, object);
  }
}

Status DriveTask(IterationTask* task, WorkMeter* meter) {
  while (!task->Done()) VAOLIB_RETURN_IF_ERROR(task->Step(meter));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AggregateIterationTask: the shared adaptive cycle
// ---------------------------------------------------------------------------

AggregateIterationTask::AggregateIterationTask(
    const OperatorOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::unique_ptr<IterationStrategy> strategy, ExtremeKind kind,
    const char* label)
    : options_(options),
      objects_(objects),
      kind_(kind),
      strategy_(std::move(strategy)),
      corrector_(options_, objects_),
      listed_(objects.size(), false) {
  ObserveWith(&corrector_);
  TrackObjects(objects.size(), label, "refinement-stall");
}

void AggregateIterationTask::Noticed(std::size_t hint,
                                     const vao::ResultObject& object) {
  std::size_t i = hint;
  if (i >= objects_.size() || objects_[i] != &object) {
    if (index_of_.empty()) {
      for (std::size_t j = 0; j < objects_.size(); ++j) {
        index_of_.emplace(objects_[j], j);
      }
    }
    const auto found = index_of_.find(&object);
    if (found == index_of_.end()) return;
    i = found->second;
  }
  if (listed_[i]) return;
  listed_[i] = true;
  feed_.push_back(i);
}

Status AggregateIterationTask::CoarsePhase() {
  // Optional parallel phase: bulk-converge everything to the coarse width on
  // the pool; the adaptive loop starts from those states. Its iterates run
  // outside the observed seam and settle here, per object.
  std::vector<std::uint64_t> coarse_iterations;
  VAOLIB_RETURN_IF_ERROR(ParallelCoarseConverge(
      objects_, options_.threads, options_.coarse_width,
      options_.coarse_max_steps, &coarse_iterations));
  for (std::size_t i = 0; i < coarse_iterations.size(); ++i) {
    stats_.coarse_iterations += coarse_iterations[i];
    if (coarse_iterations[i] == 0) continue;
    VAOLIB_RETURN_IF_ERROR(Settle(i, *objects_[i], coarse_iterations[i]));
  }
  return Status::OK();
}

Status AggregateIterationTask::IterateOne(std::size_t i,
                                          std::uint64_t* phase_counter,
                                          const char* phase, WorkMeter* meter,
                                          double score, double raw_score) {
  VAOLIB_RETURN_IF_ERROR(
      IterateObserved(i, objects_[i], phase, meter, score, raw_score));
  VAOLIB_RETURN_IF_ERROR(Settle(i, *objects_[i]));
  ++*phase_counter;
  return Status::OK();
}

Status AggregateIterationTask::IteratePicks(
    const std::vector<std::size_t>& picks, const char* phase,
    WorkMeter* meter, const std::vector<double>& scores,
    const std::vector<double>& raw_scores) {
  if (picks.size() == 1) {
    return IterateOne(picks.front(), &stats_.greedy_iterations, phase, meter,
                      scores.front(), raw_scores.front());
  }
  // Batch cycle (kBatchGreedy with batch_k > 1): the picks refine together
  // through the lockstep kernels.
  for (const Status& status : IterateObservedBatch(objects_, picks, phase,
                                                   meter, scores, raw_scores)) {
    VAOLIB_RETURN_IF_ERROR(status);
  }
  for (std::size_t j = 0; j < picks.size(); ++j) {
    VAOLIB_RETURN_IF_ERROR(Settle(picks[j], *objects_[picks[j]]));
    ++stats_.greedy_iterations;
  }
  return Status::OK();
}

template <typename Benefit>
Status AggregateIterationTask::GreedyCycle(
    const std::vector<std::size_t>& iterable, std::size_t charge,
    const char* phase, WorkMeter* meter, const Benefit& benefit,
    const std::vector<double>* weights) {
  // Under an allowance, offer only the candidates whose next iterate it
  // can pay for, this cycle's chooseIter charge included; park if none can.
  std::vector<std::size_t> affordable;
  const std::vector<std::size_t>* offered = &iterable;
  if (allowance() != kUnlimited) {
    for (const std::size_t i : iterable) {
      if (Affordable(*objects_[i], charge)) affordable.push_back(i);
    }
    if (affordable.empty()) {
      ParkOnCheapest(objects_, iterable);
      return Status::OK();
    }
    offered = &affordable;
  }

  ++stats_.choose_steps;
  if (meter != nullptr) meter->Charge(WorkKind::kChooseIter, charge);

  // Sentinel probing (kSentinelGreedy): spend this cycle on a pending
  // correlation-group probe instead of the strategy's pick; the observed
  // outcome re-ranks the probe's whole group.
  std::size_t probe = 0;
  if (corrector_.NextProbe(*offered, &probe)) {
    return IterateOne(probe, &stats_.greedy_iterations, "sentinel", meter);
  }

  // Raw candidates are kept apart only when a correction can change the
  // scores; otherwise the raw scores are the scored ones.
  const bool correcting = corrector_.correcting();
  std::vector<IterationCandidate> candidates;
  std::vector<IterationCandidate> raw_candidates;
  candidates.reserve(offered->size());
  if (strategy_->WantsScores()) {
    if (correcting) raw_candidates.reserve(offered->size());
    for (const std::size_t i : *offered) {
      const double raw_cost = EstCostOf(*objects_[i]);
      const double raw_benefit = benefit(i, EstViewOf(i));
      double cost = raw_cost;
      double scored_benefit = raw_benefit;
      if (correcting) {
        const ScoreCorrector::Corrected corrected = corrector_.Correct(
            i, objects_[i]->bounds(), objects_[i]->est_bounds(), raw_cost);
        if (corrected.changed) {
          cost = corrected.cost;
          scored_benefit = benefit(i, View(corrected.est));
        }
      }
      const double width = weights != nullptr
                               ? (*weights)[i] * objects_[i]->bounds().Width()
                               : ViewOf(i).Width();
      candidates.push_back(
          IterationCandidate{i, scored_benefit, cost, width});
      if (correcting) {
        raw_candidates.push_back(
            IterationCandidate{i, raw_benefit, raw_cost, width});
      }
    }
  } else {
    for (const std::size_t i : *offered) {
      candidates.push_back(IterationCandidate{i, 0.0, 1.0, 0.0});
    }
  }
  const std::vector<IterationCandidate>& raws =
      raw_candidates.empty() ? candidates : raw_candidates;
  std::vector<std::size_t> picks;
  strategy_->ChooseBatch(candidates, CycleBatchK(options_), &picks);
  if (allowance() != kUnlimited) {
    // A batch cycle keeps the picks the allowance covers together (the
    // first always fits: every offered candidate does alone).
    std::uint64_t priced = charge;
    std::size_t kept = 0;
    for (; kept < picks.size(); ++kept) {
      if (!Affordable(*objects_[picks[kept]], priced)) break;
      priced += objects_[picks[kept]]->est_cost();
    }
    picks.resize(kept);
  }

  std::vector<double> scores;
  std::vector<double> raw_scores;
  scores.reserve(picks.size());
  raw_scores.reserve(picks.size());
  for (const std::size_t i : picks) {
    scores.push_back(ChosenScore(candidates, i));
    raw_scores.push_back(ChosenScore(raws, i));
  }
  return IteratePicks(picks, phase, meter, scores, raw_scores);
}

// ---------------------------------------------------------------------------
// MinMaxIterationTask
// ---------------------------------------------------------------------------

MinMaxIterationTask::MinMaxIterationTask(
    const MinMaxOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::unique_ptr<IterationStrategy> strategy)
    : AggregateIterationTask(options, objects, std::move(strategy),
                             options.kind, "MIN/MAX") {}

Result<std::unique_ptr<MinMaxIterationTask>> MinMaxIterationTask::Create(
    const MinMaxOptions& options,
    const std::vector<vao::ResultObject*>& objects) {
  VAOLIB_RETURN_IF_ERROR(ValidateMinMaxInputs(objects, options.epsilon));
  VAOLIB_ASSIGN_OR_RETURN(auto strategy,
                          MakeStrategy(options.strategy, options.rng));
  return std::unique_ptr<MinMaxIterationTask>(
      new MinMaxIterationTask(options, objects, std::move(strategy)));
}

Status MinMaxIterationTask::StepImpl(WorkMeter* meter) {
  switch (phase_) {
    case Phase::kCoarse: {
      VAOLIB_RETURN_IF_ERROR(CoarsePhase());
      // Candidate indices still able to be the maximum; pruned candidates
      // are never reconsidered (bounds only tighten).
      alive_.resize(objects_.size());
      std::iota(alive_.begin(), alive_.end(), std::size_t{0});
      phase_ = Phase::kSearch;
      return Status::OK();
    }

    case Phase::kSearch:
      return StepSearch(meter);

    case Phase::kFinalize: {
      // Refine the winner to the precision constraint. Its stopping
      // condition implies width < minWidth <= epsilon, so this always
      // terminates (a stalled winner is quarantined with sound-but-wider
      // bounds instead).
      const std::size_t winner = outcome_.winner_index;
      if (objects_[winner]->bounds().Width() > options_.epsilon &&
          !EffectivelyConverged(winner)) {
        if (!Affordable(*objects_[winner])) {
          Park(objects_[winner]);
          return Status::OK();
        }
        return IterateOne(winner, &stats_.finalize_iterations, "finalize",
                          meter);
      }
      Finish();
      return Status::OK();
    }
  }
  return Status::Internal("MIN/MAX task in unknown phase");
}

Status MinMaxIterationTask::StepSearch(WorkMeter* meter) {
  // Guess o'_max: the candidate with the highest upper bound. Then prune
  // the candidates dominated by the best lower bound (never the guess).
  Bounds envelope;
  const std::size_t guess = Envelope(&envelope);
  std::erase_if(alive_,
                [&](std::size_t i) { return ViewOf(i).hi < envelope.lo; });

  // Termination case (1): every rival eliminated.
  if (alive_.size() == 1) {
    outcome_.winner_index = guess;
    phase_ = Phase::kFinalize;
    return Status::OK();
  }
  // Termination case (2): guess and all (overlapping) rivals converged.
  std::vector<std::size_t> iterable;
  for (const std::size_t i : alive_) {
    if (!EffectivelyConverged(i)) iterable.push_back(i);
  }
  if (iterable.empty()) {
    outcome_.winner_index = guess;
    outcome_.tie = true;
    for (const std::size_t i : alive_) {
      if (i != guess) outcome_.tied_indices.push_back(i);
    }
    phase_ = Phase::kFinalize;
    return Status::OK();
  }

  // Estimated total-overlap reduction with the guess, per CPU cycle. O(N)
  // chooseIter work per choice without indexing (Section 5.1).
  const Bounds guess_bounds = ViewOf(guess);
  return GreedyCycle(
      iterable, alive_.size(), "search", meter,
      [&](std::size_t i, const Bounds& est) {
        double reduction = 0.0;
        if (i == guess) {
          // Iterating the guess shrinks its overlap with every rival.
          for (const std::size_t j : alive_) {
            if (j == guess) continue;
            const Bounds other = ViewOf(j);
            reduction += std::max(0.0, guess_bounds.OverlapWidth(other) -
                                           est.OverlapWidth(other));
          }
        } else {
          // Iterating rival i shrinks only the (guess, i) overlap. With est
          // inside the current bounds this equals the paper's
          // min(o_i.H - o'max.L, o_i.H - o_i.estH).
          reduction = std::max(0.0, guess_bounds.OverlapWidth(ViewOf(i)) -
                                        guess_bounds.OverlapWidth(est));
        }
        return reduction;
      });
}

void MinMaxIterationTask::Finish() {
  outcome_.winner_bounds = objects_[outcome_.winner_index]->bounds();
  outcome_.stats = TalliedStats();
  outcome_.precision_degraded = outcome_.stats.stalled_objects > 0;
  outcome_.converged = true;
  MarkDone(true);
}

std::size_t MinMaxIterationTask::Envelope(Bounds* envelope) const {
  std::vector<std::size_t> all;
  const std::vector<std::size_t>* candidates = &alive_;
  if (alive_.empty()) {
    all.resize(objects_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    candidates = &all;
  }
  std::size_t guess = candidates->front();
  double guess_hi = ViewOf(guess).hi;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::size_t i : *candidates) {
    const Bounds b = ViewOf(i);
    if (b.hi > guess_hi) {
      guess = i;
      guess_hi = b.hi;
    }
    lo = std::max(lo, b.lo);
    hi = std::max(hi, b.hi);
  }
  *envelope = Bounds(lo, hi);
  return guess;
}

double MinMaxIterationTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  if (phase_ == Phase::kFinalize) {
    return objects_[outcome_.winner_index]->bounds().Width();
  }
  // Envelope width of the candidate set in max space: how much higher than
  // the best proven lower bound the true extreme could still be.
  Bounds envelope;
  Envelope(&envelope);
  return std::max(0.0, envelope.hi - envelope.lo);
}

MinMaxOutcome MinMaxIterationTask::Snapshot() const {
  if (Done()) return outcome_;

  MinMaxOutcome partial = outcome_;
  partial.converged = false;
  partial.stats = TalliedStats();
  partial.precision_degraded = partial.stats.stalled_objects > 0;

  if (phase_ == Phase::kFinalize) {
    // Membership is settled; only the winner's width is still open.
    partial.winner_bounds = objects_[partial.winner_index]->bounds();
    return partial;
  }

  // Best current guess plus a sound envelope: the true extreme value lies in
  // [max lo, max hi] over the surviving candidates (in max space) -- the
  // guess's own bounds could exclude it, the envelope cannot.
  Bounds envelope;
  partial.winner_index = Envelope(&envelope);
  partial.winner_bounds = View(envelope);
  return partial;
}

// ---------------------------------------------------------------------------
// SumAveIterationTask
// ---------------------------------------------------------------------------

SumAveIterationTask::SumAveIterationTask(
    const SumAveOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::vector<double> weights,
    std::unique_ptr<IterationStrategy> strategy)
    : AggregateIterationTask(options, objects, std::move(strategy),
                             ExtremeKind::kMax, "SUM/AVE"),
      use_heap_index_(options.use_heap_index),
      weights_(std::move(weights)) {
  SubscribeToNotices();
}

Result<std::unique_ptr<SumAveIterationTask>> SumAveIterationTask::Create(
    const SumAveOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::vector<double> weights) {
  VAOLIB_RETURN_IF_ERROR(
      ValidateSumAveInputs(objects, weights, options.epsilon));
  VAOLIB_ASSIGN_OR_RETURN(auto strategy,
                          MakeStrategy(options.strategy, options.rng));
  return std::unique_ptr<SumAveIterationTask>(new SumAveIterationTask(
      options, objects, std::move(weights), std::move(strategy)));
}

Bounds SumAveIterationTask::ExactSum() const {
  // Compensated summation: the incremental sum_ updates drift by one
  // rounding error per applied iterate, and this full re-walk is what
  // re-anchors them, so it must not itself lose low-order bits (large-mean /
  // tiny-variance populations cancel catastrophically under naive +=).
  NeumaierSum lo;
  NeumaierSum hi;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    const Bounds b = objects_[i]->bounds();
    lo.Add(weights_[i] * b.lo);
    hi.Add(weights_[i] * b.hi);
  }
  return Bounds(lo.Sum(), hi.Sum());
}

void SumAveIterationTask::SumNoticed() const {
  TakeNoticed([this](std::size_t i) {
    // Incrementally maintained output interval: subtract the object's old
    // weighted contribution and add the new one, so each settled object is
    // O(1) on the interval itself, whichever task refined it.
    const Bounds now = objects_[i]->bounds();
    sum_.lo += weights_[i] * (now.lo - summed_[i].lo);
    sum_.hi += weights_[i] * (now.hi - summed_[i].hi);
    summed_[i] = now;
    // A refined object re-enters the heap with its new score; stalled and
    // converged ones stay out, their (sound, frozen) contribution summed.
    if (phase_ == Phase::kHeapScan && weights_[i] > 0.0 &&
        !EffectivelyConverged(i)) {
      Push(i);
    }
  });
}

void SumAveIterationTask::Push(std::size_t i) const {
  heap_.Update(i, GreedyScore(*objects_[i], weights_[i]));
}

Status SumAveIterationTask::StepImpl(WorkMeter* meter) {
  switch (phase_) {
    case Phase::kCoarse: {
      VAOLIB_RETURN_IF_ERROR(CoarsePhase());
      // The feed starts from live bounds: what was settled so far is in the
      // exact sum.
      TakeNoticed([](std::size_t) {});
      sum_ = ExactSum();
      summed_.clear();
      for (const vao::ResultObject* object : objects_) {
        summed_.push_back(object->bounds());
      }
      // The lazy heap caches each object's score at push time, which is
      // only sound while scores depend on the object alone. The corrected
      // strategies re-derive scores from live history/sentinel state every
      // cycle, so they always take the O(N) scan path.
      if (use_heap_index_ &&
          (options_.strategy == StrategyKind::kGreedy ||
           options_.strategy == StrategyKind::kBatchGreedy)) {
        heap_.Reset(objects_.size());
        for (std::size_t i = 0; i < objects_.size(); ++i) {
          if (weights_[i] > 0.0 && !EffectivelyConverged(i)) Push(i);
        }
        phase_ = Phase::kHeapScan;
      } else {
        phase_ = Phase::kScan;
      }
      return Status::OK();
    }

    case Phase::kScan:
      SumNoticed();
      return StepScan(meter);
    case Phase::kHeapScan:
      SumNoticed();
      return StepHeap(meter);
  }
  return Status::Internal("SUM/AVE task in unknown phase");
}

Status SumAveIterationTask::StepScan(WorkMeter* meter) {
  if (!(sum_.Width() > options_.epsilon)) {
    Finish(/*limited_by_min_width=*/false);
    return Status::OK();
  }

  // Candidates: objects that may still tighten. Stalled objects are
  // quarantined from the set; their frozen (still sound) contribution
  // remains in the sum.
  std::vector<std::size_t> iterable;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (!EffectivelyConverged(i) && weights_[i] > 0.0) iterable.push_back(i);
  }
  if (iterable.empty()) {
    Finish(/*limited_by_min_width=*/true);
    return Status::OK();
  }

  // The paper's heuristic: estimated weighted error reduction
  // w_i * [(estL - L) + (H - estH)] per estimated CPU cycle; the widest
  // actual weighted width is the no-predicted-progress fallback.
  return GreedyCycle(
      iterable, iterable.size(), "scan", meter,
      [&](std::size_t i, const Bounds& est) {
        return SumReduction(objects_[i]->bounds(), est, weights_[i]);
      },
      &weights_);
}

Status SumAveIterationTask::StepHeap(WorkMeter* meter) {
  if (!(sum_.Width() > options_.epsilon)) {
    Finish(/*limited_by_min_width=*/false);
    return Status::OK();
  }

  // Pop up to batch_k best-scored objects for this cycle (one for the
  // scalar strategies), in the scan's order: equal scores pop lowest index
  // first. Objects settled since the last step (by this task or, through
  // the notice feed, by another) were re-pushed before this step. An entry
  // is still re-validated at pop, since its score may have moved without a
  // settle: a profile-cache hit re-priced its next iterate, or a task
  // stepped beside this one without a sink refined it. A converged object's
  // entry is dropped; a stale one is re-pushed with its fresh score and the
  // pop retried. Each pop-plus-push is O(log N) chooseIter work, charged
  // up to the cycle's last pick.
  const std::size_t batch_k = CycleBatchK(options_);
  const std::uint64_t pop_charge = 2 * Log2Ceil(objects_.size());
  std::vector<std::size_t> picks;
  std::vector<double> scores;
  // Live pops the cycle does not take (the allowance cannot pay for them,
  // or the fallback decides) go back on the heap afterwards.
  std::vector<std::size_t> put_back;
  std::uint64_t priced = 0;
  std::uint64_t pops = 0;
  std::uint64_t charged_pops = 0;
  bool fallback = false;
  std::size_t i = 0;
  double score = 0.0;
  while (picks.size() < batch_k && heap_.PopBest(&i, &score)) {
    ++pops;
    if (EffectivelyConverged(i)) continue;
    if (GreedyScore(*objects_[i], weights_[i]) != score) {
      Push(i);
      continue;
    }
    if (!Affordable(*objects_[i], priced + pops * pop_charge)) {
      put_back.push_back(i);
      continue;
    }
    if (picks.empty() && !(score > 0.0)) {
      // No live candidate predicts progress: the scan's widest-width
      // fallback decides this cycle.
      put_back.push_back(i);
      fallback = true;
      break;
    }
    priced += objects_[i]->est_cost();
    charged_pops = pops;
    picks.push_back(i);
    scores.push_back(score);
  }
  for (const std::size_t j : put_back) Push(j);
  if (fallback) return StepScan(meter);
  if (picks.empty()) {
    if (put_back.empty()) {
      Finish(/*limited_by_min_width=*/true);
    } else {
      ParkOnCheapest(objects_, put_back);
    }
    return Status::OK();
  }

  ++stats_.choose_steps;
  if (meter != nullptr) {
    meter->Charge(WorkKind::kChooseIter, charged_pops * pop_charge);
  }
  return IteratePicks(picks, "heap", meter, scores, scores);
}

void SumAveIterationTask::Finish(bool limited_by_min_width) {
  // Recompute exactly to shed accumulated floating-point drift.
  outcome_.sum_bounds = ExactSum();
  outcome_.limited_by_min_width = limited_by_min_width;
  outcome_.stats = TalliedStats();
  outcome_.converged = true;
  MarkDone(true);
}

double SumAveIterationTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  if (phase_ == Phase::kCoarse) return ExactSum().Width();
  SumNoticed();
  return sum_.Width();
}

SumOutcome SumAveIterationTask::Snapshot() const {
  if (Done()) return outcome_;

  SumOutcome partial = outcome_;
  partial.converged = false;
  partial.sum_bounds = ExactSum();
  partial.stats = TalliedStats();
  return partial;
}

// ---------------------------------------------------------------------------
// TopKIterationTask
// ---------------------------------------------------------------------------

TopKIterationTask::TopKIterationTask(
    const TopKOptions& options,
    const std::vector<vao::ResultObject*>& objects,
    std::unique_ptr<IterationStrategy> strategy)
    : AggregateIterationTask(options, objects, std::move(strategy),
                             options.kind, "TOP-K"),
      k_(options.k),
      entry_(objects.size()),
      keyed_at_(objects.size()) {
  SubscribeToNotices();
}

Result<std::unique_ptr<TopKIterationTask>> TopKIterationTask::Create(
    const TopKOptions& options,
    const std::vector<vao::ResultObject*>& objects) {
  VAOLIB_RETURN_IF_ERROR(
      ValidateTopKInputs(objects, options.k, options.epsilon));
  VAOLIB_ASSIGN_OR_RETURN(auto strategy,
                          MakeStrategy(options.strategy, options.rng));
  return std::unique_ptr<TopKIterationTask>(
      new TopKIterationTask(options, objects, std::move(strategy)));
}

void TopKIterationTask::Refresh() const {
  if (!index_.empty()) {
    TakeNoticed([this](std::size_t i) {
      if (objects_[i]->iterations() != keyed_at_[i]) Rekey(i);
    });
    return;
  }
  TakeNoticed([](std::size_t) {});  // the index reads live bounds
  // Sorted first, the keys enter the index at its end, each in O(1).
  std::vector<Key> keys;
  keys.reserve(objects_.size());
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    keys.push_back(Key{KeyOf(i), i});
    keyed_at_[i] = objects_[i]->iterations();
  }
  std::sort(keys.begin(), keys.end(), Ranked());
  for (const Key& key : keys) {
    entry_[key.i] = index_.emplace_hint(index_.end(), key);
  }
}

double TopKIterationTask::KeyOf(std::size_t i) const {
  // Settled bounds are validated, but an object iterated unannounced may
  // hold a NaN, which would break the index's order: it ranks last.
  const double hi = ViewOf(i).hi;
  return std::isnan(hi) ? -std::numeric_limits<double>::infinity() : hi;
}

bool TopKIterationTask::Rekey(std::size_t i) const {
  keyed_at_[i] = objects_[i]->iterations();
  const double hi = KeyOf(i);
  if (entry_[i]->hi == hi) return false;
  auto node = index_.extract(entry_[i]);
  node.value().hi = hi;
  entry_[i] = index_.insert(std::move(node)).position;
  return true;
}

Result<bool> TopKIterationTask::RekeyMoved() {
  bool moved = false;
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (objects_[i]->iterations() == keyed_at_[i]) continue;
    VAOLIB_RETURN_IF_ERROR(ValidateObjectBounds(*objects_[i], "TOP-K"));
    moved = Rekey(i) || moved;
  }
  return moved;
}

std::vector<std::size_t> TopKIterationTask::Leaders() const {
  std::vector<std::size_t> leaders;
  leaders.reserve(k_);
  for (auto it = index_.begin(); leaders.size() < k_; ++it) {
    leaders.push_back(it->i);
  }
  return leaders;
}

Status TopKIterationTask::StepImpl(WorkMeter* meter) {
  switch (phase_) {
    case Phase::kCoarse: {
      VAOLIB_RETURN_IF_ERROR(CoarsePhase());
      phase_ = Phase::kBoundary;
      return Status::OK();
    }

    case Phase::kBoundary:
      return StepBoundary(meter);

    case Phase::kFinalize: {
      // Refine every selected member to the precision constraint.
      while (finalize_cursor_ < members_.size()) {
        const std::size_t i = members_[finalize_cursor_];
        if (objects_[i]->bounds().Width() > options_.epsilon &&
            !EffectivelyConverged(i)) {
          if (!Affordable(*objects_[i])) {
            Park(objects_[i]);
            return Status::OK();
          }
          return IterateOne(i, &stats_.finalize_iterations, "finalize",
                            meter);
        }
        ++finalize_cursor_;
      }
      Finish();
      return Status::OK();
    }
  }
  return Status::Internal("TOP-K task in unknown phase");
}

Status TopKIterationTask::StepBoundary(WorkMeter* meter) {
  Refresh();
  while (true) {
    // Guess the top-k set: the k highest-ranked objects.
    members_ = Leaders();
    if (k_ == objects_.size()) {  // everything is selected
      phase_ = Phase::kFinalize;
      return Status::OK();
    }

    // Selection boundary: members must end strictly above all outsiders.
    // The floor is the members' lowest lower bound, the ceiling the first
    // outsider's upper bound (max space).
    double floor = std::numeric_limits<double>::infinity();
    for (const std::size_t i : members_) floor = std::min(floor, ViewOf(i).lo);
    const auto outsiders = std::next(entry_[members_.back()]);
    const double ceiling = outsiders->hi;

    // Conflicted objects, in rank order: members reachable from below, then
    // the outsiders reaching into the member zone.
    std::vector<std::size_t> conflicted;
    std::vector<std::size_t> iterable;
    if (floor <= ceiling) {
      for (const std::size_t i : members_) {
        if (ViewOf(i).lo <= ceiling) conflicted.push_back(i);
      }
      for (auto it = outsiders; it != index_.end() && it->hi >= floor; ++it) {
        conflicted.push_back(it->i);
      }
      for (const std::size_t i : conflicted) {
        if (!EffectivelyConverged(i)) iterable.push_back(i);
      }
    }
    if (iterable.empty()) {
      // Fully separated, or everything straddling the boundary converged so
      // the last slots are tie-determined (termination case 2 of Section
      // 5.1). Membership settles here, so every key must be live first: an
      // object another task iterated unannounced re-enters the ranking.
      VAOLIB_ASSIGN_OR_RETURN(const bool moved, RekeyMoved());
      if (moved) continue;
      outcome_.tie = floor <= ceiling;
      phase_ = Phase::kFinalize;
      return Status::OK();
    }

    // Greedy: the largest predicted cross-boundary overlap reduction per
    // estimated CPU cycle.
    return GreedyCycle(
        iterable, conflicted.size(), "boundary", meter,
        [&](std::size_t i, const Bounds& est) {
          const Bounds cur = ViewOf(i);
          double gain;
          if (Ranked()(*entry_[i], *outsiders)) {
            // Raising a member's lower bound toward the outsiders' ceiling.
            gain = std::min(ceiling - cur.lo, est.lo - cur.lo);
          } else {
            // Lowering an outsider's upper bound toward the members' floor.
            gain = std::min(cur.hi - floor, cur.hi - est.hi);
          }
          return std::max(gain, 0.0);
        });
  }
}

void TopKIterationTask::SetWinners(std::vector<std::size_t> members,
                                   TopKOutcome* outcome) const {
  // Order winners by extremity (descending midpoint in max space).
  std::sort(members.begin(), members.end(),
            [&](std::size_t a, std::size_t b) {
              return ViewOf(a).Mid() > ViewOf(b).Mid();
            });
  outcome->winner_bounds.clear();
  for (const std::size_t i : members) {
    outcome->winner_bounds.push_back(objects_[i]->bounds());
  }
  outcome->winners = std::move(members);
}

void TopKIterationTask::Finish() {
  SetWinners(members_, &outcome_);
  outcome_.stats = TalliedStats();
  outcome_.precision_degraded = outcome_.stats.stalled_objects > 0;
  outcome_.converged = true;
  MarkDone(true);
}

double TopKIterationTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  Refresh();

  // Over the current top-k by upper bound: cross-boundary overlap still to
  // resolve, plus member widths still above the precision constraint.
  const std::vector<std::size_t> members = Leaders();
  double uncertainty = 0.0;
  if (k_ < objects_.size()) {
    double floor = std::numeric_limits<double>::infinity();
    for (const std::size_t i : members) floor = std::min(floor, ViewOf(i).lo);
    const double ceiling = std::next(entry_[members.back()])->hi;
    uncertainty += std::max(0.0, ceiling - floor);
  }
  for (const std::size_t i : members) {
    uncertainty +=
        std::max(0.0, objects_[i]->bounds().Width() - options_.epsilon);
  }
  return uncertainty;
}

TopKOutcome TopKIterationTask::Snapshot() const {
  if (Done()) return outcome_;

  TopKOutcome partial = outcome_;
  partial.converged = false;
  // Best current guess at the member set: the last boundary step's members
  // when there was one, else the current top-k by upper bound.
  std::vector<std::size_t> guess = members_;
  if (guess.empty()) {
    Refresh();
    guess = Leaders();
  }
  SetWinners(std::move(guess), &partial);
  partial.stats = TalliedStats();
  partial.precision_degraded = partial.stats.stalled_objects > 0;
  return partial;
}

// ---------------------------------------------------------------------------
// MultiRowDecisionTask
// ---------------------------------------------------------------------------

MultiRowDecisionTask::MultiRowDecisionTask(
    std::vector<vao::ResultObject*> objects, const char* who,
    UndecidedFn undecided, const OperatorOptions& options)
    : objects_(std::move(objects)),
      who_(who),
      undecided_(std::move(undecided)),
      threads_(options.threads),
      row_status_(objects_.size()),
      settled_(objects_.size(), false) {
  TrackObjects(objects_.size(), who, "predicate-stall");
}

Result<std::unique_ptr<MultiRowDecisionTask>> MultiRowDecisionTask::Create(
    std::vector<vao::ResultObject*> objects, const char* who,
    UndecidedFn undecided, const OperatorOptions& options,
    const std::vector<Status>& invoke_status) {
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const bool invoked = invoke_status.empty() || invoke_status[i].ok();
    if (invoked && objects[i] == nullptr) {
      return Status::InvalidArgument(std::string(who) +
                                     " over a null result object");
    }
  }
  auto task = std::unique_ptr<MultiRowDecisionTask>(new MultiRowDecisionTask(
      std::move(objects), who, std::move(undecided), options));
  for (std::size_t i = 0; i < task->objects_.size(); ++i) {
    task->row_status_[i] =
        !invoke_status.empty() && !invoke_status[i].ok()
            ? invoke_status[i]
            : ValidateObjectBounds(*task->objects_[i], who);
    task->Resettle(i);
    if (!task->settled_[i]) task->unsettled_.push_back(i);
  }
  if (task->unsettled_.empty()) task->MarkDone(true);
  return task;
}

OperatorStats MultiRowDecisionTask::stats() const {
  OperatorStats stats = TalliedStats();
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    if (row_status_[i].ok() || Stalled(i) || Iterates(i) == 0) continue;
    stats.iterations -= Iterates(i);
    stats.greedy_iterations -= Iterates(i);
    --stats.objects_touched;
  }
  return stats;
}

void MultiRowDecisionTask::Resettle(std::size_t i) {
  settled_[i] = !row_status_[i].ok() || !undecided_(objects_[i]->bounds()) ||
                objects_[i]->AtStoppingCondition();
}

Status MultiRowDecisionTask::StepImpl(WorkMeter* meter) {
  // Re-settle before iterating: under a scheduler, other queries' tasks
  // tighten the same shared objects between our steps, so a row may have
  // become decidable (or converged) since we last looked at it.
  std::erase_if(unsettled_, [this](std::size_t i) {
    Resettle(i);
    return settled_[i];
  });
  if (unsettled_.empty()) {
    MarkDone(true);
    return Status::OK();
  }

  // One refinement notch for every unsettled row: through the batch
  // execution tier when single-threaded (rows backed by compatible solvers
  // share one lockstep kernel call; results and work totals are
  // bit-identical to iterating each row), fanned out over the pool
  // otherwise. Either way the records are published on this (driving)
  // thread in row order, so the trace is deterministic regardless of how
  // the pool interleaves.
  // Under an allowance the notch holds the rows it covers, in row order.
  std::vector<std::size_t> covered;
  const std::vector<std::size_t>* notch = &unsettled_;
  if (allowance() != kUnlimited) {
    std::uint64_t priced = 0;
    for (const std::size_t i : unsettled_) {
      if (!Affordable(*objects_[i], priced)) continue;
      priced += objects_[i]->est_cost();
      covered.push_back(i);
    }
    if (covered.empty()) {
      ParkOnCheapest(objects_, unsettled_);
      return Status::OK();
    }
    notch = &covered;
  }
  const std::vector<Status> statuses = IterateObservedBatch(
      objects_, *notch, "batch", meter, {}, {}, threads_);
  for (std::size_t j = 0; j < notch->size(); ++j) {
    const std::size_t i = (*notch)[j];
    Status status = statuses[j];
    if (status.ok()) {
      status = Settle(i, *objects_[i]);
      // The iteration cap ends the task; a malformed row only fails itself.
      if (status.Is(StatusCode::kNotConverged)) return status;
      if (status.ok()) ++stats_.greedy_iterations;
    }
    if (status.ok() && Stalled(i)) {
      status = Status::ResourceExhausted(
          std::string(who_) +
          ": refinement stalled before deciding the predicate (bounds "
          "stopped tightening above minWidth)");
    }
    row_status_[i] = status;
    Resettle(i);
  }
  std::erase_if(unsettled_, [this](std::size_t i) { return settled_[i]; });
  if (unsettled_.empty()) MarkDone(true);
  return Status::OK();
}

double MultiRowDecisionTask::CurrentUncertainty() const {
  if (Done()) return 0.0;
  return static_cast<double>(unsettled_.size());
}

}  // namespace vaolib::operators
