#include "engine/query_plan.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "common/macros.h"
#include "engine/report_capture.h"
#include "engine/sampling/sampled_sum.h"
#include "engine/sampling/sampler.h"
#include "vao/parallel.h"

namespace vaolib::engine {

namespace {

// Per-object Iterate() budget for the parallel coarse pre-phase. Iteration
// cost roughly doubles per refinement step, so a cap this small keeps the
// coarse work on rows the serial greedy loop would have pruned early to a
// few percent of the total, while still fanning the broad early refinement
// out across the pool.
constexpr std::uint64_t kCoarseMaxSteps = 4;

// Copies an answer's provenance into the report's answer section.
void FillAnswerSection(const vao::Answer& answer,
                       obs::ExecutionReport* report) {
  report->answer_mode = vao::AnswerModeName(answer.mode);
  report->answer_confidence = answer.confidence;
  report->sample_size = answer.sample_size;
  report->sample_population = answer.population_size;
  report->deterministic_width = answer.deterministic_width;
  report->sampling_width = answer.sampling_width;
}

// Marks \p result degraded with \p cause (an answer that is sound but
// coarser than requested).
void Degrade(const char* cause, TickResult* result) {
  result->degraded = true;
  result->degradation_cause = Status::ResourceExhausted(cause);
}

// Decodes a selection task: the same decision rules as SelectionVao and
// RangeSelectionVao. Bounds that cleared the predicate decide exactly;
// bounds still straddling it resolve by the minWidth equality rule, which
// is also the sound default for rows a budget left undecided (flagged by
// converged = false). A row the task could not decide is quarantined: a
// stalled row under any policy, a failed one under kDegrade; under kStrict
// the lowest failed row's error fails the tick.
Status DecodeSelection(const Query& query,
                       const operators::MultiRowDecisionTask& task,
                       const std::vector<vao::ResultObject*>& objects,
                       ResiliencePolicy policy, TickResult* result) {
  const Bounds range(query.range_lo, query.range_hi);
  for (std::size_t row = 0; row < objects.size(); ++row) {
    const Status& status = task.RowStatus(row);
    if (!status.ok()) {
      if (policy == ResiliencePolicy::kStrict && !task.RowStalled(row)) {
        return status;
      }
      result->quarantined_rows.push_back(row);
      if (!result->degraded) {
        result->degraded = true;
        result->degradation_cause = status;
      }
      continue;
    }
    const Bounds b = objects[row]->bounds();
    bool passes = false;
    if (query.kind == QueryKind::kSelect) {
      passes = b.Contains(query.constant)
                   ? operators::CompareExact(query.constant, query.cmp,
                                             query.constant)
                   : operators::CompareExact(b.Mid(), query.cmp,
                                             query.constant);
    } else {
      passes = (!b.Contains(range.lo) && !b.Contains(range.hi))
                   ? range.Contains(b.Mid())
                   : query.range_inclusive;
    }
    if (passes) result->passing_rows.push_back(row);
    if (task.RowSettled(row) && !objects[row]->AtStoppingCondition()) {
      ++result->report.rows_short_circuited;
    }
  }
  result->report.rows_quarantined = result->quarantined_rows.size();
  result->stats = task.stats();
  result->converged = task.Converged();
  return Status::OK();
}

}  // namespace

void FillOperatorSection(const operators::OperatorStats& stats,
                         obs::ExecutionReport* report) {
  report->iterations = stats.iterations;
  report->coarse_iterations = stats.coarse_iterations;
  report->greedy_iterations = stats.greedy_iterations;
  report->finalize_iterations = stats.finalize_iterations;
  report->choose_steps = stats.choose_steps;
  report->objects_touched = stats.objects_touched;
  report->stalled_objects = stats.stalled_objects;
  std::copy(std::begin(stats.calibration), std::end(stats.calibration),
            std::begin(report->calibration));
}

Result<QueryPlan> QueryPlan::Create(const Query& query,
                                    const Schema& stream_schema,
                                    const Relation* relation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("query plan requires a relation");
  }
  if (query.function == nullptr) {
    return Status::InvalidArgument("query has no function bound");
  }
  if (static_cast<int>(query.args.size()) != query.function->arity()) {
    return Status::InvalidArgument(
        "query binds " + std::to_string(query.args.size()) +
        " args but function '" + query.function->name() + "' expects " +
        std::to_string(query.function->arity()));
  }
  if (query.approx.has_value()) {
    if (query.kind != QueryKind::kSum && query.kind != QueryKind::kAve &&
        query.kind != QueryKind::kTopK) {
      return Status::InvalidArgument(
          "APPROX applies to SUM/AVE/TOP-K queries only");
    }
    if (!(query.approx->confidence > 0.0) ||
        !(query.approx->confidence < 1.0)) {
      return Status::InvalidArgument(
          "APPROX confidence must be in (0, 1), got " +
          std::to_string(query.approx->confidence));
    }
    if (!(query.approx->target_rel_error > 0.0)) {
      return Status::InvalidArgument(
          "APPROX target relative error must be > 0, got " +
          std::to_string(query.approx->target_rel_error));
    }
  }
  if (query.weight_column.has_value() &&
      !relation->schema().IndexOf(*query.weight_column).ok()) {
    return Status::NotFound("weight column '" + *query.weight_column +
                            "' not in relation");
  }

  QueryPlan plan(query, relation);
  for (const ArgRef& ref : query.args) {
    BoundArg bound;
    bound.source = ref.source;
    bound.constant = ref.constant;
    switch (ref.source) {
      case ArgRef::Source::kStreamField: {
        VAOLIB_ASSIGN_OR_RETURN(bound.index, stream_schema.IndexOf(ref.field));
        break;
      }
      case ArgRef::Source::kRelationField: {
        VAOLIB_ASSIGN_OR_RETURN(bound.index,
                                relation->schema().IndexOf(ref.field));
        break;
      }
      case ArgRef::Source::kConstant:
        break;
    }
    plan.bound_args_.push_back(bound);
  }
  return plan;
}

Result<std::vector<double>> QueryPlan::BuildArgs(const Tuple& stream_tuple,
                                                 std::size_t row) const {
  std::vector<double> args;
  args.reserve(bound_args_.size());
  for (const BoundArg& bound : bound_args_) {
    switch (bound.source) {
      case ArgRef::Source::kStreamField: {
        if (bound.index >= stream_tuple.size()) {
          return Status::OutOfRange("stream tuple too short for binding");
        }
        VAOLIB_ASSIGN_OR_RETURN(const double v,
                                stream_tuple[bound.index].AsDouble());
        args.push_back(v);
        break;
      }
      case ArgRef::Source::kRelationField: {
        VAOLIB_ASSIGN_OR_RETURN(const Value cell,
                                relation_->At(row, bound.index));
        VAOLIB_ASSIGN_OR_RETURN(const double v, cell.AsDouble());
        args.push_back(v);
        break;
      }
      case ArgRef::Source::kConstant:
        args.push_back(bound.constant);
        break;
    }
  }
  return args;
}

Result<std::vector<std::vector<double>>> QueryPlan::BuildRows(
    const Tuple& stream_tuple) const {
  const std::size_t n = relation_->size();
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  for (std::size_t row = 0; row < n; ++row) {
    VAOLIB_ASSIGN_OR_RETURN(std::vector<double> args,
                            BuildArgs(stream_tuple, row));
    rows.push_back(std::move(args));
  }
  return rows;
}

Result<std::vector<double>> QueryPlan::ResolveWeights() const {
  if (query_.weight_column.has_value()) {
    return relation_->NumericColumn(*query_.weight_column);
  }
  if (query_.kind == QueryKind::kAve) {
    return operators::AveWeights(relation_->size());
  }
  return operators::SumWeights(relation_->size());
}

Result<CompiledQuery> QueryPlan::Compile(const TickInputs& inputs) const {
  const Query& query = query_;
  const std::size_t n = relation_->size();
  CompiledQuery compiled;
  compiled.query_ = &query_;
  compiled.population_ = n;

  // Options every exact aggregate shares: precision, meter and (for
  // MIN/MAX/SUM/AVE) the parallel coarse phase.
  auto stamp = [&](operators::OperatorOptions* options, bool coarse) {
    options->epsilon = query.epsilon;
    options->meter = inputs.meter;
    if (coarse && inputs.threads > 1) {
      options->threads = inputs.threads;
      options->coarse_width = query.epsilon;
      options->coarse_max_steps = kCoarseMaxSteps;
    }
  };

  switch (query.kind) {
    case QueryKind::kSelect:
    case QueryKind::kSelectRange: {
      operators::MultiRowDecisionTask::UndecidedFn undecided;
      if (query.kind == QueryKind::kSelect) {
        undecided = [constant = query.constant](const Bounds& b) {
          return b.Contains(constant);
        };
      } else {
        const Bounds range(query.range_lo, query.range_hi);
        if (!range.IsValid()) {
          return Status::InvalidArgument("range selection needs lo <= hi");
        }
        undecided = [range](const Bounds& b) {
          return b.Contains(range.lo) || b.Contains(range.hi);
        };
      }
      operators::OperatorOptions options;
      stamp(&options, /*coarse=*/false);
      options.threads = inputs.threads;
      VAOLIB_ASSIGN_OR_RETURN(
          compiled.task_,
          operators::MultiRowDecisionTask::Create(
              *inputs.objects,
              query.kind == QueryKind::kSelect ? "selection"
                                               : "range selection",
              std::move(undecided), options, inputs.invoke_status));
      compiled.objects_ = *inputs.objects;
      break;
    }
    case QueryKind::kMax:
    case QueryKind::kMin: {
      operators::MinMaxOptions options;
      options.kind = query.kind == QueryKind::kMax
                         ? operators::ExtremeKind::kMax
                         : operators::ExtremeKind::kMin;
      stamp(&options, /*coarse=*/true);
      VAOLIB_ASSIGN_OR_RETURN(
          compiled.task_,
          operators::MinMaxIterationTask::Create(options, *inputs.objects));
      break;
    }
    case QueryKind::kSum:
    case QueryKind::kAve: {
      VAOLIB_ASSIGN_OR_RETURN(std::vector<double> weights, ResolveWeights());
      if (!query.approx.has_value()) {
        operators::SumAveOptions options;
        stamp(&options, /*coarse=*/true);
        options.use_heap_index = true;
        VAOLIB_ASSIGN_OR_RETURN(
            compiled.task_,
            operators::SumAveIterationTask::Create(options, *inputs.objects,
                                                   std::move(weights)));
        break;
      }
      sampling::SampledAggregateOptions options;
      options.spec = *query.approx;
      options.epsilon = query.epsilon;
      options.meter = inputs.meter;
      const Tuple* tuple = inputs.stream_tuple;
      WorkMeter* meter = inputs.meter;
      auto factory = [this, tuple, meter](
                         std::size_t row) -> Result<vao::ResultObjectPtr> {
        VAOLIB_ASSIGN_OR_RETURN(const std::vector<double> args,
                                BuildArgs(*tuple, row));
        return query_.function->Invoke(args, meter);
      };
      auto weight = [weights = std::move(weights)](std::size_t row) {
        return weights[row];
      };
      VAOLIB_ASSIGN_OR_RETURN(
          compiled.task_,
          sampling::SampledSumTask::Create(options, n, std::move(factory),
                                           std::move(weight)));
      break;
    }
    case QueryKind::kTopK: {
      operators::TopKOptions options;
      options.k = query.k;
      if (!query.approx.has_value()) {
        stamp(&options, /*coarse=*/false);
        VAOLIB_ASSIGN_OR_RETURN(
            compiled.task_,
            operators::TopKIterationTask::Create(options, *inputs.objects));
        break;
      }
      // Upfront uniform sample; the task then refines only its objects.
      options.epsilon = query.epsilon;
      options.meter = inputs.meter;
      const ApproxSpec& spec = *query.approx;
      if (query.k < 1 || query.k > n) {
        return Status::InvalidArgument("top-k k out of range");
      }
      std::size_t want = spec.max_samples != 0
                             ? spec.max_samples
                             : std::max(spec.initial_samples, n / 10);
      want = std::min(std::max(want, query.k), n);
      compiled.sample_rows_ = sampling::ReservoirSample(n, want, spec.seed);
      std::vector<std::vector<double>> rows;
      rows.reserve(compiled.sample_rows_.size());
      for (const std::size_t row : compiled.sample_rows_) {
        VAOLIB_ASSIGN_OR_RETURN(std::vector<double> args,
                                BuildArgs(*inputs.stream_tuple, row));
        rows.push_back(std::move(args));
      }
      VAOLIB_ASSIGN_OR_RETURN(
          compiled.sample_objects_,
          vao::InvokeAll(*query.function, rows, inputs.threads,
                         inputs.meter));
      std::vector<vao::ResultObject*> sampled;
      sampled.reserve(compiled.sample_objects_.size());
      for (const auto& object : compiled.sample_objects_) {
        sampled.push_back(object.get());
      }
      VAOLIB_ASSIGN_OR_RETURN(
          compiled.task_,
          operators::TopKIterationTask::Create(options, sampled));
      break;
    }
  }
  return compiled;
}

Status CompiledQuery::Decode(ResiliencePolicy policy,
                             TickResult* result) const {
  const Query& query = *query_;
  result->kind = query.kind;
  obs::ExecutionReport& report = result->report;
  report.query_kind = QueryKindName(query.kind);
  report.rows_scanned = population_;

  switch (query.kind) {
    case QueryKind::kSelect:
    case QueryKind::kSelectRange: {
      const auto& task =
          static_cast<const operators::MultiRowDecisionTask&>(*task_);
      VAOLIB_RETURN_IF_ERROR(
          DecodeSelection(query, task, objects_, policy, result));
      break;
    }
    case QueryKind::kMax:
    case QueryKind::kMin: {
      const operators::MinMaxOutcome outcome =
          static_cast<const operators::MinMaxIterationTask&>(*task_)
              .Snapshot();
      result->winner_row = outcome.winner_index;
      result->tie = outcome.tie;
      result->aggregate_bounds = outcome.winner_bounds;
      result->stats = outcome.stats;
      result->converged = outcome.converged;
      if (outcome.precision_degraded) {
        Degrade(
            "MIN/MAX quarantined stalled result objects; winner bounds may "
            "be wider than epsilon",
            result);
      }
      break;
    }
    case QueryKind::kSum:
    case QueryKind::kAve: {
      if (query.approx.has_value()) {
        const sampling::SampledSumOutcome outcome =
            static_cast<const sampling::SampledSumTask&>(*task_).Snapshot();
        result->aggregate_bounds = outcome.answer;
        result->stats = outcome.stats;
        result->converged = outcome.converged;
        if (outcome.limited_by_min_width) {
          Degrade(
              "sampled SUM/AVE exhausted the sample without reaching the "
              "error target; interval is as tight as the min-width floors "
              "allow",
              result);
        }
        break;
      }
      const operators::SumOutcome outcome =
          static_cast<const operators::SumAveIterationTask&>(*task_)
              .Snapshot();
      result->aggregate_bounds = outcome.sum_bounds;
      result->stats = outcome.stats;
      result->converged = outcome.converged;
      if (outcome.stats.stalled_objects > 0) {
        Degrade(
            "SUM/AVE quarantined stalled result objects; output bounds may "
            "be wider than epsilon",
            result);
      }
      break;
    }
    case QueryKind::kTopK: {
      const operators::TopKOutcome outcome =
          static_cast<const operators::TopKIterationTask&>(*task_).Snapshot();
      result->top_bounds = outcome.winner_bounds;
      result->tie = outcome.tie;
      result->stats = outcome.stats;
      result->converged = outcome.converged;
      if (query.approx.has_value()) {
        for (const std::size_t winner : outcome.winners) {
          result->top_rows.push_back(sample_rows_[winner]);
        }
      } else {
        result->top_rows = outcome.winners;
      }
      if (!result->top_rows.empty()) {
        result->winner_row = result->top_rows.front();
        result->aggregate_bounds = outcome.winner_bounds.front();
        if (query.approx.has_value()) {
          // A heuristic tier: the interval is the sampled winner's hard
          // bounds; `approximate` marks that rows outside the sample were
          // never considered. No per-rank CLT guarantee is computed, so
          // the answer carries confidence 0 rather than the spec's level
          // -- the wire token must not read as a coverage claim.
          result->aggregate_bounds = vao::Answer::Approximate(
              outcome.winner_bounds.front(), /*confidence=*/0.0,
              sample_rows_.size(), population_,
              outcome.winner_bounds.front().Width(), 0.0);
        }
      }
      if (outcome.precision_degraded) {
        Degrade(
            "TOP-K quarantined stalled result objects; winner bounds may be "
            "wider than epsilon",
            result);
      }
      break;
    }
  }

  if (query.approx.has_value()) {
    // Only the sampled rows were materialized; none was short-circuited.
    report.rows_scanned = result->aggregate_bounds.sample_size;
    FillAnswerSection(result->aggregate_bounds, &report);
  } else if (query.kind != QueryKind::kSelect &&
             query.kind != QueryKind::kSelectRange) {
    // Rows the adaptive operator never had to iterate: their initial
    // bounds alone were enough to rule them out of the answer.
    report.rows_short_circuited = population_ - result->stats.objects_touched;
  }
  FillOperatorSection(result->stats, &report);
  FillProgressSection(*result, query.epsilon, &report);
  return Status::OK();
}

}  // namespace vaolib::engine
