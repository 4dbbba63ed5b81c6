#include "vao/pde_result_object.h"

#include <utility>

#include "common/macros.h"

namespace vaolib::vao {

PdeResultObject::PdeResultObject(numeric::Pde1dProblem problem, double query_x,
                                 const PdeResultOptions& options,
                                 WorkMeter* meter)
    : ResultObjectBase(meter),
      problem_(std::move(problem)),
      query_x_(query_x),
      options_(options),
      model_(options.safety_factor),
      grid_(options.initial_grid) {}

Result<double> PdeResultObject::SolveAt(const numeric::PdeGrid& grid) {
  const auto key = std::make_pair(grid.x_intervals, grid.t_steps);
  if (const auto it = solve_cache_.find(key); it != solve_cache_.end()) {
    return it->second;
  }
  VAOLIB_ASSIGN_OR_RETURN(const double value,
                          numeric::SolvePde(problem_, grid, query_x_, meter()));
  solve_cache_.emplace(key, value);
  return value;
}

Result<ResultObjectPtr> PdeResultObject::Create(numeric::Pde1dProblem problem,
                                                double query_x,
                                                const PdeResultOptions& options,
                                                WorkMeter* meter) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  if (options.safety_factor < 1.0) {
    return Status::InvalidArgument("safety_factor must be >= 1");
  }
  auto object = std::unique_ptr<PdeResultObject>(
      new PdeResultObject(std::move(problem), query_x, options, meter));

  // The extrapolation triple of Table 1: F1 at (dt*, dx*), F2 at
  // (dt*/2, dx*), F3 at (dt*, dx*/2).
  const numeric::PdeGrid g1 = object->grid_;
  numeric::PdeGrid g2 = g1;
  g2.t_steps *= 2;
  numeric::PdeGrid g3 = g1;
  g3.x_intervals *= 2;

  VAOLIB_ASSIGN_OR_RETURN(const double f1, object->SolveAt(g1));
  VAOLIB_ASSIGN_OR_RETURN(const double f2, object->SolveAt(g2));
  VAOLIB_ASSIGN_OR_RETURN(const double f3, object->SolveAt(g3));

  const double dt = g1.Dt(object->problem_);
  const double dx = g1.Dx(object->problem_);
  object->model_.EstimateK1(f1, f2, dt);
  object->model_.EstimateK2(f1, f3, dx);
  object->value_ = f1;
  object->RefreshDerivedState();
  return ResultObjectPtr(std::move(object));
}

numeric::PdeGrid PdeResultObject::NextRefinementGrid() const {
  const double dt = grid_.Dt(problem_);
  const double dx = grid_.Dx(problem_);
  const numeric::StepAxis axis = model_.PreferredAxis(dt, dx);
  numeric::PdeGrid next = grid_;
  if (axis == numeric::StepAxis::kTime) {
    next.t_steps *= 2;
  } else {
    next.x_intervals *= 2;
  }
  return next;
}

void PdeResultObject::RefreshDerivedState() {
  const double dt = grid_.Dt(problem_);
  const double dx = grid_.Dx(problem_);
  bounds_ = model_.BoundsFor(value_, dt, dx);
  const numeric::StepAxis axis = model_.PreferredAxis(dt, dx);
  est_bounds_ = model_.PredictBoundsAfterHalving(value_, dt, dx, axis);
  const numeric::PdeGrid next = NextRefinementGrid();
  // The initial extrapolation probes are memoized, so the first halvings can
  // be free; estCPU must reflect that or the greedy strategies over-price
  // them.
  const bool cached =
      solve_cache_.contains({next.x_intervals, next.t_steps});
  est_cost_ = cached ? 0 : next.MeshEntries();
}

std::string PdeResultObject::batch_key() const {
  if (iterations() >= options_.max_iterations) return {};
  const numeric::PdeGrid next = NextRefinementGrid();
  // A memoized next solve is (nearly) free in the scalar path; keep it out
  // of kernel batches, which would re-pay for it.
  if (solve_cache_.contains({next.x_intervals, next.t_steps})) return {};
  return "pde:" + std::to_string(next.x_intervals) + ":" +
         std::to_string(next.t_steps);
}

std::vector<Status> PdeResultObject::IterateGroup(
    const std::vector<PdeResultObject*>& objects,
    std::vector<std::uint64_t>* spent) {
  const std::size_t k = objects.size();
  std::vector<Status> statuses(k, Status::OK());
  spent->assign(k, 0);
  if (k == 0) return statuses;

  const std::string key = objects[0]->batch_key();
  WorkMeter* meter = objects[0]->meter();
  for (const PdeResultObject* object : objects) {
    if (key.empty() || object->batch_key() != key ||
        object->meter() != meter) {
      statuses.assign(k, Status::InvalidArgument(
                             "PDE iterate group needs one shared batch_key "
                             "and meter"));
      return statuses;
    }
  }

  const numeric::PdeGrid next = objects[0]->NextRefinementGrid();
  std::vector<const numeric::Pde1dProblem*> problems(k);
  std::vector<double> queries(k);
  std::vector<double> dts(k), dxs(k);
  std::vector<numeric::StepAxis> axes(k);
  for (std::size_t i = 0; i < k; ++i) {
    PdeResultObject* object = objects[i];
    object->ChargeStateOverhead();
    problems[i] = &object->problem_;
    queries[i] = object->query_x_;
    dts[i] = object->grid_.Dt(object->problem_);
    dxs[i] = object->grid_.Dx(object->problem_);
    axes[i] = object->model_.PreferredAxis(dts[i], dxs[i]);
  }

  numeric::BatchKernelReport report;
  std::vector<double> values;
  const Status solve_status = numeric::SolvePdeBatch(
      problems, next, queries, meter, &values, &report);
  if (!solve_status.ok()) {
    for (std::size_t i = 0; i < k; ++i) {
      statuses[i] = solve_status;
      (*spent)[i] = 2;  // the state overhead already charged
    }
    return statuses;
  }

  const std::uint64_t mesh = next.MeshEntries();
  for (std::size_t i = 0; i < k; ++i) {
    PdeResultObject* object = objects[i];
    (*spent)[i] = 2;
    if (!report.ok(i)) {
      statuses[i] = Status::NumericError(
          "PDE batch lane failed at time step " +
          std::to_string(report.failed_row[i]));
      continue;
    }
    (*spent)[i] += mesh;
    const double new_value = values[i];
    object->solve_cache_.emplace(
        std::make_pair(next.x_intervals, next.t_steps), new_value);
    if (axes[i] == numeric::StepAxis::kTime) {
      object->model_.EstimateK1(object->value_, new_value, dts[i]);
    } else {
      object->model_.EstimateK2(object->value_, new_value, dxs[i]);
    }
    object->grid_ = next;
    object->value_ = new_value;
    object->BumpIterations();
    object->RefreshDerivedState();
  }
  return statuses;
}

Status PdeResultObject::Iterate() {
  if (iterations() >= options_.max_iterations) {
    return Status::ResourceExhausted("PDE result object at max_iterations");
  }
  ChargeStateOverhead();

  const double dt = grid_.Dt(problem_);
  const double dx = grid_.Dx(problem_);
  const numeric::StepAxis axis = model_.PreferredAxis(dt, dx);

  numeric::PdeGrid next = grid_;
  if (axis == numeric::StepAxis::kTime) {
    next.t_steps *= 2;
  } else {
    next.x_intervals *= 2;
  }

  const auto solved = SolveAt(next);
  if (!solved.ok()) return solved.status();
  const double new_value = solved.value();

  // Refresh the coefficient on the axis just halved (Section 4.1: "updates
  // the error bounds by updating the error formula").
  if (axis == numeric::StepAxis::kTime) {
    model_.EstimateK1(value_, new_value, dt);
  } else {
    model_.EstimateK2(value_, new_value, dx);
  }

  grid_ = next;
  value_ = new_value;
  BumpIterations();
  RefreshDerivedState();
  return Status::OK();
}

Result<ResultObjectPtr> PdeFunction::Invoke(const std::vector<double>& args,
                                            WorkMeter* meter) const {
  if (static_cast<int>(args.size()) != arity_) {
    return Status::InvalidArgument(
        name_ + " expects " + std::to_string(arity_) + " args, got " +
        std::to_string(args.size()));
  }
  VAOLIB_ASSIGN_OR_RETURN(auto built, builder_(args));
  return PdeResultObject::Create(std::move(built.first), built.second,
                                 options_, meter);
}

}  // namespace vaolib::vao
