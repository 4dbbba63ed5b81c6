#include "vao/pde2d_result_object.h"

#include "common/macros.h"

namespace vaolib::vao {

namespace {

numeric::Pde2dGrid Halved(const numeric::Pde2dGrid& grid,
                          numeric::StepAxis3 axis) {
  numeric::Pde2dGrid next = grid;
  switch (axis) {
    case numeric::StepAxis3::kTime:
      next.t_steps *= 2;
      break;
    case numeric::StepAxis3::kSpaceX:
      next.x_intervals *= 2;
      break;
    case numeric::StepAxis3::kSpaceY:
      next.y_intervals *= 2;
      break;
  }
  return next;
}

}  // namespace

Pde2dResultObject::Pde2dResultObject(numeric::Pde2dProblem problem,
                                     double query_x, double query_y,
                                     const Pde2dResultOptions& options,
                                     WorkMeter* meter)
    : ResultObjectBase(meter),
      problem_(std::move(problem)),
      query_x_(query_x),
      query_y_(query_y),
      options_(options),
      model_(options.safety_factor),
      grid_(options.initial_grid) {}

Result<double> Pde2dResultObject::SolveAt(const numeric::Pde2dGrid& grid) {
  const auto key =
      std::make_tuple(grid.x_intervals, grid.y_intervals, grid.t_steps);
  if (const auto it = solve_cache_.find(key); it != solve_cache_.end()) {
    return it->second;
  }
  VAOLIB_ASSIGN_OR_RETURN(
      const double value,
      numeric::SolvePde2d(problem_, grid, query_x_, query_y_, meter()));
  solve_cache_.emplace(key, value);
  return value;
}

Result<ResultObjectPtr> Pde2dResultObject::Create(
    numeric::Pde2dProblem problem, double query_x, double query_y,
    const Pde2dResultOptions& options, WorkMeter* meter) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  if (options.safety_factor < 1.0) {
    return Status::InvalidArgument("safety_factor must be >= 1");
  }
  auto object = std::unique_ptr<Pde2dResultObject>(new Pde2dResultObject(
      std::move(problem), query_x, query_y, options, meter));

  const numeric::Pde2dGrid g1 = object->grid_;
  VAOLIB_ASSIGN_OR_RETURN(const double f1, object->SolveAt(g1));
  VAOLIB_ASSIGN_OR_RETURN(
      const double f2,
      object->SolveAt(Halved(g1, numeric::StepAxis3::kTime)));
  VAOLIB_ASSIGN_OR_RETURN(
      const double f3,
      object->SolveAt(Halved(g1, numeric::StepAxis3::kSpaceX)));
  VAOLIB_ASSIGN_OR_RETURN(
      const double f4,
      object->SolveAt(Halved(g1, numeric::StepAxis3::kSpaceY)));

  const double dt = g1.Dt(object->problem_);
  const double dx = g1.Dx(object->problem_);
  const double dy = g1.Dy(object->problem_);
  object->model_.EstimateK1(f1, f2, dt);
  object->model_.EstimateK2(f1, f3, dx);
  object->model_.EstimateK3(f1, f4, dy);
  object->value_ = f1;
  object->RefreshDerivedState();
  return ResultObjectPtr(std::move(object));
}

void Pde2dResultObject::RefreshDerivedState() {
  const double dt = grid_.Dt(problem_);
  const double dx = grid_.Dx(problem_);
  const double dy = grid_.Dy(problem_);
  bounds_ = model_.BoundsFor(value_, dt, dx, dy);
  const numeric::StepAxis3 axis = model_.PreferredAxis(dt, dx, dy);
  est_bounds_ = model_.PredictBoundsAfterHalving(value_, dt, dx, dy, axis);
  const numeric::Pde2dGrid next = Halved(grid_, axis);
  const bool cached = solve_cache_.contains(
      {next.x_intervals, next.y_intervals, next.t_steps});
  est_cost_ = cached ? 0 : next.MeshEntries();
}

Status Pde2dResultObject::Iterate() {
  if (iterations() >= options_.max_iterations) {
    return Status::ResourceExhausted("2D PDE result object at max_iterations");
  }
  ChargeStateOverhead();

  const double dt = grid_.Dt(problem_);
  const double dx = grid_.Dx(problem_);
  const double dy = grid_.Dy(problem_);
  const numeric::StepAxis3 axis = model_.PreferredAxis(dt, dx, dy);
  const numeric::Pde2dGrid next = Halved(grid_, axis);

  const auto solved = SolveAt(next);
  if (!solved.ok()) return solved.status();
  const double new_value = solved.value();

  switch (axis) {
    case numeric::StepAxis3::kTime:
      model_.EstimateK1(value_, new_value, dt);
      break;
    case numeric::StepAxis3::kSpaceX:
      model_.EstimateK2(value_, new_value, dx);
      break;
    case numeric::StepAxis3::kSpaceY:
      model_.EstimateK3(value_, new_value, dy);
      break;
  }

  grid_ = next;
  value_ = new_value;
  BumpIterations();
  RefreshDerivedState();
  return Status::OK();
}

Result<ResultObjectPtr> Pde2dFunction::Invoke(const std::vector<double>& args,
                                              WorkMeter* meter) const {
  if (static_cast<int>(args.size()) != arity_) {
    return Status::InvalidArgument(
        name_ + " expects " + std::to_string(arity_) + " args, got " +
        std::to_string(args.size()));
  }
  VAOLIB_ASSIGN_OR_RETURN(auto built, builder_(args));
  return Pde2dResultObject::Create(std::move(std::get<0>(built)),
                                   std::get<1>(built), std::get<2>(built),
                                   options_, meter);
}

}  // namespace vaolib::vao
