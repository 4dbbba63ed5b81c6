#include "vao/pde_result_object.h"

#include <algorithm>
#include <map>
#include <memory>
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
  double value = 0.0;
  if (profile_cache_ == nullptr) {
    VAOLIB_ASSIGN_OR_RETURN(
        value, numeric::SolvePde(problem_, grid, query_x_, meter()));
  } else {
    std::uint64_t charged = 0;
    VAOLIB_ASSIGN_OR_RETURN(const PdeProfileCache::Profile profile,
                            CachedProfile(grid, &charged));
    value = numeric::InterpolateProfile(problem_, grid, *profile, query_x_);
  }
  solve_cache_.emplace(key, value);
  return value;
}

Result<PdeProfileCache::Profile> PdeResultObject::CachedProfile(
    const numeric::PdeGrid& grid, std::uint64_t* charged) {
  PdeProfileCache::Lookup lookup = profile_cache_->Acquire(problem_id_, grid);
  if (lookup.profile != nullptr) {
    *charged = ChargeProfileLoad(grid);
    return lookup.profile;
  }
  return FinishMarch(grid, std::move(lookup.march), charged);
}

Result<PdeProfileCache::Profile> PdeResultObject::FinishMarch(
    const numeric::PdeGrid& grid, numeric::PdeMarch march,
    std::uint64_t* charged) const {
  const int left = grid.t_steps - march.steps;
  const Status status =
      numeric::AdvancePdeMarch(problem_, grid, left, &march, meter());
  if (!status.ok()) {
    profile_cache_->Abandon(problem_id_, grid);
    return status;
  }
  *charged = static_cast<std::uint64_t>(grid.x_intervals + 1) *
             static_cast<std::uint64_t>(left);
  auto profile =
      std::make_shared<const std::vector<double>>(std::move(march.profile));
  profile_cache_->Publish(problem_id_, grid, profile);
  return PdeProfileCache::Profile(std::move(profile));
}

std::uint64_t PdeResultObject::ChargeProfileLoad(
    const numeric::PdeGrid& grid) const {
  const auto units = static_cast<std::uint64_t>(grid.x_intervals) + 1;
  Charge(WorkKind::kGetState, units);
  return units;
}

Result<ResultObjectPtr> PdeResultObject::Create(
    numeric::Pde1dProblem problem, double query_x,
    const PdeResultOptions& options, WorkMeter* meter,
    const std::vector<double>& problem_key) {
  if (options.min_width <= 0.0) {
    return Status::InvalidArgument("min_width must be > 0");
  }
  if (options.safety_factor < 1.0) {
    return Status::InvalidArgument("safety_factor must be >= 1");
  }
  if (query_x < problem.x_min || query_x > problem.x_max) {
    return Status::OutOfRange("query_x outside PDE domain");
  }
  auto object = std::unique_ptr<PdeResultObject>(
      new PdeResultObject(std::move(problem), query_x, options, meter));
  if (PdeProfileCache* cache = PdeProfileCache::Active();
      cache != nullptr && !problem_key.empty()) {
    object->profile_cache_ = cache;
    object->problem_id_ = cache->Intern(problem_key);
  }

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
  next_ = NextRefinementGrid();
  // The initial extrapolation probes are memoized, so the first halvings can
  // be free; estCPU must reflect that or the greedy strategies over-price
  // them.
  const bool cached =
      solve_cache_.contains({next_.x_intervals, next_.t_steps});
  est_cost_ = cached ? 0 : next_.MeshEntries();
}

std::uint64_t PdeResultObject::est_cost() const {
  // A profile another object (or an earlier tick) published or prepaid
  // since the last refresh changes the next iterate's price: look it up at
  // quote time. A ready profile costs its load, a march its steps left.
  if (profile_cache_ == nullptr || est_cost_ == 0) return est_cost_;
  const int left = profile_cache_->StepsLeft(problem_id_, next_);
  if (left > 0) Report();
  return static_cast<std::uint64_t>(next_.x_intervals + 1) *
         static_cast<std::uint64_t>(std::max(left, 1));
}

std::uint64_t PdeResultObject::Prepay(std::uint64_t units) const {
  // Only a cached march outlives this object, so only it can be prepaid;
  // the step that would finish it is left to Iterate().
  if (profile_cache_ == nullptr || est_cost_ == 0 ||
      iterations() >= options_.max_iterations) {
    return 0;
  }
  const auto per_step = static_cast<std::uint64_t>(next_.x_intervals) + 1;
  if (units / per_step == 0 ||
      profile_cache_->StepsLeft(problem_id_, next_) < 2) {
    return 0;
  }
  PdeProfileCache::Lookup lookup =
      profile_cache_->Acquire(problem_id_, next_, /*wait=*/false);
  if (!lookup.owner) return 0;
  numeric::PdeMarch march = std::move(lookup.march);
  const int steps = static_cast<int>(std::min<std::uint64_t>(
      units / per_step,
      static_cast<std::uint64_t>(next_.t_steps - march.steps - 1)));
  if (!numeric::AdvancePdeMarch(problem_, next_, steps, &march, meter())
           .ok()) {
    // Iterate() meets the failure again and reports it.
    profile_cache_->Abandon(problem_id_, next_);
    return 0;
  }
  profile_cache_->Suspend(problem_id_, next_, std::move(march));
  return per_step * static_cast<std::uint64_t>(steps);
}

std::string PdeResultObject::batch_key() const {
  if (iterations() >= options_.max_iterations) return {};
  // A memoized next solve is (nearly) free in the scalar path; keep it out
  // of kernel batches, which would re-pay for it.
  if (solve_cache_.contains({next_.x_intervals, next_.t_steps})) return {};
  return "pde:" + std::to_string(next_.x_intervals) + ":" +
         std::to_string(next_.t_steps);
}

void PdeResultObject::Advance(const numeric::PdeGrid& next, double new_value,
                              numeric::StepAxis axis, double dt, double dx) {
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

  const numeric::PdeGrid next = objects[0]->next_;
  std::vector<double> dts(k), dxs(k);
  std::vector<numeric::StepAxis> axes(k);
  // Where each lane's profile comes from: the cache (hit), the kernel
  // (`marched`, which owns the cache entry of a cached problem), or, for a
  // lane whose cached problem is already being marched, by this group or
  // by another thread, the cache once that solve is published (`deferred`).
  std::vector<PdeProfileCache::Profile> profiles(k);
  std::vector<std::size_t> marched;
  std::vector<std::size_t> deferred;
  std::map<std::pair<PdeProfileCache*, std::uint64_t>, std::size_t> owners;
  for (std::size_t i = 0; i < k; ++i) {
    PdeResultObject* object = objects[i];
    object->ChargeStateOverhead();
    (*spent)[i] = 2;
    dts[i] = object->grid_.Dt(object->problem_);
    dxs[i] = object->grid_.Dx(object->problem_);
    axes[i] = object->model_.PreferredAxis(dts[i], dxs[i]);
    PdeProfileCache* cache = object->profile_cache_;
    if (cache == nullptr) {
      marched.push_back(i);
      continue;
    }
    if (owners.contains({cache, object->problem_id_})) {
      deferred.push_back(i);
      continue;
    }
    // No waiting here: this group may own entries another thread waits on.
    PdeProfileCache::Lookup lookup =
        cache->Acquire(object->problem_id_, next, /*wait=*/false);
    if (lookup.profile != nullptr) {
      profiles[i] = std::move(lookup.profile);
      (*spent)[i] += object->ChargeProfileLoad(next);
    } else if (lookup.owner && lookup.march.steps > 0) {
      // A prepaid march resumes where it stopped, outside the batch.
      owners.emplace(std::make_pair(cache, object->problem_id_), i);
      std::uint64_t charged = 0;
      auto profile =
          object->FinishMarch(next, std::move(lookup.march), &charged);
      if (profile.ok()) {
        (*spent)[i] += charged;
        profiles[i] = std::move(profile).value();
      } else {
        statuses[i] = profile.status();
      }
    } else if (lookup.owner) {
      owners.emplace(std::make_pair(cache, object->problem_id_), i);
      marched.push_back(i);
    } else {
      deferred.push_back(i);
    }
  }

  if (!marched.empty()) {
    std::vector<const numeric::Pde1dProblem*> problems;
    problems.reserve(marched.size());
    for (const std::size_t i : marched) {
      problems.push_back(&objects[i]->problem_);
    }
    numeric::BatchKernelReport report;
    std::vector<std::vector<double>> solved;
    const Status solve_status = numeric::SolvePdeProfileBatch(
        problems, next, meter, &solved, &report);
    for (std::size_t m = 0; m < marched.size(); ++m) {
      const std::size_t i = marched[m];
      PdeResultObject* object = objects[i];
      const bool ok = solve_status.ok() && report.ok(m);
      if (!solve_status.ok()) {
        statuses[i] = solve_status;
      } else if (!ok) {
        statuses[i] = Status::NumericError(
            "PDE batch lane failed at time step " +
            std::to_string(report.failed_row[m]));
      } else {
        (*spent)[i] += next.MeshEntries();
        profiles[i] = std::make_shared<const std::vector<double>>(
            std::move(solved[m]));
      }
      if (object->profile_cache_ == nullptr) continue;
      if (ok) {
        object->profile_cache_->Publish(object->problem_id_, next,
                                        profiles[i]);
      } else {
        object->profile_cache_->Abandon(object->problem_id_, next);
      }
    }
  }
  // Every owned entry is settled, so waiting on the deferred ones is safe.
  for (const std::size_t i : deferred) {
    std::uint64_t charged = 0;
    auto profile = objects[i]->CachedProfile(next, &charged);
    (*spent)[i] += charged;
    if (!profile.ok()) {
      statuses[i] = profile.status();
      continue;
    }
    profiles[i] = std::move(profile).value();
  }

  for (std::size_t i = 0; i < k; ++i) {
    if (profiles[i] == nullptr) continue;
    PdeResultObject* object = objects[i];
    const double new_value = numeric::InterpolateProfile(
        object->problem_, next, *profiles[i], object->query_x_);
    object->solve_cache_.emplace(
        std::make_pair(next.x_intervals, next.t_steps), new_value);
    object->Advance(next, new_value, axes[i], dts[i], dxs[i]);
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
  const numeric::PdeGrid next = next_;
  VAOLIB_ASSIGN_OR_RETURN(const double new_value, SolveAt(next));
  Advance(next, new_value, axis, dt, dx);
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
