#include "vao/batch_iterate.h"

#include <map>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "vao/integral_result_object.h"
#include "vao/ivp_result_object.h"
#include "vao/pde_result_object.h"
#include "vao/shifted_result_object.h"

namespace vaolib::vao {

namespace {

// Records \p count batches of \p size objects.
void ObserveBatchSize(std::size_t size, std::size_t count = 1) {
  if (!obs::Enabled()) return;
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "vaolib_batch_size", {}, {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  histogram->Observe(static_cast<double>(size), count);
}

// A shifted wrapper refines through its inner object; kernels dispatch on
// the unwrapped type.
ResultObject* Unwrap(ResultObject* object) {
  if (auto* shifted = dynamic_cast<ShiftedResultObject*>(object)) {
    return shifted->mutable_inner();
  }
  return object;
}

// Casts every member of the group to T; empty on the first mismatch.
template <typename T>
std::vector<T*> CastGroup(const std::vector<ResultObject*>& unwrapped) {
  std::vector<T*> cast;
  cast.reserve(unwrapped.size());
  for (ResultObject* object : unwrapped) {
    T* typed = dynamic_cast<T*>(object);
    if (typed == nullptr) return {};
    cast.push_back(typed);
  }
  return cast;
}

// One object through the scalar path, spend bracketed by meter deltas.
void IterateScalar(ResultObject* object, WorkMeter* meter,
                   std::size_t index, BatchIterateOutcome* outcome) {
  const std::uint64_t before = meter != nullptr ? meter->Total() : 0;
  outcome->statuses[index] = object->Iterate();
  outcome->spent[index] = meter != nullptr ? meter->Total() - before : 0;
}

}  // namespace

BatchIterateOutcome IterateBatch(const std::vector<ResultObject*>& objects,
                                 WorkMeter* meter) {
  BatchIterateOutcome outcome;
  const std::size_t n = objects.size();
  outcome.statuses.assign(n, Status::OK());
  outcome.spent.assign(n, 0);
  if (n == 0) return outcome;

  // Group indices by batch_key, preserving input order inside each group.
  // std::map keeps dispatch order deterministic across runs.
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::size_t> singles;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string key = objects[i]->batch_key();
    if (key.empty()) {
      singles.push_back(i);
    } else {
      groups[key].push_back(i);
    }
  }

  for (auto& [key, members] : groups) {
    if (members.size() < 2) {
      singles.insert(singles.end(), members.begin(), members.end());
      continue;
    }
    std::vector<ResultObject*> unwrapped;
    unwrapped.reserve(members.size());
    for (const std::size_t i : members) unwrapped.push_back(Unwrap(objects[i]));

    std::vector<Status> statuses;
    std::vector<std::uint64_t> spent;
    bool dispatched = true;
    {
      const obs::ScopedSpan span("batch", "kernel_group",
                                 obs::TraceDetail::kFine);
      if (auto pde = CastGroup<PdeResultObject>(unwrapped); !pde.empty()) {
        statuses = PdeResultObject::IterateGroup(pde, &spent);
      } else if (auto ivp = CastGroup<IvpResultObject>(unwrapped);
                 !ivp.empty()) {
        statuses = IvpResultObject::IterateGroup(ivp, &spent);
      } else if (auto intg = CastGroup<IntegralResultObject>(unwrapped);
                 !intg.empty()) {
        statuses = IntegralResultObject::IterateGroup(intg, &spent);
      } else {
        dispatched = false;
      }
    }
    if (!dispatched) {
      // Same key but no kernel behind it (custom object types): scalar path.
      singles.insert(singles.end(), members.begin(), members.end());
      continue;
    }
    ObserveBatchSize(members.size());
    ++outcome.kernel_batches;
    outcome.kernel_objects += members.size();
    for (std::size_t j = 0; j < members.size(); ++j) {
      outcome.statuses[members[j]] = statuses[j];
      outcome.spent[members[j]] = spent[j];
    }
  }

  // Every single is a batch of one, recorded at once: multi-row selection
  // notches pass hundreds of singles per call.
  ObserveBatchSize(1, singles.size());
  for (const std::size_t i : singles) {
    IterateScalar(objects[i], meter, i, &outcome);
  }
  return outcome;
}

}  // namespace vaolib::vao
