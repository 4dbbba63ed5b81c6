#include "testing/invariant_checker.h"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace vaolib::testing {

namespace {

Status Violation(const std::string& what) {
  // Violations are exactly the moments the flight recorder exists for:
  // snapshot the last-N decision events before the failure propagates.
  obs::FlightRecorder::Global().DumpIfArmed("invariant-" + what);
  return Status::FailedPrecondition("invariant violated: " + what);
}

std::string BoundsToString(const Bounds& b) {
  return "[" + std::to_string(b.lo) + ", " + std::to_string(b.hi) + "]";
}

}  // namespace

Status InvariantChecker::CheckRefinement(vao::ResultObject* object,
                                         int max_iterations,
                                         const WorkMeter* meter) {
  if (object == nullptr) {
    return Status::InvalidArgument("CheckRefinement needs an object");
  }
  Bounds previous = object->bounds();
  if (!previous.IsValid()) {
    return Violation("initial bounds malformed " + BoundsToString(previous));
  }
  std::uint64_t previous_work = meter != nullptr ? meter->Total() : 0;
  for (int step = 0; step < max_iterations; ++step) {
    if (object->AtStoppingCondition()) return Status::OK();
    const Status iterated = object->Iterate();
    if (!iterated.ok()) return iterated;
    const Bounds current = object->bounds();
    if (!current.IsValid()) {
      return Violation("bounds malformed after step " + std::to_string(step) +
                       ": " + BoundsToString(current));
    }
    if (!previous.Contains(current)) {
      return Violation("refinement not nested at step " +
                       std::to_string(step) + ": " + BoundsToString(current) +
                       " escapes " + BoundsToString(previous));
    }
    if (meter != nullptr) {
      const std::uint64_t work = meter->Total();
      if (work < previous_work) {
        return Violation("work meter went backwards at step " +
                         std::to_string(step));
      }
      previous_work = work;
    }
    previous = current;
  }
  return Status::OK();
}

Status InvariantChecker::CheckTickAccounting(const engine::TickResult& tick) {
  if (tick.report.work.Total() != tick.work_units) {
    return Violation("report work total " +
                     std::to_string(tick.report.work.Total()) +
                     " != tick work_units " +
                     std::to_string(tick.work_units));
  }
  if (tick.report.iterations != tick.stats.iterations ||
      tick.report.choose_steps != tick.stats.choose_steps ||
      tick.report.objects_touched != tick.stats.objects_touched ||
      tick.report.stalled_objects != tick.stats.stalled_objects) {
    return Violation("report operator section disagrees with tick stats");
  }
  const std::uint64_t phase_total = tick.stats.coarse_iterations +
                                    tick.stats.greedy_iterations +
                                    tick.stats.finalize_iterations;
  if (phase_total != tick.stats.iterations) {
    return Violation("phase split " + std::to_string(phase_total) +
                     " != iterations " + std::to_string(tick.stats.iterations));
  }
  if (tick.report.rows_quarantined != tick.quarantined_rows.size()) {
    return Violation("rows_quarantined disagrees with quarantined_rows");
  }
  if (tick.degraded == tick.degradation_cause.ok()) {
    return Violation("degraded flag and degradation_cause disagree");
  }
  switch (tick.kind) {
    case engine::QueryKind::kMax:
    case engine::QueryKind::kMin:
    case engine::QueryKind::kSum:
    case engine::QueryKind::kAve:
      if (!tick.aggregate_bounds.IsValid()) {
        return Violation("aggregate bounds malformed " +
                         BoundsToString(tick.aggregate_bounds));
      }
      break;
    case engine::QueryKind::kTopK:
      for (const Bounds& b : tick.top_bounds) {
        if (!b.IsValid()) {
          return Violation("top-k bounds malformed " + BoundsToString(b));
        }
      }
      break;
    case engine::QueryKind::kSelect:
    case engine::QueryKind::kSelectRange: {
      const std::vector<std::size_t>& quarantined = tick.quarantined_rows;
      if (!std::is_sorted(quarantined.begin(), quarantined.end())) {
        return Violation("quarantined rows not ascending");
      }
      for (const std::size_t row : tick.passing_rows) {
        if (std::binary_search(quarantined.begin(), quarantined.end(), row)) {
          return Violation("row " + std::to_string(row) +
                           " both passing and quarantined");
        }
      }
      // A stalled row cannot be decided, so it must be quarantined.
      if (tick.stats.stalled_objects > quarantined.size()) {
        return Violation(std::to_string(tick.stats.stalled_objects) +
                         " stalled rows but only " +
                         std::to_string(quarantined.size()) +
                         " quarantined");
      }
      if (!quarantined.empty() && !tick.degraded) {
        return Violation("quarantined rows on an undegraded tick");
      }
      break;
    }
  }
  return Status::OK();
}

Status InvariantChecker::CheckTicksEqual(const engine::TickResult& a,
                                         const engine::TickResult& b,
                                         bool require_equal_work) {
  if (a.kind != b.kind) return Violation("tick kinds differ");
  if (a.passing_rows != b.passing_rows) {
    return Violation("passing rows differ across runs");
  }
  if (a.quarantined_rows != b.quarantined_rows) {
    return Violation("quarantined rows differ across runs");
  }
  if (a.winner_row != b.winner_row) {
    return Violation("winner row differs across runs");
  }
  if (a.top_rows != b.top_rows) return Violation("top-k rows differ");
  if (a.tie != b.tie) return Violation("tie flags differ");
  if (!(a.aggregate_bounds == b.aggregate_bounds)) {
    return Violation("aggregate bounds differ across runs");
  }
  if (require_equal_work) {
    if (a.work_units != b.work_units) {
      return Violation("work units differ: " + std::to_string(a.work_units) +
                       " vs " + std::to_string(b.work_units));
    }
    if (a.stats.iterations != b.stats.iterations) {
      return Violation("iteration counts differ across runs");
    }
  }
  return Status::OK();
}

}  // namespace vaolib::testing
