// Pins the selection family's exact behaviour: SELECT >, <, >= and BETWEEN
// (inclusive and exclusive) over a seeded synthetic workload, evaluated
//   * at the operator level, one Evaluate(object) per row,
//   * through CqExecutor at threads 1 and 2, under kStrict and under
//     kDegrade with NaN-bounds and Iterate()-failure chaos rows,
//   * through MultiQueryExecutor at threads 1 and 2,
// must reproduce the same per-row iterate counts, work by kind, passing and
// quarantined rows, OperatorStats, short-circuit count and degradation
// cause, value for value. MultiQueryExecutor lines also pin a digest of the
// decision trace. The expected lines were recorded from the implementation;
// a change to one of them is a behaviour change, not a refactor. Refinement
// stalls are out of scope here (chaos_test covers the stall rule).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/work_meter.h"
#include "engine/executor.h"
#include "engine/multi_query.h"
#include "obs/trace.h"
#include "operators/selection.h"
#include "testing/chaos_result_object.h"
#include "testing/workload_gen.h"

namespace vaolib::testing {
namespace {

using engine::QueryKind;
using operators::Comparator;

constexpr std::uint64_t kSeed = 20261017;

std::string Hex(double value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buffer;
}

struct Fnv {
  std::uint64_t hash = 1469598103934665603ULL;
  void Add(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (value >> (8 * b)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void Add(const char* text) {
    for (; *text != '\0'; ++text) Add(static_cast<std::uint64_t>(*text));
  }
};

std::string StatsLine(const operators::OperatorStats& s) {
  return "it=" + std::to_string(s.iterations) +
         " cs=" + std::to_string(s.choose_steps) +
         " touched=" + std::to_string(s.objects_touched) +
         " stalled=" + std::to_string(s.stalled_objects) +
         " co=" + std::to_string(s.coarse_iterations) +
         " gr=" + std::to_string(s.greedy_iterations) +
         " fi=" + std::to_string(s.finalize_iterations) +
         " ces=" + std::to_string(s.cost_err_samples) +
         " cd=" + std::to_string(s.corrected_decisions) +
         " raw=" + Hex(s.raw_cost_abs_err) +
         " cor=" + Hex(s.corrected_cost_abs_err);
}

std::string MeterLine(const WorkMeter& meter) {
  return "work=" + std::to_string(meter.Count(WorkKind::kExec)) + "/" +
         std::to_string(meter.Count(WorkKind::kGetState)) + "/" +
         std::to_string(meter.Count(WorkKind::kStoreState)) + "/" +
         std::to_string(meter.Count(WorkKind::kChooseIter));
}

std::string RowsLine(const std::vector<std::size_t>& rows) {
  std::string line;
  for (const std::size_t row : rows) line += std::to_string(row) + ",";
  return line;
}

// Counts every Iterate() call on each row's object, keyed by the row id
// (the function's only argument), so executor-internal objects can be
// pinned after the tick destroyed them. Batch keys are not forwarded; the
// objects it wraps have none.
class CountingObject : public vao::ResultObject {
 public:
  CountingObject(vao::ResultObjectPtr inner, std::atomic<int>* count)
      : inner_(std::move(inner)), count_(count) {}

  Bounds bounds() const override { return inner_->bounds(); }
  double min_width() const override { return inner_->min_width(); }
  Status Iterate() override {
    count_->fetch_add(1, std::memory_order_relaxed);
    return inner_->Iterate();
  }
  std::uint64_t est_cost() const override { return inner_->est_cost(); }
  Bounds est_bounds() const override { return inner_->est_bounds(); }
  int iterations() const override { return inner_->iterations(); }
  std::uint64_t traditional_cost() const override {
    return inner_->traditional_cost();
  }
  int calibration_kind() const override { return inner_->calibration_kind(); }
  std::string correlation_key() const override {
    return inner_->correlation_key();
  }

 private:
  vao::ResultObjectPtr inner_;
  std::atomic<int>* count_;
};

class CountingFunction : public vao::VariableAccuracyFunction {
 public:
  CountingFunction(const vao::VariableAccuracyFunction* inner,
                   std::size_t rows)
      : inner_(inner), counts_(rows) {}

  const std::string& name() const override { return inner_->name(); }
  int arity() const override { return inner_->arity(); }
  Result<vao::ResultObjectPtr> Invoke(const std::vector<double>& args,
                                      WorkMeter* meter) const override {
    auto inner = inner_->Invoke(args, meter);
    if (!inner.ok()) return inner.status();
    auto* count = &counts_[static_cast<std::size_t>(args[0])];
    return vao::ResultObjectPtr(
        new CountingObject(std::move(inner).value(), count));
  }

  std::string Counts() const {
    std::string line;
    for (const auto& count : counts_) {
      line += std::to_string(count.load()) + ",";
    }
    return line;
  }

 private:
  const vao::VariableAccuracyFunction* inner_;
  mutable std::vector<std::atomic<int>> counts_;
};

enum class Pred { kGt, kLt, kGe, kBetweenIn, kBetweenEx };

enum class Path { kOperator, kCqStrict, kCqStrictChaos, kCqDegradeChaos, kMq };

struct PinCase {
  const char* name;
  Pred pred;
  Path path;
  int threads;
  const char* expected;
};

class SelectionPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = MakeWorkload(WorkloadSpec{}, kSeed);
    const std::vector<double>& v = workload_.true_values;
    // A constant exactly at one row's value (decided by the minWidth
    // equality rule), one between two values, and a range whose endpoints
    // sit on two rows' values.
    at_value_ = v[3];
    between_values_ = 0.5 * (v[5] + v[6]);
    range_lo_ = std::min(v[2], v[9]);
    range_hi_ = std::max(v[2], v[9]);
  }

  engine::Query MakeQuery(Pred pred,
                          const vao::VariableAccuracyFunction* function) const {
    engine::Query query;
    query.function = function;
    query.args = {engine::ArgRef::RelationField("id")};
    switch (pred) {
      case Pred::kGt:
        query.kind = QueryKind::kSelect;
        query.cmp = Comparator::kGreaterThan;
        query.constant = at_value_;
        break;
      case Pred::kLt:
        query.kind = QueryKind::kSelect;
        query.cmp = Comparator::kLessThan;
        query.constant = between_values_;
        break;
      case Pred::kGe:
        query.kind = QueryKind::kSelect;
        query.cmp = Comparator::kGreaterEqual;
        query.constant = at_value_;
        break;
      case Pred::kBetweenIn:
      case Pred::kBetweenEx:
        query.kind = QueryKind::kSelectRange;
        query.range_lo = range_lo_;
        query.range_hi = range_hi_;
        query.range_inclusive = pred == Pred::kBetweenIn;
        break;
    }
    return query;
  }

  // One Evaluate(object) per row, each object charging one meter.
  std::string RunOperator(Pred pred) const {
    const engine::Query query = MakeQuery(pred, workload_.function.get());
    WorkMeter meter;
    std::string rows;
    std::string iterations;
    operators::OperatorStats total;
    for (std::size_t row = 0; row < workload_.true_values.size(); ++row) {
      auto object = workload_.function->Invoke(
          {static_cast<double>(row)}, &meter);
      if (!object.ok()) return object.status().ToString();
      Result<operators::SelectionOutcome> outcome =
          Status::Internal("unset");
      if (query.kind == QueryKind::kSelect) {
        outcome = operators::SelectionVao(query.cmp, query.constant)
                      .Evaluate(object->get(), &meter);
      } else {
        outcome = operators::RangeSelectionVao(query.range_lo,
                                               query.range_hi,
                                               query.range_inclusive)
                      .Evaluate(object->get(), &meter);
      }
      if (!outcome.ok()) return outcome.status().ToString();
      rows += std::to_string(outcome->passes) +
              std::to_string(outcome->resolved_as_equal) +
              std::to_string(outcome->short_circuited) + "@" +
              Hex(outcome->final_bounds.lo) + ":" +
              Hex(outcome->final_bounds.hi) + ",";
      iterations += std::to_string((*object)->iterations()) + ",";
      total.Merge(outcome->stats);
    }
    return MeterLine(meter) + " " + StatsLine(total) + " its=" + iterations +
           " rows=" + rows;
  }

  // Everything a tick pins, minus the trace.
  static std::string TickLine(const engine::TickResult& tick) {
    return "pass=" + RowsLine(tick.passing_rows) +
           " quar=" + RowsLine(tick.quarantined_rows) +
           " deg=" + std::to_string(tick.degraded) + "/" +
           std::to_string(static_cast<int>(tick.degradation_cause.code())) +
           " conv=" + std::to_string(tick.converged) +
           " sc=" + std::to_string(tick.report.rows_short_circuited) +
           " rq=" + std::to_string(tick.report.rows_quarantined) +
           " wu=" + std::to_string(tick.work_units) + " " +
           StatsLine(tick.stats);
  }

  std::string RunCq(Pred pred, Path path, int threads) const {
    ChaosOptions chaos_options;
    chaos_options.seed = 2;
    chaos_options.fault_probability = path == Path::kCqStrict ? 0.0 : 0.5;
    chaos_options.kinds = {FaultKind::kNanBounds, FaultKind::kIterateFailure};
    const ChaosFunction chaos(workload_.function.get(), chaos_options);
    const CountingFunction counting(&chaos, workload_.true_values.size());
    auto executor = engine::CqExecutor::Create(
        &workload_.relation, engine::Schema{}, MakeQuery(pred, &counting),
        engine::ExecutionMode::kVao, threads,
        path == Path::kCqDegradeChaos ? engine::ResiliencePolicy::kDegrade
                                    : engine::ResiliencePolicy::kStrict);
    if (!executor.ok()) return executor.status().ToString();
    const auto tick = executor.value()->ProcessTick({});
    const std::string head = MeterLine(executor.value()->meter()) +
                             " its=" + counting.Counts();
    if (!tick.ok()) {
      return head + " err=" +
             std::to_string(static_cast<int>(tick.status().code()));
    }
    return head + " " + TickLine(*tick);
  }

  std::string RunMq(Pred pred, int threads) const {
    const CountingFunction counting(workload_.function.get(),
                                    workload_.true_values.size());
    engine::MultiQueryOptions options;
    options.threads = threads;
    auto executor = engine::MultiQueryExecutor::Create(
        &workload_.relation, engine::Schema{}, {MakeQuery(pred, &counting)},
        options);
    if (!executor.ok()) return executor.status().ToString();
    obs::ClearTrace();
    const auto ticks = executor.value()->ProcessTick({});
    if (!ticks.ok()) return ticks.status().ToString();

    const obs::TraceSnapshot trace = obs::SnapshotTrace();
    Fnv decisions;
    std::uint64_t decision_count = 0;
    for (const obs::TraceEvent& event : trace.events) {
      if (event.kind != obs::TraceEvent::Kind::kDecision) continue;
      ++decision_count;
      decisions.Add(event.name);
      decisions.Add(event.phase);
      decisions.Add(event.object_index);
      for (const double v :
           {event.lo_before, event.hi_before, event.lo_after, event.hi_after,
            event.est_lo, event.est_hi, event.est_cost, event.actual_cost,
            event.score, event.raw_score}) {
        decisions.Add(v);
      }
    }
    EXPECT_EQ(trace.dropped, 0u);
    char digest[48];
    std::snprintf(digest, sizeof(digest), "dec=%llu/%016llx",
                  static_cast<unsigned long long>(decision_count),
                  static_cast<unsigned long long>(decisions.hash));
    return MeterLine(executor.value()->meter()) +
           " its=" + counting.Counts() + " " + TickLine(ticks->front()) +
           " " + digest;
  }

  std::string RunCase(const PinCase& pin) const {
    switch (pin.path) {
      case Path::kOperator:
        return RunOperator(pin.pred);
      case Path::kCqStrict:
      case Path::kCqStrictChaos:
      case Path::kCqDegradeChaos:
        return RunCq(pin.pred, pin.path, pin.threads);
      case Path::kMq:
        return RunMq(pin.pred, pin.threads);
    }
    return "unreachable";
  }

  Workload workload_;
  double at_value_ = 0.0;
  double between_values_ = 0.0;
  double range_lo_ = 0.0;
  double range_hi_ = 0.0;
};

const PinCase kCases[] = {
    {"op/gt", Pred::kGt, Path::kOperator, 1,
     "work=53/0/0/0 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " rows=001@c0445aec52af2fbc:c041b1331581b11e,"
     "101@c037831520dcfb44:403be15c6c41b49a,"
     "001@c058b6e27d5f6988:c0439ba70c3de1ae,"
     "010@c04004b64332b781:c04003b6e764f44c,"
     "101@4042583c3aa47b9c:4054a8e8638899b6,"
     "101@4039c41addb2209c:4053aecd98a9d47a,"
     "101@c02e81525aed207c:403a418b4570d82c,"
     "001@c056f70c6a62fbb1:c0406b911c8f03ff,"
     "101@c02a14e5b8a24342:402776f778862de2,"
     "101@4045e939eea59570:40573bbc3cb0ab04,"
     "101@40146ea05a29ac50:404b6387fdaae872,"
     "101@3fc4490fecc11400:405813bf048e96aa,"
     "001@c05cca246c8ff100:c0498aa2b6e64d30,"
     "001@c056d97a5abdf313:c05052d6cc3f8fdf,"
     "101@3ff3e38a76632a40:4053cc7e0385a39d,"
     "101@c01734f514e91800:404626445e9d758a,"},
    {"op/lt", Pred::kLt, Path::kOperator, 1,
     "work=88/0/0/0 it=14 cs=0 touched=6 stalled=0 co=0 gr=14 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,1,0,0,0,1,0,0,0,0,4,1,0,0,2,5,"
     " rows=101@c049d107daf5ddd3:c032466bd38e14ec,"
     "101@c037831520dcfb44:403be15c6c41b49a,"
     "101@c058b6e27d5f6988:c0439ba70c3de1ae,"
     "101@c04a43b7134da542:403989895bb08544,"
     "001@4042583c3aa47b9c:4054a8e8638899b6,"
     "001@404b00498a24d786:4052124de01f13f3,"
     "101@c02e81525aed207c:403a418b4570d82c,"
     "101@c05a70db050c565f:c0375b563ae4eeb4,"
     "101@c02a14e5b8a24342:402776f778862de2,"
     "001@4045e939eea59570:40573bbc3cb0ab04,"
     "001@403d135a6acea543:403dd73462158fae,"
     "001@40467550fbf800f6:40570714db510dac,"
     "101@c05cca246c8ff100:c0498aa2b6e64d30,"
     "101@c0575a00e025bb1a:c027207041409b88,"
     "101@40335457cae41e1c:403a90083942d72d,"
     "101@40382cb34b5a249e:403bf36c3d0ab695,"},
    {"op/ge", Pred::kGe, Path::kOperator, 1,
     "work=53/0/0/0 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " rows=001@c0445aec52af2fbc:c041b1331581b11e,"
     "101@c037831520dcfb44:403be15c6c41b49a,"
     "001@c058b6e27d5f6988:c0439ba70c3de1ae,"
     "110@c04004b64332b781:c04003b6e764f44c,"
     "101@4042583c3aa47b9c:4054a8e8638899b6,"
     "101@4039c41addb2209c:4053aecd98a9d47a,"
     "101@c02e81525aed207c:403a418b4570d82c,"
     "001@c056f70c6a62fbb1:c0406b911c8f03ff,"
     "101@c02a14e5b8a24342:402776f778862de2,"
     "101@4045e939eea59570:40573bbc3cb0ab04,"
     "101@40146ea05a29ac50:404b6387fdaae872,"
     "101@3fc4490fecc11400:405813bf048e96aa,"
     "001@c05cca246c8ff100:c0498aa2b6e64d30,"
     "001@c056d97a5abdf313:c05052d6cc3f8fdf,"
     "101@3ff3e38a76632a40:4053cc7e0385a39d,"
     "101@c01734f514e91800:404626445e9d758a,"},
    {"op/between_in", Pred::kBetweenIn, Path::kOperator, 1,
     "work=40104/0/0/0 it=47 cs=0 touched=7 stalled=0 co=0 gr=47"
     " fi=0 ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " rows=101@c049d107daf5ddd3:c032466bd38e14ec,"
     "101@c0407e9e050ad973:40427125db065eaf,"
     "110@c04c9e6b01ce8606:c04c9d887ce48bf0,"
     "101@c04a43b7134da542:403989895bb08544,"
     "101@4042f5a7c7690957:4051ac70ac460a74,"
     "101@4039c41addb2209c:4053aecd98a9d47a,"
     "101@c02e81525aed207c:403a418b4570d82c,"
     "101@c04c9d97509c32dd:c04c3b09bcc95a54,"
     "101@c02a14e5b8a24342:402776f778862de2,"
     "110@405486e71d86d209:4054874ee8302698,"
     "101@40146ea05a29ac50:404b6387fdaae872,"
     "001@4054bd894e79f856:405622b6756a1af4,"
     "001@c05342490023a16e:c04caabab32f89cb,"
     "001@c056d97a5abdf313:c05052d6cc3f8fdf,"
     "101@3ff3e38a76632a40:4053cc7e0385a39d,"
     "101@c01734f514e91800:404626445e9d758a,"},
    {"op/between_ex", Pred::kBetweenEx, Path::kOperator, 1,
     "work=40104/0/0/0 it=47 cs=0 touched=7 stalled=0 co=0 gr=47"
     " fi=0 ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " rows=101@c049d107daf5ddd3:c032466bd38e14ec,"
     "101@c0407e9e050ad973:40427125db065eaf,"
     "010@c04c9e6b01ce8606:c04c9d887ce48bf0,"
     "101@c04a43b7134da542:403989895bb08544,"
     "101@4042f5a7c7690957:4051ac70ac460a74,"
     "101@4039c41addb2209c:4053aecd98a9d47a,"
     "101@c02e81525aed207c:403a418b4570d82c,"
     "101@c04c9d97509c32dd:c04c3b09bcc95a54,"
     "101@c02a14e5b8a24342:402776f778862de2,"
     "010@405486e71d86d209:4054874ee8302698,"
     "101@40146ea05a29ac50:404b6387fdaae872,"
     "001@4054bd894e79f856:405622b6756a1af4,"
     "001@c05342490023a16e:c04caabab32f89cb,"
     "001@c056d97a5abdf313:c05052d6cc3f8fdf,"
     "101@3ff3e38a76632a40:4053cc7e0385a39d,"
     "101@c01734f514e91800:404626445e9d758a,"},
    {"cq_strict/gt/t1", Pred::kGt, Path::kCqStrict, 1,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15 rq=0"
     " wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/lt/t1", Pred::kLt, Path::kCqStrict, 1,
     "work=88/0/0/0 its=0,1,0,0,0,1,0,0,0,0,4,1,0,0,2,5,"
     " pass=0,1,2,3,6,7,8,12,13,14,15, quar= deg=0/0 conv=1 sc=16"
     " rq=0 wu=88 it=14 cs=0 touched=6 stalled=0 co=0 gr=14 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/ge/t1", Pred::kGe, Path::kCqStrict, 1,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,3,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15"
     " rq=0 wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/between_in/t1", Pred::kBetweenIn, Path::kCqStrict, 1,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,2,3,4,5,6,7,8,9,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/between_ex/t1", Pred::kBetweenEx, Path::kCqStrict, 1,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/gt/t2", Pred::kGt, Path::kCqStrict, 2,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15 rq=0"
     " wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/lt/t2", Pred::kLt, Path::kCqStrict, 2,
     "work=88/0/0/0 its=0,1,0,0,0,1,0,0,0,0,4,1,0,0,2,5,"
     " pass=0,1,2,3,6,7,8,12,13,14,15, quar= deg=0/0 conv=1 sc=16"
     " rq=0 wu=88 it=14 cs=0 touched=6 stalled=0 co=0 gr=14 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/ge/t2", Pred::kGe, Path::kCqStrict, 2,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,3,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15"
     " rq=0 wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/between_in/t2", Pred::kBetweenIn, Path::kCqStrict, 2,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,2,3,4,5,6,7,8,9,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict/between_ex/t2", Pred::kBetweenEx, Path::kCqStrict, 2,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_strict_chaos/gt/t1", Pred::kGt, Path::kCqStrictChaos, 1,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0, err=8"},
    {"cq_strict_chaos/lt/t1", Pred::kLt, Path::kCqStrictChaos, 1,
     "work=29/0/0/0 its=0,1,0,0,0,1,0,0,0,0,0,1,0,0,2,4, err=8"},
    {"cq_strict_chaos/ge/t1", Pred::kGe, Path::kCqStrictChaos, 1,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0, err=8"},
    {"cq_strict_chaos/between_in/t1", Pred::kBetweenIn, Path::kCqStrictChaos, 1,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0, err=8"},
    {"cq_strict_chaos/between_ex/t1", Pred::kBetweenEx, Path::kCqStrictChaos, 1,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0, err=8"},
    {"cq_strict_chaos/gt/t2", Pred::kGt, Path::kCqStrictChaos, 2,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0, err=8"},
    {"cq_strict_chaos/lt/t2", Pred::kLt, Path::kCqStrictChaos, 2,
     "work=29/0/0/0 its=0,1,0,0,0,1,0,0,0,0,0,1,0,0,2,4, err=8"},
    {"cq_strict_chaos/ge/t2", Pred::kGe, Path::kCqStrictChaos, 2,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0, err=8"},
    {"cq_strict_chaos/between_in/t2", Pred::kBetweenIn, Path::kCqStrictChaos, 2,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0, err=8"},
    {"cq_strict_chaos/between_ex/t2", Pred::kBetweenEx, Path::kCqStrictChaos, 2,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0, err=8"},
    {"cq_degrade_chaos/gt/t1", Pred::kGt, Path::kCqDegradeChaos, 1,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=4,5,6,8,9,11,14,15, quar=1,3,10, deg=1/8 conv=1 sc=13"
     " rq=3 wu=42 it=4 cs=0 touched=3 stalled=0 co=0 gr=4 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/lt/t1", Pred::kLt, Path::kCqDegradeChaos, 1,
     "work=29/0/0/0 its=0,1,0,0,0,1,0,0,0,0,0,1,0,0,2,4,"
     " pass=0,2,3,6,7,8,12,13,14, quar=1,10,15, deg=1/8 conv=1 sc=13"
     " rq=3 wu=29 it=4 cs=0 touched=3 stalled=0 co=0 gr=4 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/ge/t1", Pred::kGe, Path::kCqDegradeChaos, 1,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=4,5,6,8,9,11,14,15, quar=1,3,10, deg=1/8 conv=1 sc=13"
     " rq=3 wu=42 it=4 cs=0 touched=3 stalled=0 co=0 gr=4 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/between_in/t1",
     Pred::kBetweenIn, Path::kCqDegradeChaos, 1,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,9,14,15, quar=2,10, deg=1/8 conv=1 sc=13"
     " rq=2 wu=39587 it=39 cs=0 touched=6 stalled=0 co=0 gr=39 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/between_ex/t1",
     Pred::kBetweenEx, Path::kCqDegradeChaos, 1,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,14,15, quar=2,10, deg=1/8 conv=1 sc=13"
     " rq=2 wu=39587 it=39 cs=0 touched=6 stalled=0 co=0 gr=39 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/gt/t2", Pred::kGt, Path::kCqDegradeChaos, 2,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=4,5,6,8,9,11,14,15, quar=1,3,10, deg=1/8 conv=1 sc=13"
     " rq=3 wu=42 it=4 cs=0 touched=3 stalled=0 co=0 gr=4 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/lt/t2", Pred::kLt, Path::kCqDegradeChaos, 2,
     "work=29/0/0/0 its=0,1,0,0,0,1,0,0,0,0,0,1,0,0,2,4,"
     " pass=0,2,3,6,7,8,12,13,14, quar=1,10,15, deg=1/8 conv=1 sc=13"
     " rq=3 wu=29 it=4 cs=0 touched=3 stalled=0 co=0 gr=4 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/ge/t2", Pred::kGe, Path::kCqDegradeChaos, 2,
     "work=42/0/0/0 its=2,1,0,5,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=4,5,6,8,9,11,14,15, quar=1,3,10, deg=1/8 conv=1 sc=13"
     " rq=3 wu=42 it=4 cs=0 touched=3 stalled=0 co=0 gr=4 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/between_in/t2",
     Pred::kBetweenIn, Path::kCqDegradeChaos, 2,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,9,14,15, quar=2,10, deg=1/8 conv=1 sc=13"
     " rq=2 wu=39587 it=39 cs=0 touched=6 stalled=0 co=0 gr=39 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"cq_degrade_chaos/between_ex/t2",
     Pred::kBetweenEx, Path::kCqDegradeChaos, 2,
     "work=39587/0/0/0 its=0,0,1,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,14,15, quar=2,10, deg=1/8 conv=1 sc=13"
     " rq=2 wu=39587 it=39 cs=0 touched=6 stalled=0 co=0 gr=39 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"},
    {"mq/gt/t1", Pred::kGt, Path::kMq, 1,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15 rq=0"
     " wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=15/8378896ca6f8f0a6"},
    {"mq/lt/t1", Pred::kLt, Path::kMq, 1,
     "work=88/0/0/0 its=0,1,0,0,0,1,0,0,0,0,4,1,0,0,2,5,"
     " pass=0,1,2,3,6,7,8,12,13,14,15, quar= deg=0/0 conv=1 sc=16"
     " rq=0 wu=88 it=14 cs=0 touched=6 stalled=0 co=0 gr=14 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=14/542c45fbee3b327f"},
    {"mq/ge/t1", Pred::kGe, Path::kMq, 1,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,3,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15"
     " rq=0 wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=15/8378896ca6f8f0a6"},
    {"mq/between_in/t1", Pred::kBetweenIn, Path::kMq, 1,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,2,3,4,5,6,7,8,9,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=47/497dcb6f8e1de68c"},
    {"mq/between_ex/t1", Pred::kBetweenEx, Path::kMq, 1,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=47/497dcb6f8e1de68c"},
    {"mq/gt/t2", Pred::kGt, Path::kMq, 2,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15 rq=0"
     " wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0 ces=0"
     " cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=15/8080d40486bcf198"},
    {"mq/lt/t2", Pred::kLt, Path::kMq, 2,
     "work=88/0/0/0 its=0,1,0,0,0,1,0,0,0,0,4,1,0,0,2,5,"
     " pass=0,1,2,3,6,7,8,12,13,14,15, quar= deg=0/0 conv=1 sc=16"
     " rq=0 wu=88 it=14 cs=0 touched=6 stalled=0 co=0 gr=14 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=14/7e162b6264f5eff4"},
    {"mq/ge/t2", Pred::kGe, Path::kMq, 2,
     "work=53/0/0/0 its=2,1,0,10,0,0,0,1,0,0,0,0,0,1,0,0,"
     " pass=1,3,4,5,6,8,9,10,11,14,15, quar= deg=0/0 conv=1 sc=15"
     " rq=0 wu=53 it=15 cs=0 touched=5 stalled=0 co=0 gr=15 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=15/8080d40486bcf198"},
    {"mq/between_in/t2", Pred::kBetweenIn, Path::kMq, 2,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,2,3,4,5,6,7,8,9,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=47/4896863509548afc"},
    {"mq/between_ex/t2", Pred::kBetweenEx, Path::kMq, 2,
     "work=40104/0/0/0 its=0,0,8,0,1,0,0,14,0,16,0,4,3,1,0,0,"
     " pass=0,1,3,4,5,6,7,8,10,14,15, quar= deg=0/0 conv=1 sc=14"
     " rq=0 wu=40104 it=47 cs=0 touched=7 stalled=0 co=0 gr=47 fi=0"
     " ces=0 cd=0 raw=0000000000000000 cor=0000000000000000"
     " dec=47/4896863509548afc"},
};

TEST_F(SelectionPinTest, ExactBehaviourIsUnchanged) {
  obs::SetTraceRingCapacity(1 << 16);
  obs::SetTraceMode(obs::TraceMode::kFlight);
  for (const PinCase& pin : kCases) {
    EXPECT_EQ(RunCase(pin), pin.expected) << pin.name;
  }
  obs::SetTraceMode(obs::TraceMode::kOff);
}

}  // namespace
}  // namespace vaolib::testing
