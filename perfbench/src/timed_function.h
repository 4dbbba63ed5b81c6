// Timing decorator at the vao::VariableAccuracyFunction / ResultObject
// boundary. Traced runs register a TimedFunction in place of the real UDF:
// every Invoke() and Iterate() becomes a span, and each Iterate() records
// the object's est_cost() beforehand and the meter delta and width change
// afterwards. Every other virtual is forwarded unchanged, so the engine
// sees the same objects and spends the same work units.

#ifndef PERFBENCH_TIMED_FUNCTION_H_
#define PERFBENCH_TIMED_FUNCTION_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "vao/result_object.h"

namespace perfbench {

/// Counts gathered by the decorator (cumulative over a run).
struct VaoCounters {
  std::uint64_t invokes = 0;
  std::uint64_t iterates = 0;
  std::uint64_t invoke_units = 0;   ///< meter delta across Invoke()
  std::uint64_t iterate_units = 0;  ///< meter delta across Iterate()
  /// Sum over iterates of |est_cost - actual| / max(actual, 1).
  double est_cost_rel_err_sum = 0.0;
  /// Iterates after which the bounds were no narrower than before.
  std::uint64_t nonshrinking_iterates = 0;
};

class TimedResultObject : public vaolib::vao::ResultObject {
 public:
  TimedResultObject(vaolib::vao::ResultObjectPtr inner,
                    vaolib::WorkMeter* meter, SpanRecorder* recorder,
                    VaoCounters* counters)
      : inner_(std::move(inner)),
        meter_(meter),
        recorder_(recorder),
        counters_(counters) {}

  vaolib::Bounds bounds() const override { return inner_->bounds(); }
  double min_width() const override { return inner_->min_width(); }

  vaolib::Status Iterate() override {
    const std::uint64_t estimate = inner_->est_cost();
    const double width_before = inner_->bounds().Width();
    const std::uint64_t before = meter_ != nullptr ? meter_->Total() : 0;
    vaolib::Status status;
    {
      const ScopedSpan span(recorder_, SpanName::kVaoIterate);
      status = inner_->Iterate();
    }
    const std::uint64_t actual =
        meter_ != nullptr ? meter_->Total() - before : 0;
    ++counters_->iterates;
    counters_->iterate_units += actual;
    counters_->est_cost_rel_err_sum +=
        std::fabs(static_cast<double>(estimate) -
                  static_cast<double>(actual)) /
        static_cast<double>(actual > 0 ? actual : 1);
    if (!(inner_->bounds().Width() < width_before)) {
      ++counters_->nonshrinking_iterates;
    }
    return status;
  }

  std::uint64_t est_cost() const override { return inner_->est_cost(); }
  vaolib::Bounds est_bounds() const override { return inner_->est_bounds(); }
  int iterations() const override { return inner_->iterations(); }
  std::uint64_t traditional_cost() const override {
    return inner_->traditional_cost();
  }
  std::string batch_key() const override { return inner_->batch_key(); }
  int calibration_kind() const override { return inner_->calibration_kind(); }
  std::string correlation_key() const override {
    return inner_->correlation_key();
  }

 private:
  vaolib::vao::ResultObjectPtr inner_;
  vaolib::WorkMeter* meter_;
  SpanRecorder* recorder_;
  VaoCounters* counters_;
};

class TimedFunction : public vaolib::vao::VariableAccuracyFunction {
 public:
  /// \p inner, \p recorder and \p counters are borrowed and must outlive
  /// every object this function returns.
  TimedFunction(const vaolib::vao::VariableAccuracyFunction* inner,
                SpanRecorder* recorder, VaoCounters* counters)
      : inner_(inner), recorder_(recorder), counters_(counters) {}

  const std::string& name() const override { return inner_->name(); }
  int arity() const override { return inner_->arity(); }

  vaolib::Result<vaolib::vao::ResultObjectPtr> Invoke(
      const std::vector<double>& args,
      vaolib::WorkMeter* meter) const override {
    const std::uint64_t before = meter != nullptr ? meter->Total() : 0;
    vaolib::Result<vaolib::vao::ResultObjectPtr> object = [&] {
      const ScopedSpan span(recorder_, SpanName::kVaoInvoke);
      return inner_->Invoke(args, meter);
    }();
    ++counters_->invokes;
    counters_->invoke_units += meter != nullptr ? meter->Total() - before : 0;
    if (!object.ok()) return object;
    return vaolib::vao::ResultObjectPtr(new TimedResultObject(
        std::move(object).ValueOrDie(), meter, recorder_, counters_));
  }

 private:
  const vaolib::vao::VariableAccuracyFunction* inner_;
  SpanRecorder* recorder_;
  VaoCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_FUNCTION_H_
