// Copyright 2026 The vaolib Authors.
// Selection VAO (Sections 3.2 and 5) and its traditional counterpart.
//
// The selection VAO evaluates  f(args) <cmp> constant  by iterating a result
// object only until (a) the bounds no longer contain the constant, or
// (b) the bounds width falls below minWidth. In case (b) the function value
// is considered equal to the constant and the predicate is resolved
// accordingly (strict comparisons false, non-strict true).

#ifndef VAOLIB_OPERATORS_SELECTION_H_
#define VAOLIB_OPERATORS_SELECTION_H_

#include <vector>

#include "common/result.h"
#include "operators/operator_base.h"
#include "vao/black_box.h"
#include "vao/result_object.h"

namespace vaolib::operators {

/// \brief Outcome of one selection-predicate evaluation.
struct SelectionOutcome {
  bool passes = false;           ///< predicate truth value
  bool resolved_as_equal = false;///< true when decided via the minWidth rule
  /// True when the predicate was decided from bounds alone, before the
  /// object reached its stopping condition -- the adaptive win the paper's
  /// selection operator exists to harvest.
  bool short_circuited = false;
  Bounds final_bounds;           ///< bounds when the decision was made
  OperatorStats stats;
};

/// \brief Selection predicate evaluated adaptively over result objects.
class SelectionVao {
 public:
  SelectionVao(Comparator cmp, double constant)
      : cmp_(cmp), constant_(constant) {}

  /// Iterates \p object just enough to decide the predicate. \p meter, when
  /// it is the meter \p object charges, costs each refinement for the
  /// decision trace and the calibration accounts.
  Result<SelectionOutcome> Evaluate(vao::ResultObject* object,
                                    WorkMeter* meter = nullptr) const;

  /// Invokes \p function on \p args and evaluates the fresh object;
  /// function work is charged to \p meter.
  Result<SelectionOutcome> Evaluate(
      const vao::VariableAccuracyFunction& function,
      const std::vector<double>& args, WorkMeter* meter) const;

  Comparator comparator() const { return cmp_; }
  double constant() const { return constant_; }

 private:
  Comparator cmp_;
  double constant_;
};

/// \brief Range (BETWEEN) selection VAO: evaluates  lo <cmp> f(args) <cmp> hi
/// adaptively -- an extension generalizing the single-constant selection.
/// Iterates until the bounds are entirely inside [lo, hi], entirely outside,
/// or converged on an endpoint (resolved with the minWidth equality rule:
/// inclusive endpoints pass, exclusive fail).
class RangeSelectionVao {
 public:
  /// Predicate: value in [lo, hi] when \p inclusive, (lo, hi) otherwise.
  RangeSelectionVao(double lo, double hi, bool inclusive = true)
      : range_(lo, hi), inclusive_(inclusive) {}

  /// Iterates \p object just enough to decide membership; \p meter as for
  /// SelectionVao::Evaluate.
  /// \return InvalidArgument when hi < lo or the object is null.
  Result<SelectionOutcome> Evaluate(vao::ResultObject* object,
                                    WorkMeter* meter = nullptr) const;

  /// Invokes \p function on \p args and evaluates the fresh object.
  Result<SelectionOutcome> Evaluate(
      const vao::VariableAccuracyFunction& function,
      const std::vector<double>& args, WorkMeter* meter) const;

  const Bounds& range() const { return range_; }
  bool inclusive() const { return inclusive_; }

 private:
  Bounds range_;
  bool inclusive_;
};

/// \brief Shared evaluation of many selection predicates over ONE function
/// result -- an extension for continuous-query systems where many standing
/// queries filter on the same UDF with different constants (e.g. different
/// traders' price alerts on the same bond).
///
/// A single result object is iterated until every predicate is decided: the
/// bounds must exclude every constant (or the object converges, at which
/// point straddled constants resolve by the minWidth equality rule). Total
/// work is governed by the constant *nearest* the function value rather
/// than by the number of predicates, so m queries cost about as much as the
/// hardest one instead of m times an average one.
class MultiSelectionVao {
 public:
  /// One predicate: function(args) <cmp> constant.
  struct Predicate {
    Comparator cmp = Comparator::kGreaterThan;
    double constant = 0.0;
  };

  explicit MultiSelectionVao(std::vector<Predicate> predicates)
      : predicates_(std::move(predicates)) {}

  struct MultiOutcome {
    /// Truth value per predicate, parallel to the constructor's list.
    std::vector<bool> passes;
    /// Which predicates were resolved by the minWidth equality rule.
    std::vector<bool> resolved_as_equal;
    /// True when every predicate was decided from bounds alone, before the
    /// object reached its stopping condition.
    bool short_circuited = false;
    Bounds final_bounds;
    OperatorStats stats;
  };

  /// Iterates \p object until every predicate is decided; \p meter as for
  /// SelectionVao::Evaluate.
  /// \return InvalidArgument for an empty predicate list or null object.
  Result<MultiOutcome> Evaluate(vao::ResultObject* object,
                                WorkMeter* meter = nullptr) const;

  /// Invokes \p function on \p args and evaluates the fresh object.
  Result<MultiOutcome> Evaluate(const vao::VariableAccuracyFunction& function,
                                const std::vector<double>& args,
                                WorkMeter* meter) const;

  const std::vector<Predicate>& predicates() const { return predicates_; }

 private:
  std::vector<Predicate> predicates_;
};

/// \brief Traditional selection over a black-box UDF: always runs the
/// function to full accuracy, then compares (the paper's Figure 2).
class TraditionalSelection {
 public:
  TraditionalSelection(Comparator cmp, double constant)
      : cmp_(cmp), constant_(constant) {}

  Result<bool> Evaluate(const vao::BlackBoxFunction& function,
                        const std::vector<double>& args,
                        WorkMeter* meter) const;

  Comparator comparator() const { return cmp_; }
  double constant() const { return constant_; }

 private:
  Comparator cmp_;
  double constant_;
};

}  // namespace vaolib::operators

#endif  // VAOLIB_OPERATORS_SELECTION_H_
