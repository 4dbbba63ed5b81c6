// Copyright 2026 The vaolib Authors.
// Prepayable: work of a result object's next Iterate() that can be paid for
// ahead of the iterate, because it outlives the object.
//
// A budgeted scheduler never starts an iterate it cannot pay for
// (engine::WorkScheduler). An iterate dearer than the whole budget would
// then never run, however often it is asked for. When its work outlives
// the object -- a PDE profile march kept in a vao::PdeProfileCache -- the
// budget that no iterate can use may pay for it in installments instead,
// until a later step can afford what is left.
//
// Finding it. Operators hold result objects through whatever wrappers the
// UDF added (a caching layer, a timing decorator), and a wrapper forwards
// only the ResultObject interface. So an object reports its prepayable work
// from est_cost(), which every wrapper forwards, and Find() quotes the
// outermost object to learn what is behind it.

#ifndef VAOLIB_VAO_PREPAYABLE_H_
#define VAOLIB_VAO_PREPAYABLE_H_

#include <cstdint>

#include "vao/result_object.h"

namespace vaolib::vao {

/// \brief The prepayable part of a result object's next Iterate().
class Prepayable {
 public:
  /// Spends up to \p units of the next iterate's work without refining,
  /// charging the object's meter; the object's est_cost() drops by the
  /// units returned. Changes only state shared beyond the object.
  virtual std::uint64_t Prepay(std::uint64_t units) const = 0;

  /// The prepayable work behind \p object, or null: quotes its
  /// est_cost() and returns the first work that reported itself meanwhile
  /// on this thread.
  static const Prepayable* Find(const ResultObject& object);

 protected:
  ~Prepayable() = default;

  /// Called from est_cost() by an object whose next iterate can be
  /// prepaid: records it if a Find() on this thread is quoting.
  void Report() const;
};

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_PREPAYABLE_H_
