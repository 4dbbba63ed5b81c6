#include "vao/prepayable.h"

namespace vaolib::vao {

namespace {

// The work reported by the innermost Find() quoting on this thread (null
// slot: none quoting).
thread_local const Prepayable** probe = nullptr;

}  // namespace

const Prepayable* Prepayable::Find(const ResultObject& object) {
  const Prepayable* found = nullptr;
  const Prepayable** const outer = probe;
  probe = &found;
  (void)object.est_cost();
  probe = outer;
  return found;
}

void Prepayable::Report() const {
  if (probe != nullptr && *probe == nullptr) *probe = this;
}

}  // namespace vaolib::vao
