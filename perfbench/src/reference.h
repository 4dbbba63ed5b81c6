// The reference block: a fixed piece of CPU work that the harness times
// between operations, so that a run can state its throughput at a fixed
// host speed.
//
// On a shared host a vCPU's speed shifts between levels for seconds to
// minutes (another guest on the sibling hyperthread, cache pressure), and
// every wall-clock timing of a run moves with it. Timed next to the
// operations, the block slows down with them. It lives in the benchmark,
// not in vaolib, so no change to the program moves it. Code of different
// shapes slows by different factors, so the block comes in the shape of
// the workload's hot loop:
// - kScan, the operators' greedy chooseIter scan: virtual calls on 1000
//   heap objects, a score per object, candidate vectors allocated per step
//   and one pick through a virtual strategy;
// - kSolve, the PDE kernel: Crank-Nicolson steps on a 1000-point grid, an
//   explicit half and a tridiagonal (Thomas) solve per step.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

enum class ReferenceShape { kScan, kSolve };

class ReferenceBlock {
 public:
  explicit ReferenceBlock(ReferenceShape shape);
  ~ReferenceBlock();

  /// Runs the block once and returns its wall time in nanoseconds. Every
  /// call does the same work.
  std::int64_t RunNs();

  /// The block's time on a nominal host: throughput is reported at the
  /// speed of a host that runs the block in this time.
  double nominal_ms() const;

  class Object;
  class Strategy;

 private:
  std::int64_t Scan();
  std::int64_t Solve();

  ReferenceShape shape_;
  std::vector<std::unique_ptr<Object>> objects_;
  std::vector<double> weights_;
  std::unique_ptr<Strategy> strategy_;
  std::vector<double> grid_, rhs_, scratch_;
  double checksum_ = 0.0;  // results folded in, so no work is optimised away
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
