// Ablation A4: chooseIter indexing for the SUM VAO. Section 5.2 observes
// that iteration choice is O(N) per step without indexing and that heap
// queues could make it sublinear, unnecessary at 500 bonds. This ablation
// scales N with cheap synthetic result objects until the scan cost matters,
// comparing the O(N) scan against the lazy-heap index on chooseIter units
// and wall time. The heap must pick what the scan picks, so the bench is
// also a gate: it exits non-zero when the two arms differ in any object's
// iteration count or in the bits of the final sum. The "ties" workload adds
// the cases where a heap can drift from the scan: tied scores, zero
// weights, objects that predict no progress, and a stalled object.

#include <bit>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "common/work_meter.h"
#include "operators/sum_ave.h"
#include "vao/synthetic_result_object.h"

using namespace vaolib;

namespace {

struct ArmResult {
  std::uint64_t choose_units;
  std::uint64_t iterations;
  std::uint64_t stalled;
  double wall_seconds;
  std::vector<int> object_iterations;
  std::uint64_t sum_lo_bits;
  std::uint64_t sum_hi_bits;
};

ArmResult RunArm(std::size_t n, bool ties, bool use_heap) {
  // Heterogeneous synthetic objects so the greedy choice is non-trivial.
  // With \p ties, blocks of four identical objects tie on every score,
  // every 7th object has weight 0, every 5th predicts no progress (its
  // score is 0, so only the widest-width fallback picks it) and object 1
  // never shrinks until the stall guard quarantines it.
  std::vector<std::unique_ptr<vao::SyntheticResultObject>> objects;
  std::vector<vao::ResultObject*> ptrs;
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t key = ties ? i / 4 : i;
    vao::SyntheticResultObject::Config config;
    config.true_value = 100.0 + static_cast<double>(key % 37);
    config.initial_half_width = 2.0 + static_cast<double>(key % 11);
    config.shrink = 0.5;
    double weight = 1.0 + static_cast<double>(key % 5);
    if (ties) {
      config.honest_estimates = i % 5 != 0;
      if (i % 7 == 0) weight = 0.0;
      if (i == 1) config.shrink = 1.0;
    }
    objects.push_back(std::make_unique<vao::SyntheticResultObject>(config));
    ptrs.push_back(objects.back().get());
    weights.push_back(weight);
  }

  WorkMeter meter;
  operators::SumAveOptions options;
  options.epsilon = 0.05 * static_cast<double>(n);
  options.use_heap_index = use_heap;
  options.meter = &meter;
  const operators::SumAveVao vao(options);

  Stopwatch wall;
  const auto outcome = vao.Evaluate(ptrs, weights);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    std::exit(1);
  }
  ArmResult result{meter.Count(WorkKind::kChooseIter),
                   outcome->stats.iterations,
                   outcome->stats.stalled_objects,
                   wall.ElapsedSeconds(),
                   {},
                   std::bit_cast<std::uint64_t>(outcome->sum_bounds.lo),
                   std::bit_cast<std::uint64_t>(outcome->sum_bounds.hi)};
  for (const auto& object : objects) {
    result.object_iterations.push_back(object->iterations());
  }
  return result;
}

}  // namespace

int main() {
  std::printf(
      "Ablation A4: O(N)-scan vs lazy-heap chooseIter for the SUM VAO\n"
      "(synthetic result objects; per-object iteration counts and sum bits "
      "must match, choice overhead should not)\n\n");

  TableWriter table("chooseIter indexing ablation",
                    {"workload", "N", "scan_choose_units", "heap_choose_units",
                     "choose_ratio", "scan_wall_s", "heap_wall_s",
                     "scan_iters", "heap_iters", "stalled", "same_picks"});

  struct Workload {
    const char* name;
    std::size_t n;
    bool ties;
  };
  bool all_same = true;
  for (const Workload workload :
       {Workload{"mixed", 500, false}, Workload{"mixed", 2000, false},
        Workload{"mixed", 8000, false}, Workload{"ties", 2000, true}}) {
    const ArmResult scan = RunArm(workload.n, workload.ties, /*use_heap=*/false);
    const ArmResult heap = RunArm(workload.n, workload.ties, /*use_heap=*/true);
    const bool same = scan.object_iterations == heap.object_iterations &&
                      scan.stalled == heap.stalled &&
                      scan.sum_lo_bits == heap.sum_lo_bits &&
                      scan.sum_hi_bits == heap.sum_hi_bits;
    if (!same) {
      std::fprintf(stderr,
                   "abl04: %s N=%zu: the heap arm's per-object iterations or "
                   "sum bits differ from the scan's\n",
                   workload.name, workload.n);
      all_same = false;
    }
    table.AddRow({workload.name,
                  TableWriter::Cell(static_cast<std::uint64_t>(workload.n)),
                  TableWriter::Cell(scan.choose_units),
                  TableWriter::Cell(heap.choose_units),
                  TableWriter::Cell(static_cast<double>(scan.choose_units) /
                                        static_cast<double>(
                                            heap.choose_units),
                                    1),
                  TableWriter::Cell(scan.wall_seconds, 4),
                  TableWriter::Cell(heap.wall_seconds, 4),
                  TableWriter::Cell(scan.iterations),
                  TableWriter::Cell(heap.iterations),
                  TableWriter::Cell(heap.stalled),
                  same ? "yes" : "NO"});
  }

  table.RenderText(std::cout);
  std::printf("\ncsv:\n");
  table.RenderCsv(std::cout);
  return all_same ? 0 : 1;
}
