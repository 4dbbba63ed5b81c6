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
//
// A second section runs TOP 5 over N = 1k, 8k and 64k synthetic objects with
// distinct true values. TOP-K ranks its objects in an ordered index, so a
// boundary step costs O(k + conflicted objects), not a sort of all N; the
// section prints the wall time per boundary step beside the chooseIter
// units, and exits non-zero when an answer misses the true top 5. The task
// builds its index at its first boundary step, so setup times creation and
// the first two steps (the coarse step and that one); the per-step time is
// every later step's wall time over the later boundary steps.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "common/work_meter.h"
#include "operators/iteration_task.h"
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

struct TopKResult {
  std::uint64_t choose_units;
  std::uint64_t boundary_steps;
  std::uint64_t iterations;
  double setup_seconds;  ///< creation, the coarse and first boundary step
  double drive_seconds;  ///< every later step, to the answer
  bool correct;
};

TopKResult RunTopK(std::size_t n, std::size_t k) {
  // Distinct true values (7919 is prime, so i -> 7919 i mod n permutes the
  // objects) a gap of 10000 / n apart, in intervals 20 to 120 gaps wide: the
  // boundary conflicts with about as many objects at every N.
  std::vector<std::unique_ptr<vao::SyntheticResultObject>> objects;
  std::vector<vao::ResultObject*> ptrs;
  const double gap = 10000.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    vao::SyntheticResultObject::Config config;
    config.true_value = gap * static_cast<double>(i * 7919 % n);
    config.initial_half_width =
        gap * (10.0 + 5.0 * static_cast<double>(i % 11));
    config.skew = 0.1 + 0.2 * static_cast<double>(i % 5);
    config.cost_per_iteration = 1 + i % 3;
    objects.push_back(std::make_unique<vao::SyntheticResultObject>(config));
    ptrs.push_back(objects.back().get());
  }

  WorkMeter meter;
  operators::TopKOptions options;
  options.k = k;
  options.epsilon = 0.05;
  options.meter = &meter;
  Stopwatch setup;
  auto task = operators::TopKIterationTask::Create(options, ptrs);
  Status status = task.status();
  for (int step = 0; step < 2 && status.ok() && !(*task)->Done(); ++step) {
    status = (*task)->Step(&meter);
  }
  const double setup_seconds = setup.ElapsedSeconds();
  Stopwatch drive;
  if (status.ok()) status = operators::DriveTask(task->get(), &meter);
  const double drive_seconds = drive.ElapsedSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  const operators::TopKOutcome outcome = (*task)->Snapshot();

  // The true top k: the objects whose permuted rank is among the k highest.
  std::vector<std::size_t> truth;
  for (std::size_t i = 0; i < n; ++i) {
    if (i * 7919 % n >= n - k) truth.push_back(i);
  }
  std::vector<std::size_t> winners = outcome.winners;
  std::sort(winners.begin(), winners.end());
  return TopKResult{meter.Count(WorkKind::kChooseIter),
                    outcome.stats.choose_steps,
                    outcome.stats.iterations,
                    setup_seconds,
                    drive_seconds,
                    winners == truth};
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

  constexpr std::size_t kTopK = 5;
  TableWriter topk_table("TOP-K boundary index",
                         {"N", "k", "boundary_steps", "choose_units",
                          "iterations", "setup_ms", "drive_ms",
                          "us_per_step", "answer_ok"});
  bool all_correct = true;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{8000},
                              std::size_t{64000}}) {
    const TopKResult result = RunTopK(n, kTopK);
    if (!result.correct) {
      std::fprintf(stderr,
                   "abl04: TOP %zu over N=%zu missed the true top %zu\n",
                   kTopK, n, kTopK);
      all_correct = false;
    }
    topk_table.AddRow(
        {TableWriter::Cell(static_cast<std::uint64_t>(n)),
         TableWriter::Cell(static_cast<std::uint64_t>(kTopK)),
         TableWriter::Cell(result.boundary_steps),
         TableWriter::Cell(result.choose_units),
         TableWriter::Cell(result.iterations),
         TableWriter::Cell(1e3 * result.setup_seconds, 3),
         TableWriter::Cell(1e3 * result.drive_seconds, 3),
         TableWriter::Cell(1e6 * result.drive_seconds /
                               static_cast<double>(
                                   std::max<std::uint64_t>(
                                       result.boundary_steps, 2) -
                                   1),
                           2),
         result.correct ? "yes" : "NO"});
  }
  std::printf("\n");
  topk_table.RenderText(std::cout);
  std::printf("\ncsv:\n");
  topk_table.RenderCsv(std::cout);
  return all_same && all_correct ? 0 : 1;
}
