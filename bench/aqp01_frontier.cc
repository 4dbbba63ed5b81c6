// aqp01: the approximate answer tier's accuracy-vs-work frontier.
//
// A 10^6-row relation (row i's value drawn uniform[50, 150] from a per-row
// seeded Rng, so both arms agree on the population without materializing
// it) is summed two ways at each relative-error target:
//
//   exact   -- every row's result object is created (8 work units, the
//              UDF's initial evaluation) and the deterministic SumAveVao
//              converges the weighted sum to width 2 * target * |T|.
//   sampled -- SampledSumTask draws rows on demand (same 8-unit creation
//              charge through the factory) and stops when the combined
//              CLT + bound-error interval is within the target at 95%
//              confidence. 20 sampling seeds per target.
//
// Gated (FAIL to stderr, exit 1):
//   work    -- at every target the sampled arm's mean work must be <= 10%
//              of the exact arm's work for the same target.
//   coverage-- across all sampled runs (SUM at every target + the AVE arm)
//              the 95% intervals must contain the true aggregate at a rate
//              >= 0.95 minus three binomial standard errors.
//   converged -- every sampled run must reach its target (the population
//              is benign; failing to converge means the trade loop broke).
//
// Output: the standard text table plus BENCH_aqp.json.
// Size knobs: VAOLIB_AQP_ROWS (default 1000000), VAOLIB_BENCH_SEED
// (default 2026).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table_writer.h"
#include "common/work_meter.h"
#include "engine/sampling/sampled_sum.h"
#include "operators/iteration_task.h"
#include "operators/sum_ave.h"
#include "vao/synthetic_result_object.h"

namespace {

using vaolib::NeumaierSum;
using vaolib::Rng;
using vaolib::TableWriter;
using vaolib::WorkKind;
using vaolib::WorkMeter;
using vaolib::engine::sampling::SampledAggregateOptions;
using vaolib::engine::sampling::SampledSumTask;
using vaolib::vao::SyntheticResultObject;

/// Work charged per row materialization: the UDF's initial evaluation is
/// several solver steps, not free. Both arms pay it through the same path.
constexpr std::uint64_t kCreationCost = 8;

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const unsigned long long parsed = std::strtoull(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Row i's synthetic config, identical in both arms. The per-row Rng keeps
/// the 10^6-row population fully determined by (base_seed, i) without ever
/// holding it in memory.
SyntheticResultObject::Config RowConfig(std::uint64_t base_seed,
                                        std::size_t row, WorkMeter* meter) {
  Rng rng(base_seed * 0x9E3779B97F4A7C15ULL + row + 1);
  SyntheticResultObject::Config config;
  config.true_value = rng.Uniform(50.0, 150.0);
  config.initial_half_width = rng.Uniform(1.0, 10.0);
  config.shrink = 0.5;
  config.min_width = 1e-6;
  config.cost_per_iteration = 1;
  config.meter = meter;
  return config;
}

vaolib::vao::ResultObjectPtr MakeRow(std::uint64_t base_seed, std::size_t row,
                                     WorkMeter* meter) {
  meter->Charge(WorkKind::kExec, kCreationCost);
  return std::make_unique<SyntheticResultObject>(
      RowConfig(base_seed, row, meter));
}

/// The population total under unit weights, without materializing objects.
double TrueSum(std::uint64_t base_seed, std::size_t rows) {
  NeumaierSum sum;
  for (std::size_t i = 0; i < rows; ++i) {
    sum.Add(RowConfig(base_seed, i, nullptr).true_value);
  }
  return sum.Sum();
}

/// Exact arm: materialize everything, converge deterministically to width
/// 2 * target * |truth|. Returns total work (creation + iteration).
std::uint64_t RunExact(std::uint64_t base_seed, std::size_t rows,
                       double target, double truth, bool* converged) {
  WorkMeter meter;
  std::vector<vaolib::vao::ResultObjectPtr> owned;
  owned.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    owned.push_back(MakeRow(base_seed, i, &meter));
  }
  std::vector<vaolib::vao::ResultObject*> objects;
  objects.reserve(rows);
  for (const auto& object : owned) objects.push_back(object.get());

  vaolib::operators::SumAveOptions options;
  options.epsilon = 2.0 * target * std::abs(truth);
  options.meter = &meter;
  // O(log N) iteration choice: the O(N)-scan default would make this arm
  // quadratic at 10^6 rows.
  options.use_heap_index = true;
  const vaolib::operators::SumAveVao vao(options);
  const auto outcome =
      vao.Evaluate(objects, std::vector<double>(rows, 1.0));
  if (!outcome.ok()) {
    std::fprintf(stderr, "FAIL: exact arm (target %.4f): %s\n", target,
                 outcome.status().ToString().c_str());
    *converged = false;
    return 0;
  }
  *converged = outcome->converged;
  return meter.Total();
}

struct SampledRun {
  std::uint64_t work = 0;
  std::size_t samples = 0;
  bool converged = false;
  bool covered = false;
};

/// Sampled arm: one seeded run to the same relative-error target. `ave`
/// switches to 1/N weights (and the mean as truth), exercising the AVE
/// convention on the identical machine.
SampledRun RunSampled(std::uint64_t base_seed, std::size_t rows,
                      double target, double truth, std::uint64_t sample_seed,
                      bool ave) {
  WorkMeter meter;
  SampledAggregateOptions options;
  options.spec.confidence = 0.95;
  options.spec.target_rel_error = target;
  options.spec.seed = sample_seed;
  options.spec.initial_samples = 128;
  options.epsilon = 1e-9;  // the relative target governs, not the floor
  const double weight =
      ave ? 1.0 / static_cast<double>(rows) : 1.0;
  auto task = SampledSumTask::Create(
      options, rows,
      [base_seed, &meter](std::size_t row) {
        return vaolib::Result<vaolib::vao::ResultObjectPtr>(
            MakeRow(base_seed, row, &meter));
      },
      [weight](std::size_t) { return weight; });
  SampledRun run;
  if (!task.ok()) {
    std::fprintf(stderr, "FAIL: sampled arm create: %s\n",
                 task.status().ToString().c_str());
    return run;
  }
  const vaolib::Status finished =
      vaolib::operators::DriveTask(task->get(), &meter);
  if (!finished.ok()) {
    std::fprintf(stderr, "FAIL: sampled arm drive: %s\n",
                 finished.ToString().c_str());
    return run;
  }
  const auto outcome = (*task)->Snapshot();
  run.work = meter.Total();
  run.samples = outcome.answer.sample_size;
  run.converged = outcome.converged;
  // `truth` is the population mean in the AVE arm, the total otherwise.
  run.covered = outcome.answer.lo <= truth && truth <= outcome.answer.hi;
  return run;
}

}  // namespace

int main() {
  const std::size_t rows = EnvSize("VAOLIB_AQP_ROWS", 1'000'000);
  const std::uint64_t seed = EnvSize("VAOLIB_BENCH_SEED", 2026);
  constexpr std::size_t kSeedsPerTarget = 20;
  const double targets[] = {0.05, 0.02, 0.01, 0.005};

  std::cout << "aqp01: approximate-answer frontier (rows=" << rows
            << " seed=" << seed << " runs/target=" << kSeedsPerTarget
            << ")\n\n";
  const double truth = TrueSum(seed, rows);

  TableWriter table("aqp01_frontier",
                    {"arm", "target", "exact_work", "mean_sampled_work",
                     "work_ratio", "mean_samples", "coverage", "gate"});
  bool ok = true;
  std::uint64_t covered = 0;
  std::uint64_t checks = 0;

  for (const double target : targets) {
    bool exact_converged = false;
    const std::uint64_t exact_work =
        RunExact(seed, rows, target, truth, &exact_converged);
    if (!exact_converged || exact_work == 0) {
      std::fprintf(stderr, "FAIL: exact arm did not converge at %.4f\n",
                   target);
      ok = false;
    }

    double work_sum = 0.0;
    double sample_sum = 0.0;
    std::uint64_t target_covered = 0;
    bool all_converged = true;
    for (std::uint64_t s = 0; s < kSeedsPerTarget; ++s) {
      const SampledRun run =
          RunSampled(seed, rows, target, truth, seed + 1000 + s, false);
      work_sum += static_cast<double>(run.work);
      sample_sum += static_cast<double>(run.samples);
      all_converged &= run.converged;
      ++checks;
      if (run.covered) {
        ++covered;
        ++target_covered;
      }
    }
    const double mean_work = work_sum / kSeedsPerTarget;
    const double ratio =
        exact_work > 0 ? mean_work / static_cast<double>(exact_work) : 1.0;
    const bool gate = exact_converged && all_converged && ratio <= 0.10;
    if (!gate) {
      std::fprintf(stderr,
                   "FAIL: target %.4f work ratio %.4f > 0.10 (exact %llu, "
                   "sampled mean %.0f, all converged %d)\n",
                   target, ratio,
                   static_cast<unsigned long long>(exact_work), mean_work,
                   all_converged);
      ok = false;
    }
    table.AddRow({"sum", TableWriter::Cell(target, 4),
                  TableWriter::Cell(exact_work),
                  TableWriter::Cell(mean_work, 0),
                  TableWriter::Cell(ratio, 4),
                  TableWriter::Cell(sample_sum / kSeedsPerTarget, 0),
                  TableWriter::Cell(static_cast<double>(target_covered) /
                                        kSeedsPerTarget,
                                    2),
                  gate ? "PASS<=0.10" : "FAIL"});
  }

  // AVE arm (informational work, gated coverage): the same machine under
  // 1/N weights must cover the population mean as well.
  {
    const double mean = truth / static_cast<double>(rows);
    double sample_sum = 0.0;
    std::uint64_t ave_covered = 0;
    for (std::uint64_t s = 0; s < kSeedsPerTarget; ++s) {
      const SampledRun run =
          RunSampled(seed, rows, 0.02, mean, seed + 5000 + s, true);
      sample_sum += static_cast<double>(run.samples);
      ++checks;
      if (run.covered) {
        ++covered;
        ++ave_covered;
      }
    }
    table.AddRow({"ave", TableWriter::Cell(0.02, 4), "-", "-", "-",
                  TableWriter::Cell(sample_sum / kSeedsPerTarget, 0),
                  TableWriter::Cell(
                      static_cast<double>(ave_covered) / kSeedsPerTarget, 2),
                  "info"});
  }

  // Coverage gate: binomial tolerance around the stated 95% confidence.
  const double rate =
      checks > 0 ? static_cast<double>(covered) / static_cast<double>(checks)
                 : 0.0;
  const double floor =
      0.95 - 3.0 * std::sqrt(0.95 * 0.05 / static_cast<double>(checks));
  if (rate < floor) {
    std::fprintf(stderr, "FAIL: coverage %.3f < %.3f (%llu/%llu)\n", rate,
                 floor, static_cast<unsigned long long>(covered),
                 static_cast<unsigned long long>(checks));
    ok = false;
  }
  table.AddRow({"coverage", "-", "-", "-", "-", "-",
                TableWriter::Cell(rate, 3),
                rate >= floor ? "PASS" : "FAIL"});

  table.RenderText(std::cout);
  std::ofstream json("BENCH_aqp.json");
  table.RenderJson(json);
  std::cout << "\nwrote BENCH_aqp.json\n";
  return ok ? 0 : 1;
}
