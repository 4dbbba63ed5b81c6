// obs02: runtime health-plane overhead on the standing-query tick path.
// Two arms run the identical workload (one server, two tenants, four
// standing bond queries, a deterministic tick ramp over the in-process
// transport):
//   disabled  DispatcherConfig::health off -- the library default and the
//             floor; the plane must be pay-for-what-you-use, so this arm
//             contains zero health-plane work,
//   enabled   windowed view + default SLO monitors + per-query progress
//             rings, one epoch per tick (the most aggressive setting the
//             serving binary ships).
// The enabled arm must stay within 2% of the floor: the plane's hot-path
// cost is one snapshot of the series the SLOs read per epoch plus one ring
// store per query-tick, everything else (burn rates, quantiles, INSPECT
// rendering) runs on the introspection path. The arms run as interleaved
// A/B pairs (the order alternates pair to pair, so drift on a shared host
// lands on both arms), and the gate reads the median of the paired
// differences against 2% of the median floor. A small absolute slack keeps
// 1-core CI runners from flaking the gate; the tick count is autoscaled so
// the floor pass runs >= kFloorSeconds, which keeps that slack a small share
// of the limit (10 ms of an 0.8 s floor adds 1.25 points to the 2%). Each
// pass warms its server up before the timed ramp (see TimedRun).
// Writes BENCH_health.json and exits non-zero when the gate fails.
// Size knobs: VAOLIB_BENCH_BONDS (default 32), VAOLIB_BENCH_SEED (1994),
// VAOLIB_OBS02_TICKS (default 40).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table_writer.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "server/frame.h"
#include "server/server.h"
#include "workload/portfolio_gen.h"

using namespace vaolib;

namespace {

constexpr int kPairs = 9;
constexpr double kOverheadLimit = 0.02;  // enabled arm: < 2% over the floor
constexpr double kAbsSlackSeconds = 0.010;
constexpr double kFloorSeconds = 0.8;  // autoscale target of a floor pass
constexpr double kBaseRate = 0.0575;
constexpr double kRateStep = 0.0001;
constexpr std::size_t kRampSteps = 400;  // the ramp turns at 0.0975

const char* const kQueries[] = {
    "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
    "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
    "SELECT MIN(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
    "SELECT * FROM bd WHERE bond_model(rate, bond_index) > 100",
};
constexpr std::size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

struct Workload {
  std::vector<finance::Bond> bonds;
  std::unique_ptr<finance::BondPricingFunction> function;
  std::unique_ptr<engine::Relation> relation;
  engine::FunctionRegistry registry;
  engine::Schema stream_schema{{{"rate", engine::ColumnType::kDouble}}};
};

bool BuildWorkload(std::size_t bond_count, std::uint64_t seed,
                   Workload* workload) {
  workload::PortfolioSpec spec;
  spec.count = bond_count;
  workload->bonds = workload::GeneratePortfolio(seed, spec);
  workload->function = std::make_unique<finance::BondPricingFunction>(
      workload->bonds, finance::BondModelConfig{});
  workload->relation = std::make_unique<engine::Relation>(engine::Schema(
      {{"bond_index", engine::ColumnType::kDouble},
       {"position", engine::ColumnType::kDouble}}));
  for (std::size_t i = 0; i < workload->bonds.size(); ++i) {
    if (!workload->relation->Append({static_cast<double>(i), 1.0}).ok()) {
      std::fprintf(stderr, "FAIL: relation setup\n");
      return false;
    }
  }
  return workload->registry.Register(workload->function.get()).ok();
}

// The rate walks up the band and back down, so any tick count stays inside
// the bond model's rate domain.
std::string TickPayload(std::size_t tick) {
  const std::size_t phase = tick % (2 * kRampSteps);
  const std::size_t step = phase < kRampSteps ? phase : 2 * kRampSteps - phase;
  std::ostringstream os;
  os.precision(17);
  os << "TICK " << kBaseRate + kRateStep * static_cast<double>(step);
  return os.str();
}

/// One measured pass: fresh server, register the book, run the ramp once
/// to warm the server up, then time a second run of it. Registration, the
/// warm-up and teardown stay outside the timed region; only the steady
/// tick loop (where the health plane spends) is on the clock.
bool TimedRun(const Workload& workload, bool health_enabled,
              std::size_t ticks, double* seconds) {
  server::ServerConfig config;
  config.dispatcher.health.enabled = health_enabled;
  config.dispatcher.health.ticks_per_epoch = 1;
  server::StandingQueryServer server(workload.relation.get(),
                                     workload.stream_schema,
                                     &workload.registry, config);
  const std::uint64_t a = server.OpenSession();
  const std::uint64_t b = server.OpenSession();
  server.HandleBytes(a, server::EncodeFrame("HELLO desk-a"));
  server.HandleBytes(b, server::EncodeFrame("HELLO desk-b"));
  for (std::size_t q = 0; q < kQueryCount; ++q) {
    const std::uint64_t session = q % 2 == 0 ? a : b;
    const std::string id = "q" + std::to_string(q);
    server.HandleBytes(session, server::EncodeFrame(
                                    "REGISTER " + id + " " + kQueries[q]));
    const std::string reply = server.DrainOutput(session);
    if (reply.find("OK REGISTER " + id) == std::string::npos) {
      std::fprintf(stderr, "FAIL: REGISTER %s -> %s\n", id.c_str(),
                   reply.c_str());
      return false;
    }
  }
  server.DrainOutput(a);
  server.DrainOutput(b);

  const auto run_ramp = [&]() {
    for (std::size_t t = 0; t < ticks; ++t) {
      server.HandleBytes(a, server::EncodeFrame(TickPayload(t)));
      const std::string replies_a = server.DrainOutput(a);
      server.DrainOutput(b);
      if (replies_a.find("ERR ") != std::string::npos) {
        std::fprintf(stderr, "FAIL: tick %zu errored\n", t);
        return false;
      }
    }
    return true;
  };
  // Warm-up: the server solves each (bond, grid) profile once and reuses it
  // on every later tick (DispatcherConfig::reuse_pde_profiles), so the
  // first pass over the ramp pays the fills. Only the steady state that
  // follows is timed; otherwise the fills, not the plane, set the time.
  if (!run_ramp()) return false;
  const auto start = std::chrono::steady_clock::now();
  if (!run_ramp()) return false;
  *seconds = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Interleaved A/B pairs: the disabled and the enabled arm run back to
/// back kPairs times, the first arm alternating pair to pair.
bool PairedWallSeconds(const Workload& workload, std::size_t ticks,
                       std::vector<double>* floor_seconds,
                       std::vector<double>* enabled_seconds) {
  for (int pair = 0; pair < kPairs; ++pair) {
    double floor = 0.0;
    double enabled = 0.0;
    const bool enabled_first = pair % 2 == 1;
    if (enabled_first && !TimedRun(workload, true, ticks, &enabled)) {
      return false;
    }
    if (!TimedRun(workload, false, ticks, &floor)) return false;
    if (!enabled_first && !TimedRun(workload, true, ticks, &enabled)) {
      return false;
    }
    floor_seconds->push_back(floor);
    enabled_seconds->push_back(enabled);
  }
  return true;
}

}  // namespace

int main() {
  const std::size_t bond_count = EnvSize("VAOLIB_BENCH_BONDS", 32);
  const std::uint64_t seed = EnvSize("VAOLIB_BENCH_SEED", 1994);
  std::size_t ticks = EnvSize("VAOLIB_OBS02_TICKS", 40);

  Workload workload;
  if (!BuildWorkload(bond_count, seed, &workload)) return 1;
  std::printf("obs02: health-plane tick overhead (bonds=%zu seed=%llu "
              "ticks=%zu, %zu standing queries)\n",
              bond_count, static_cast<unsigned long long>(seed), ticks,
              kQueryCount);

  // Autoscale: a short floor pass would let timer noise and the absolute
  // slack, not the 2% limit, decide the gate.
  double once = 0.0;
  if (!TimedRun(workload, /*health_enabled=*/false, ticks, &once)) return 1;
  once = std::max(once, 1e-6);
  while (once < kFloorSeconds && ticks < 100000) {
    const double scale = std::clamp(1.1 * kFloorSeconds / once, 1.1, 16.0);
    ticks = static_cast<std::size_t>(
        std::ceil(static_cast<double>(ticks) * scale));
    if (!TimedRun(workload, /*health_enabled=*/false, ticks, &once)) {
      return 1;
    }
  }
  std::printf("measured ticks per pass: %zu (floor pass %.4fs; 2%% + %.0f ms "
              "slack = %.2f%% of it)\n\n",
              ticks, once, kAbsSlackSeconds * 1e3,
              (kOverheadLimit + kAbsSlackSeconds / once) * 100.0);

  std::vector<double> floor_runs;
  std::vector<double> enabled_runs;
  if (!PairedWallSeconds(workload, ticks, &floor_runs, &enabled_runs)) {
    return 1;
  }
  std::vector<double> differences;
  for (int pair = 0; pair < kPairs; ++pair) {
    differences.push_back(enabled_runs[pair] - floor_runs[pair]);
  }
  const double floor_median = Median(floor_runs);
  const double difference = Median(differences);
  const double overhead = difference / floor_median;
  const bool pass =
      difference <= floor_median * kOverheadLimit + kAbsSlackSeconds;
  // Min of runs per arm, for comparison with earlier min-of-reps figures.
  const double floor_min =
      *std::min_element(floor_runs.begin(), floor_runs.end());
  const double enabled_min =
      *std::min_element(enabled_runs.begin(), enabled_runs.end());

  TableWriter table(
      "obs02: health-plane overhead (median of interleaved pairs)",
      {"arm", "median_wall_s", "min_wall_s", "overhead_pct", "min_overhead_pct",
       "limit_pct", "pass"});
  table.AddRow({"disabled", TableWriter::Cell(floor_median, 4),
                TableWriter::Cell(floor_min, 4), TableWriter::Cell(0.0, 2),
                TableWriter::Cell(0.0, 2), TableWriter::Cell(-1.0, 2),
                TableWriter::Cell(1)});
  table.AddRow({"enabled", TableWriter::Cell(Median(enabled_runs), 4),
                TableWriter::Cell(enabled_min, 4),
                TableWriter::Cell(overhead * 100.0, 2),
                TableWriter::Cell((enabled_min / floor_min - 1.0) * 100.0, 2),
                TableWriter::Cell(kOverheadLimit * 100.0, 2),
                TableWriter::Cell(pass ? 1 : 0)});
  table.RenderText(std::cout);

  std::ofstream json("BENCH_health.json");
  if (!json) {
    std::fprintf(stderr, "cannot open BENCH_health.json\n");
    return 1;
  }
  table.RenderJson(json);
  std::printf("\nwrote BENCH_health.json\n");
  if (!pass) {
    std::fprintf(stderr, "health-plane overhead gate FAILED (%.2f%%)\n",
                 overhead * 100.0);
    return 1;
  }
  std::printf("health-plane overhead gate passed (%.2f%%)\n",
              overhead * 100.0);
  return 0;
}
