// srv01: standing-query server load bench -- N tenants x M queries x a tick
// storm over the in-process transport (StandingQueryServer directly; no
// sockets, so the numbers isolate dispatch + scheduling, not the kernel).
//
// Three phases over the shared bond workload (every query binds
// bond_model(rate, bond_index), so the whole mix lands in ONE executor
// group and genuinely contends for one scheduler budget):
//
//   probe  -- the reserved tenant alone, unlimited budget: measures W_vip,
//             the per-tick work its standing queries need to converge. All
//             later budgets and reserves scale from it, so the bench holds
//             its properties at any VAOLIB_BENCH_BONDS size.
//   storm  -- the reserved tenant plus 4 noisy tenants x 4 precision-hungry
//             queries each (an 8x query, >4x work noisy-neighbor storm) at
//             tick budget 3 x W_vip with the vip reserve at 2 x W_vip.
//             Records p50/p99 tick-to-answer latency. Shedding is off so the
//             overload is sustained for every measured tick. The runtime
//             health plane (src/obs/health.h) watches the storm through an
//             unconverged-rate SLO over a 2-epoch fast / 12-epoch slow
//             window: a healthy warmup fills the slow window first, so the
//             monitor must pass through degraded (fast window burning, slow
//             still diluted) on its way to critical -- and the transition
//             into critical must arm a flight-recorder dump.
//   shed   -- the same storm with shed_after_misses=2: best-effort queries
//             that stay unconverged get evicted with SHED frames; the
//             reserved tenant is exempt by policy.
//   cached -- the storm on the default configuration, which reuses PDE
//             profiles across ticks (DispatcherConfig::reuse_pde_profiles).
//             Reported for its p50/p99 and unconverged count; gated on the
//             reserve invariant only.
//
// probe, storm and shed turn profile reuse off. A fixed bond book cannot
// overload a server that reuses profiles: at the default 48 bonds and
// budget 3 x W_vip, a reusing storm left 28-44 of 480 best-effort results
// unconverged and its health never reached critical. Sizing the budget
// from the warm-cache demand instead broke the reserve invariant (36-84
// vip misses). The overload phases therefore measure the solver-bound
// server, as they always have.
//
// Hard gates (FAIL to stderr, exit 1):
//   * reserve invariant: the reserved tenant records ZERO deadline misses
//     and ZERO unconverged results across the storm,
//   * the storm actually storms: best-effort queries go unconverged,
//   * the health plane sees it: warmup ends healthy, the SLO monitor flips
//     healthy -> degraded -> critical in that order, and the critical
//     transition writes a flight-recorder dump,
//   * the shed phase evicts at least one best-effort query, sends SHED
//     frames for each, and never touches the reserved tenant,
//   * the cached phase keeps the reserve invariant too.
//
// Output: the standard text table plus BENCH_server.json (RenderJson).
// Size knobs: VAOLIB_BENCH_BONDS (default 48), VAOLIB_BENCH_SEED (1994),
// VAOLIB_SRV01_TICKS (default 30) -- CI smoke shrinks all three.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table_writer.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "server/frame.h"
#include "server/server.h"
#include "workload/portfolio_gen.h"

using namespace vaolib;

namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

constexpr double kBaseRate = 0.0575;  // the paper's opening-rate analogue
constexpr double kRateStep = 0.0001;  // deterministic tick ramp

// The reserved tenant's standing book: modest precision, must converge
// every tick no matter what the neighbors do.
const char* const kVipQueries[] = {
    "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
    "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
};

// One noisy tenant's book: every query at the tightest precision the bond
// model can deliver (its minWidth is 0.01), plus a mid-distribution
// threshold selection. Their collective refinement demand -- most objects
// driven to minWidth every tick -- dwarfs the leftover budget, so they
// cannot converge by piggybacking on the reserved tenant's shared-object
// refinements. The first query is a SUM, not a MIN: a scheduler that starts
// no step its budget cannot pay for lets a MIN at 0.01 converge cheaply, and
// with a MIN the storm left 44% of results unconverged at 12 bonds, short of
// the 50% the critical burn needs.
const char* const kNoisyQueries[] = {
    "SELECT SUM(bond_model(rate, bond_index)) FROM bd PRECISION 0.01",
    "SELECT TOP 3 bond_model(rate, bond_index) FROM bd PRECISION 0.01",
    "SELECT * FROM bd WHERE bond_model(rate, bond_index) > 100",
    "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.01",
};

constexpr std::size_t kNoisyTenants = 4;

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
  if (!workload->registry.Register(workload->function.get()).ok()) {
    std::fprintf(stderr, "FAIL: registry setup\n");
    return false;
  }
  return true;
}

// Minimal in-process client: one session, framed request in, decoded
// replies out.
class Client {
 public:
  Client(server::StandingQueryServer* server, const std::string& tenant)
      : server_(server), session_(server->OpenSession()) {
    Send("HELLO " + tenant);
  }

  std::vector<std::string> Send(const std::string& payload) {
    server_->HandleBytes(session_, server::EncodeFrame(payload));
    return Drain();
  }

  std::vector<std::string> Drain() {
    server::FrameDecoder decoder;
    if (!decoder.Feed(server_->DrainOutput(session_)).ok()) return {};
    std::vector<std::string> replies;
    while (const auto reply = decoder.Next()) replies.push_back(*reply);
    return replies;
  }

  std::uint64_t session() const { return session_; }

 private:
  server::StandingQueryServer* server_;
  std::uint64_t session_;
};

bool RegisterAll(Client* client, const std::string& prefix,
                 const char* const* queries, std::size_t count) {
  for (std::size_t q = 0; q < count; ++q) {
    const std::string id = prefix + std::to_string(q);
    const auto replies = client->Send("REGISTER " + id + " " + queries[q]);
    if (replies.size() != 1 || replies[0] != "OK REGISTER " + id) {
      std::fprintf(stderr, "FAIL: REGISTER %s -> %s\n", id.c_str(),
                   replies.empty() ? "(no reply)" : replies[0].c_str());
      return false;
    }
  }
  return true;
}

std::string TickPayload(std::size_t tick) {
  std::ostringstream os;
  os.precision(17);
  os << "TICK " << kBaseRate + kRateStep * static_cast<double>(tick);
  return os.str();
}

struct PhaseResult {
  std::size_t ticks = 0;
  std::uint64_t work_units = 0;
  std::uint64_t max_tick_work = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  std::size_t unconverged_results = 0;  // across all deliveries
  std::size_t shed_frames = 0;          // SHED frames delivered
  std::vector<int> health_states;       // dispatcher health after each tick
};

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t index = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[index];
}

// Drives `ticks` storm ticks from `driver`, draining every session each
// tick (tick-to-answer latency = TICK bytes in to all result frames out).
bool RunTicks(server::StandingQueryServer* server, Client* driver,
              std::vector<Client*> all_clients, std::size_t ticks,
              PhaseResult* result) {
  std::vector<double> latencies;
  latencies.reserve(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::uint64_t before = server->dispatcher().total_work_units();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> replies = driver->Send(TickPayload(t));
    for (Client* client : all_clients) {
      if (client == driver) continue;
      const auto fanned = client->Drain();
      replies.insert(replies.end(), fanned.begin(), fanned.end());
    }
    latencies.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    bool acked = false;
    for (const std::string& reply : replies) {
      if (reply.rfind("OK TICK ", 0) == 0) acked = true;
      if (reply.rfind("ERR ", 0) == 0) {
        std::fprintf(stderr, "FAIL: tick %zu -> %s\n", t, reply.c_str());
        return false;
      }
      if (reply.rfind("RESULT ", 0) == 0 &&
          reply.find(" converged=0 ") != std::string::npos) {
        ++result->unconverged_results;
      }
      if (reply.rfind("SHED ", 0) == 0) ++result->shed_frames;
    }
    if (!acked) {
      std::fprintf(stderr, "FAIL: tick %zu was not acknowledged\n", t);
      return false;
    }
    const std::uint64_t tick_work =
        server->dispatcher().total_work_units() - before;
    result->max_tick_work = std::max(result->max_tick_work, tick_work);
    result->health_states.push_back(
        static_cast<int>(server->dispatcher().health_state()));
  }
  result->ticks = ticks;
  result->work_units = server->dispatcher().total_work_units();
  result->p50_seconds = Percentile(latencies, 0.50);
  result->p99_seconds = Percentile(latencies, 0.99);
  return true;
}

void AddPhaseRow(TableWriter* table, const std::string& phase,
                 std::size_t queries, std::uint64_t tick_budget,
                 const PhaseResult& result, double shed_rate,
                 std::uint64_t vip_misses, std::uint64_t vip_unconverged) {
  table->AddRow({phase, TableWriter::Cell(queries),
                 TableWriter::Cell(result.ticks),
                 TableWriter::Cell(tick_budget),
                 TableWriter::Cell(result.work_units),
                 TableWriter::Cell(result.p50_seconds * 1e3, 3),
                 TableWriter::Cell(result.p99_seconds * 1e3, 3),
                 TableWriter::Cell(result.unconverged_results),
                 TableWriter::Cell(shed_rate, 3),
                 TableWriter::Cell(vip_misses),
                 TableWriter::Cell(vip_unconverged)});
}

}  // namespace

int main() {
  const std::size_t bond_count = EnvSize("VAOLIB_BENCH_BONDS", 48);
  const std::uint64_t seed = EnvSize("VAOLIB_BENCH_SEED", 1994);
  const std::size_t ticks = EnvSize("VAOLIB_SRV01_TICKS", 30);
  constexpr std::size_t kVipCount =
      sizeof(kVipQueries) / sizeof(kVipQueries[0]);
  constexpr std::size_t kNoisyCount =
      sizeof(kNoisyQueries) / sizeof(kNoisyQueries[0]);

  Workload workload;
  if (!BuildWorkload(bond_count, seed, &workload)) return 1;
  std::cout << "srv01: standing-query server load (bonds=" << bond_count
            << " seed=" << seed << " ticks=" << ticks << ")\n"
            << "tenants: vip (reserved, " << kVipCount << " queries) + "
            << kNoisyTenants << " noisy x " << kNoisyCount
            << " precision-hungry queries\n\n";

  TableWriter table(
      "srv01_load",
      {"phase", "queries", "ticks", "tick_budget", "work_units", "p50_ms",
       "p99_ms", "unconverged", "shed_rate", "vip_misses",
       "vip_unconverged"});
  bool ok = true;

  // ---- Probe: the reserved tenant alone, unlimited budget. ---------------
  std::uint64_t vip_tick_work = 0;
  {
    server::ServerConfig config;  // tick_budget 0 = run to convergence
    config.dispatcher.reuse_pde_profiles = false;  // see the header
    server::StandingQueryServer probe(workload.relation.get(),
                                      workload.stream_schema,
                                      &workload.registry, config);
    Client vip(&probe, "vip");
    if (!RegisterAll(&vip, "vip-q", kVipQueries, kVipCount)) return 1;
    PhaseResult result;
    if (!RunTicks(&probe, &vip, {&vip}, std::min<std::size_t>(ticks, 5),
                  &result)) {
      return 1;
    }
    vip_tick_work = result.max_tick_work;
    if (result.unconverged_results != 0 || vip_tick_work == 0) {
      std::fprintf(stderr, "FAIL: probe phase did not converge cleanly\n");
      return 1;
    }
    AddPhaseRow(&table, "probe", kVipCount, 0, result, 0.0, 0, 0);
  }

  // Budgets scale from the measured per-tick demand, so the contention
  // ratio is size-independent: the storm offers ~8x the queries and >4x
  // the work of what fits, while the vip reserve covers its whole book.
  const std::uint64_t tick_budget = 3 * vip_tick_work;
  const std::uint64_t vip_reserve = 2 * vip_tick_work;
  const std::size_t storm_queries =
      kVipCount + kNoisyTenants * kNoisyCount;

  const auto configure = [&](int shed_after) {
    server::ServerConfig config;
    config.dispatcher.tick_budget = tick_budget;
    config.dispatcher.shed_after_misses = shed_after;
    config.dispatcher.reuse_pde_profiles = false;  // see the header
    return config;
  };
  const auto make_reserved = [&](server::StandingQueryServer* server) {
    server::TenantQuota quota =
        server->dispatcher().admission().QuotaFor("vip");
    quota.reserve_units = vip_reserve;
    server->dispatcher().admission().SetQuota("vip", quota);
  };

  // ---- Storm: sustained 4x noisy-neighbor overload, shedding off. --------
  {
    server::ServerConfig storm_config = configure(/*shed_after=*/0);
    // Health plane, one epoch per tick. The single SLO is the unconverged
    // rate with a critical burn high enough that ONE storm epoch diluted
    // across the 12-epoch slow window reads degraded, not critical -- so
    // the multi-window monitor demonstrably passes through degraded before
    // the slow window saturates.
    storm_config.dispatcher.health.enabled = true;
    storm_config.dispatcher.health.ticks_per_epoch = 1;
    obs::SloSpec unconverged_slo;
    unconverged_slo.name = "unconverged";
    unconverged_slo.bad_metric = "vaolib_server_unconverged_total";
    unconverged_slo.total_metric = "vaolib_server_results_total";
    unconverged_slo.budget = 0.05;
    unconverged_slo.fast_epochs = 2;
    unconverged_slo.slow_epochs = 12;
    unconverged_slo.degraded_burn = 1.0;
    unconverged_slo.critical_burn = 10.0;
    storm_config.dispatcher.health.slos = {unconverged_slo};
    server::StandingQueryServer storm(workload.relation.get(),
                                      workload.stream_schema,
                                      &workload.registry, storm_config);
    make_reserved(&storm);

    // Arm the flight recorder: the SLO monitor's transition into critical
    // must leave a post-mortem artifact behind.
    const std::string dump_dir = "srv01_flight_dumps";
    std::error_code dir_error;
    std::filesystem::create_directories(dump_dir, dir_error);
    obs::FlightRecorder::Global().SetDumpDir(dump_dir);
    obs::SetTraceMode(obs::TraceMode::kFlight);
    const std::uint64_t dumps_before =
        obs::FlightRecorder::Global().dump_count();

    Client vip(&storm, "vip");
    std::vector<std::unique_ptr<Client>> noisy;
    std::vector<Client*> all{&vip};
    if (!RegisterAll(&vip, "vip-q", kVipQueries, kVipCount)) return 1;

    // Healthy warmup: the reserved tenant alone fills the slow window so
    // the storm's first epochs hit a monitor with benign history.
    PhaseResult warmup;
    if (!RunTicks(&storm, &vip, {&vip}, 12, &warmup)) return 1;

    for (std::size_t n = 0; n < kNoisyTenants; ++n) {
      noisy.push_back(std::make_unique<Client>(
          &storm, "noisy" + std::to_string(n)));
      all.push_back(noisy.back().get());
      if (!RegisterAll(noisy.back().get(), "n" + std::to_string(n) + "-q",
                       kNoisyQueries, kNoisyCount)) {
        return 1;
      }
    }
    PhaseResult result;
    const bool storm_ok = RunTicks(&storm, &vip, all, ticks, &result);
    obs::SetTraceMode(obs::TraceMode::kOff);
    obs::FlightRecorder::Global().SetDumpDir("");
    if (!storm_ok) return 1;

    // The health plane's account of the storm.
    if (warmup.health_states.empty() || warmup.health_states.back() != 0) {
      std::fprintf(stderr,
                   "FAIL: warmup should end healthy, health=%d\n",
                   warmup.health_states.empty()
                       ? -1
                       : warmup.health_states.back());
      ok = false;
    }
    std::size_t first_degraded = result.health_states.size();
    std::size_t first_critical = result.health_states.size();
    for (std::size_t t = 0; t < result.health_states.size(); ++t) {
      if (result.health_states[t] == 1 && first_degraded > t) {
        first_degraded = t;
      }
      if (result.health_states[t] == 2 && first_critical > t) {
        first_critical = t;
      }
    }
    if (first_degraded >= first_critical ||
        first_critical >= result.health_states.size() ||
        result.health_states.back() != 2) {
      std::fprintf(stderr,
                   "FAIL: health must flip degraded -> critical under the "
                   "storm (first_degraded=%zu first_critical=%zu last=%d)\n",
                   first_degraded, first_critical,
                   result.health_states.empty()
                       ? -1
                       : result.health_states.back());
      ok = false;
    }
    if (storm.dispatcher().health_monitor() == nullptr ||
        storm.dispatcher().health_monitor()->critical_transitions() == 0) {
      std::fprintf(stderr,
                   "FAIL: no SLO transition into critical was recorded\n");
      ok = false;
    }
    if (obs::FlightRecorder::Global().dump_count() <= dumps_before) {
      std::fprintf(stderr,
                   "FAIL: the critical transition did not write a "
                   "flight-recorder dump\n");
      ok = false;
    }

    const server::TenantUsage vip_usage =
        storm.dispatcher().admission().UsageFor("vip");
    AddPhaseRow(&table, "storm", storm_queries, tick_budget, result, 0.0,
                vip_usage.deadline_misses, vip_usage.unconverged_results);

    // The reserve invariant -- the whole point of admission-to-scheduler
    // quota mapping: a 4x noisy-neighbor storm cannot make the reserved
    // tenant miss.
    if (vip_usage.deadline_misses != 0) {
      std::fprintf(stderr,
                   "FAIL: reserved tenant missed %llu deadlines under the "
                   "storm (reserve invariant)\n",
                   static_cast<unsigned long long>(
                       vip_usage.deadline_misses));
      ok = false;
    }
    if (vip_usage.unconverged_results != 0) {
      std::fprintf(stderr,
                   "FAIL: reserved tenant went unconverged %llu times under "
                   "the storm\n",
                   static_cast<unsigned long long>(
                       vip_usage.unconverged_results));
      ok = false;
    }
    if (result.unconverged_results == 0) {
      std::fprintf(stderr,
                   "FAIL: the storm never overloaded anyone; the scenario "
                   "does not separate reserved from best-effort\n");
      ok = false;
    }
  }

  // ---- Shed: the same storm with overload eviction on. -------------------
  {
    server::StandingQueryServer shedding(workload.relation.get(),
                                         workload.stream_schema,
                                         &workload.registry,
                                         configure(/*shed_after=*/2));
    make_reserved(&shedding);
    Client vip(&shedding, "vip");
    std::vector<std::unique_ptr<Client>> noisy;
    std::vector<Client*> all{&vip};
    if (!RegisterAll(&vip, "vip-q", kVipQueries, kVipCount)) return 1;
    for (std::size_t n = 0; n < kNoisyTenants; ++n) {
      noisy.push_back(std::make_unique<Client>(
          &shedding, "noisy" + std::to_string(n)));
      all.push_back(noisy.back().get());
      if (!RegisterAll(noisy.back().get(), "n" + std::to_string(n) + "-q",
                       kNoisyQueries, kNoisyCount)) {
        return 1;
      }
    }
    PhaseResult result;
    if (!RunTicks(&shedding, &vip, all, std::min<std::size_t>(ticks, 8),
                  &result)) {
      return 1;
    }

    std::uint64_t shed_total = 0;
    for (std::size_t n = 0; n < kNoisyTenants; ++n) {
      shed_total += shedding.dispatcher()
                        .admission()
                        .UsageFor("noisy" + std::to_string(n))
                        .shed_queries;
    }
    const double shed_rate =
        static_cast<double>(shed_total) /
        static_cast<double>(kNoisyTenants * kNoisyCount);
    const server::TenantUsage vip_usage =
        shedding.dispatcher().admission().UsageFor("vip");
    AddPhaseRow(&table, "shed", storm_queries, tick_budget, result,
                shed_rate, vip_usage.deadline_misses,
                vip_usage.unconverged_results);

    if (shed_total == 0 || result.shed_frames != shed_total) {
      std::fprintf(stderr,
                   "FAIL: shed phase evicted %llu queries but delivered "
                   "%zu SHED frames (want >0 and equal)\n",
                   static_cast<unsigned long long>(shed_total),
                   result.shed_frames);
      ok = false;
    }
    if (vip_usage.shed_queries != 0 || vip_usage.deadline_misses != 0) {
      std::fprintf(stderr,
                   "FAIL: shedding touched the reserved tenant (shed=%llu "
                   "misses=%llu)\n",
                   static_cast<unsigned long long>(vip_usage.shed_queries),
                   static_cast<unsigned long long>(
                       vip_usage.deadline_misses));
      ok = false;
    }
  }

  // ---- Cached: the storm on the default, profile-reusing server. --------
  {
    server::ServerConfig cached_config;
    cached_config.dispatcher.tick_budget = tick_budget;
    cached_config.dispatcher.shed_after_misses = 0;
    server::StandingQueryServer cached(workload.relation.get(),
                                       workload.stream_schema,
                                       &workload.registry, cached_config);
    make_reserved(&cached);
    Client vip(&cached, "vip");
    std::vector<std::unique_ptr<Client>> noisy;
    std::vector<Client*> all{&vip};
    if (!RegisterAll(&vip, "vip-q", kVipQueries, kVipCount)) return 1;
    for (std::size_t n = 0; n < kNoisyTenants; ++n) {
      noisy.push_back(std::make_unique<Client>(
          &cached, "noisy" + std::to_string(n)));
      all.push_back(noisy.back().get());
      if (!RegisterAll(noisy.back().get(), "n" + std::to_string(n) + "-q",
                       kNoisyQueries, kNoisyCount)) {
        return 1;
      }
    }
    PhaseResult result;
    if (!RunTicks(&cached, &vip, all, ticks, &result)) return 1;
    const server::TenantUsage vip_usage =
        cached.dispatcher().admission().UsageFor("vip");
    AddPhaseRow(&table, "cached", storm_queries, tick_budget, result, 0.0,
                vip_usage.deadline_misses, vip_usage.unconverged_results);
    if (vip_usage.deadline_misses != 0 || vip_usage.unconverged_results != 0) {
      std::fprintf(stderr,
                   "FAIL: reserved tenant missed %llu deadlines and went "
                   "unconverged %llu times on the profile-reusing server\n",
                   static_cast<unsigned long long>(vip_usage.deadline_misses),
                   static_cast<unsigned long long>(
                       vip_usage.unconverged_results));
      ok = false;
    }
  }

  table.RenderText(std::cout);
  std::ofstream json("BENCH_server.json");
  table.RenderJson(json);
  std::cout << "\nwrote BENCH_server.json\n";
  return ok ? 0 : 1;
}
