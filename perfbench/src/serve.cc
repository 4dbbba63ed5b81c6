// serve_storm and serve_fanout_churn: in-process StandingQueryServer
// sessions driven through EncodeFrame / HandleBytes / DrainOutput /
// FrameDecoder, exactly as a transport would. One feed session sends
// TICK <rate>, the harness waits for OK TICK, then drains and decodes every
// session. No sockets, one thread.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/sql_parser.h"
#include "finance/bond_model.h"
#include "obs/execution_report.h"
#include "obs/metrics.h"
#include "server/frame.h"
#include "server/server.h"
#include "stats.h"
#include "testing/oracle.h"
#include "workload.h"
#include "workload/portfolio_gen.h"

namespace perfbench {
namespace {

using namespace vaolib;

// The bond portfolios are fixed (srv01's default seed), so the storm's
// budget constants below hold for every run seed; the run seed draws the
// rate walk, the thresholds and the churn schedule.
constexpr std::uint64_t kPortfolioSeed = 1994;
constexpr std::size_t kStormBonds = 16;
constexpr std::size_t kFanoutBonds = 48;
// Seeded rate random walk, reflected inside a band of the bond model's
// [x_min, x_max] = [0, 0.12] domain. Each workload's band keeps the top
// bonds' prices apart (no MAX near-tie anywhere in it), so every seed's
// walk costs about the same per tick.
struct RateBand {
  double lo;
  double hi;
  double step;  ///< largest move per tick
};
constexpr RateBand kStormBand = {0.03, 0.09, 0.006};
constexpr RateBand kFanoutBand = {0.02, 0.065, 0.001};
constexpr std::size_t kWarmupTicks = 3;
constexpr double kProbeStep = 0.0001;

// serve_storm's fixed per-tick budget. W = 1,575,794 work units is the
// reserved tenant's converge-all demand: the largest tick over the whole
// rate band at 1e-4 steps, unlimited budget, measured once with
// --probe-storm-demand. As in srv01 the tick budget is 3 W and the reserve
// 2 W. Constants, so a change that alters per-tick work cannot resize its
// own workload.
constexpr std::uint64_t kStormDemand = 1575794;
constexpr std::uint64_t kStormTickBudget = 3 * kStormDemand;
constexpr std::uint64_t kStormVipReserve = 2 * kStormDemand;

const char* const kVipQueries[] = {
    "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
    "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.05",
};
// Each noisy tenant also holds srv01's `> 100` selection, which it
// re-registers under a new id before every fourth tick, so the storm
// exercises the WITHDRAW/REGISTER path too. The threshold stays fixed:
// every seed then converges the same share of answers.
const char* const kNoisyQueries[] = {
    "SELECT MIN(bond_model(rate, bond_index)) FROM bd PRECISION 0.01",
    "SELECT TOP 3 bond_model(rate, bond_index) FROM bd PRECISION 0.01",
    "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 0.01",
};
constexpr std::size_t kNoisyTenants = 4;
constexpr double kStormThreshold = 100.0;

// serve_fanout_churn: tenant sessions, each with one seeded selection plus
// the shared loose MAX and AVE. The thresholds sit below every bond's
// coarse bounds anywhere in the rate band (prices 70..143, coarse widths
// under 9), so selections decide on the coarse objects and the kernel
// does little.
constexpr std::size_t kFanoutSessions = 32;
constexpr double kThresholdLo = 40.0;
constexpr double kThresholdHi = 60.0;
const char* const kFanoutMax =
    "SELECT MAX(bond_model(rate, bond_index)) FROM bd PRECISION 5";
const char* const kFanoutAve =
    "SELECT AVE(bond_model(rate, bond_index)) FROM bd PRECISION 5";

std::string Format17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SelectionSql(double threshold) {
  return "SELECT * FROM bd WHERE bond_model(rate, bond_index) > " +
         Format17(threshold);
}

std::vector<double> RateWalk(const RateBand& band, Rng* rng, std::size_t n) {
  std::vector<double> rates;
  rates.reserve(n);
  double rate = rng->Uniform(band.lo, band.hi);
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back(rate);
    rate += rng->Uniform(-band.step, band.step);
    if (rate < band.lo) rate = 2 * band.lo - rate;
    if (rate > band.hi) rate = 2 * band.hi - rate;
  }
  return rates;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Value of `key=` in a space-separated reply, or empty.
std::string_view Field(std::string_view payload, std::string_view key) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find(' ', pos);
    if (end == std::string_view::npos) end = payload.size();
    const std::string_view token = payload.substr(pos, end - pos);
    if (token.size() > key.size() && StartsWith(token, key) &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    pos = end + 1;
  }
  return {};
}

std::vector<std::size_t> RowList(std::string_view list) {
  std::vector<std::size_t> rows;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t end = list.find(',', pos);
    if (end == std::string_view::npos) end = list.size();
    rows.push_back(static_cast<std::size_t>(
        std::strtoull(std::string(list.substr(pos, end - pos)).c_str(),
                      nullptr, 10)));
    pos = end + 1;
  }
  return rows;
}

obs::Histogram* TickLatencyHistogram() {
  // Registered by the dispatcher with these buckets; the lookup returns
  // the existing histogram.
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "vaolib_server_tick_latency_seconds", {},
          {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0});
  return histogram;
}

// One in-process client session: framed bytes in, decoded replies out.
class Client {
 public:
  Client(server::StandingQueryServer* server, std::string tenant)
      : server_(server), session_(server->OpenSession()),
        tenant_(std::move(tenant)) {}

  void Send(std::string_view bytes) { server_->HandleBytes(session_, bytes); }

  // Appends every pending reply to *out; false on a framing error.
  bool Drain(std::vector<std::string>* out) {
    if (!decoder_.Feed(server_->DrainOutput(session_)).ok()) return false;
    while (auto payload = decoder_.Next()) out->push_back(std::move(*payload));
    return true;
  }

  // Sends one request and expects exactly \p want back.
  bool Expect(const std::string& request, const std::string& want,
              std::string* error) {
    Send(server::EncodeFrame(request));
    std::vector<std::string> replies;
    if (!Drain(&replies) || replies.size() != 1 || replies[0] != want) {
      *error = tenant_ + ": " + request + " -> " +
               (replies.empty() ? "(no reply)" : replies[0]);
      return false;
    }
    return true;
  }

  const std::string& tenant() const { return tenant_; }

  /// Standing queries: id -> SQL.
  std::map<std::string, std::string> queries;

 private:
  server::StandingQueryServer* server_;
  std::uint64_t session_;
  std::string tenant_;
  server::FrameDecoder decoder_;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, std::size_t bonds, const RateBand& band,
                std::size_t capacity)
      : seed_(seed), bonds_(bonds) {
    Rng rng(seed ^ 0x5e7e5eedULL);
    const std::vector<double> rates =
        RateWalk(band, &rng, kWarmupTicks + capacity);
    warmup_rates_.assign(rates.begin(), rates.begin() + kWarmupTicks);
    for (std::size_t i = kWarmupTicks; i < rates.size(); ++i) {
      tick_frames_.push_back(
          server::EncodeFrame("TICK " + Format17(rates[i])));
    }
    verify_rates_ = RateWalk(band, &rng, 2);
  }

  bool Setup(const Tracing& tracing, std::string* error) override {
    tracing_ = tracing;
    workload::PortfolioSpec spec;
    spec.count = static_cast<int>(bonds_);
    function_ = std::make_unique<finance::BondPricingFunction>(
        workload::GeneratePortfolio(kPortfolioSeed, spec),
        finance::BondModelConfig{});
    if (tracing.recorder != nullptr) {
      timed_ = std::make_unique<TimedFunction>(function_.get(),
                                               tracing.recorder, tracing.vao);
    }
    relation_ = std::make_unique<engine::Relation>(engine::Schema(
        {{"bond_index", engine::ColumnType::kDouble},
         {"position", engine::ColumnType::kDouble}}));
    for (std::size_t i = 0; i < bonds_; ++i) {
      if (!relation_->Append({static_cast<double>(i), 1.0}).ok()) {
        *error = "relation set-up failed";
        return false;
      }
    }
    const vao::VariableAccuracyFunction* registered = function_.get();
    if (timed_ != nullptr) registered = timed_.get();
    if (!registry_.Register(registered).ok()) {
      *error = "function registry set-up failed";
      return false;
    }
    server::ServerConfig config;
    config.dispatcher.threads = 1;
    config.dispatcher.health.enabled = true;  // as in vaolib_server
    Configure(&config.dispatcher);
    server_ = std::make_unique<server::StandingQueryServer>(
        relation_.get(), stream_schema_, &registry_, config);
    feed_ = std::make_unique<Client>(server_.get(), "feed");
    if (!feed_->Expect("HELLO feed", "OK HELLO feed", error)) return false;
    if (!OpenSessions(error)) return false;
    replies_.assign(clients_.size(), {});
    for (const double rate : warmup_rates_) {
      const OpResult warm =
          Tick(server::EncodeFrame("TICK " + Format17(rate)));
      if (!warm.ok) {
        *error = "warm-up tick: " + warm.failure;
        return false;
      }
    }
    return true;
  }

  OpResult RunOp(std::size_t index) override {
    std::int64_t churn_ns = 0;
    std::string failure;
    if (!replacements_.empty()) {
      Replace(replacements_[index], &churn_ns, &failure);
    }
    OpResult tick = Tick(tick_frames_[index]);
    tick.churn_ns = churn_ns;
    if (!failure.empty()) tick.Fail(failure);
    return tick;
  }

  std::size_t capacity() const override { return tick_frames_.size(); }
  bool serves() const override { return true; }

 protected:
  // Oracle check on untimed ticks: every converged answer must agree with
  // the converged-oracle answer (every object driven to minWidth).
  void VerifyWithOracle(std::size_t* attempted, std::size_t* failed) {
    testing::OracleExecutor oracle(function_.get());
    for (const double rate : verify_rates_) {
      const OpResult tick =
          Tick(server::EncodeFrame("TICK " + Format17(rate)));
      ++*attempted;
      if (!tick.ok) {
        ++*failed;
        std::fprintf(stderr, "verify tick: %s\n", tick.failure.c_str());
        continue;
      }
      std::map<std::string, testing::OracleAnswer> answers;
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        for (const std::string& reply : replies_[c]) {
          if (!StartsWith(reply, "RESULT ") ||
              Field(reply, "converged") != "1") {
            continue;
          }
          ++*attempted;
          std::string why;
          if (!CheckAgainstOracle(*clients_[c], reply, rate, oracle,
                                  &answers, &why)) {
            ++*failed;
            std::fprintf(stderr, "verify %s: %s\n", reply.c_str(),
                         why.c_str());
          }
        }
      }
    }
  }

  virtual void Configure(server::DispatcherConfig* config) = 0;
  virtual bool OpenSessions(std::string* error) = 0;
  // Per-tick output check of one client's RESULT frames.
  virtual void CheckResults(std::size_t client, std::size_t converged,
                            OpResult* result) {
    (void)client;
    (void)converged;
    (void)result;
  }
  virtual std::uint64_t tick_budget() const { return 0; }

  Client* AddClient(const std::string& tenant, bool reports,
                    std::string* error) {
    clients_.push_back(std::make_unique<Client>(server_.get(), tenant));
    Client* client = clients_.back().get();
    const std::string hello =
        "HELLO " + tenant + (reports ? " reports" : "");
    if (!client->Expect(hello, "OK " + hello, error)) {
      return nullptr;
    }
    return client;
  }

  bool Register(Client* client, const std::string& id, const std::string& sql,
                std::string* error) {
    if (!client->Expect("REGISTER " + id + " " + sql, "OK REGISTER " + id,
                        error)) {
      return false;
    }
    client->queries[id] = sql;
    return true;
  }

  bool traced() const { return tracing_.recorder != nullptr; }

  // Draws the initial selection (id "s0") of clients [first, first + count)
  // and the replacement before every tick: operation i withdraws client
  // first + i % count's selection generation g = i / count and registers
  // generation g + 1 with a fresh threshold from [lo, hi].
  void ScheduleReplacements(std::size_t first, std::size_t count, double lo,
                            double hi) {
    Rng rng(seed_ ^ 0xc4a52ULL);
    for (std::size_t c = 0; c < count; ++c) {
      initial_selection_.push_back(SelectionSql(rng.Uniform(lo, hi)));
    }
    for (std::size_t i = 0; i < tick_frames_.size(); ++i) {
      Replacement next;
      next.client = first + i % count;
      next.old_id = "s" + std::to_string(i / count);
      next.new_id = "s" + std::to_string(i / count + 1);
      next.sql = SelectionSql(rng.Uniform(lo, hi));
      next.frames = server::EncodeFrame("WITHDRAW " + next.old_id) +
                    server::EncodeFrame("REGISTER " + next.new_id + " " +
                                        next.sql);
      replacements_.push_back(std::move(next));
    }
  }

  std::uint64_t seed_;
  std::size_t bonds_;
  Tracing tracing_;
  std::vector<std::string> tick_frames_;
  std::vector<std::string> initial_selection_;  ///< per replacing client

  // The system under test. The server borrows the function, relation and
  // registry, and the clients borrow the server, so each is declared after
  // what it borrows and destroyed before it.
  std::unique_ptr<finance::BondPricingFunction> function_;
  std::unique_ptr<TimedFunction> timed_;
  std::unique_ptr<engine::Relation> relation_;
  engine::FunctionRegistry registry_;
  engine::Schema stream_schema_{{{"rate", engine::ColumnType::kDouble}}};
  std::unique_ptr<server::StandingQueryServer> server_;
  std::unique_ptr<Client> feed_;
  std::vector<std::unique_ptr<Client>> clients_;

 private:
  // Sends one TICK frame from the feed session and drains every session.
  OpResult Tick(const std::string& frame) {
    OpResult result;
    SpanRecorder* recorder = tracing_.recorder;
    const double wall_before = TickLatencyHistogram()->Sum();
    {
      const ScopedSpan span(recorder, SpanName::kServerHandle);
      feed_->Send(frame);
    }
    feed_replies_.clear();
    bool framed = true;
    {
      const ScopedSpan span(recorder, SpanName::kServerDrain);
      framed = feed_->Drain(&feed_replies_);
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        replies_[c].clear();
        framed = clients_[c]->Drain(&replies_[c]) && framed;
      }
    }
    result.end_ns = NowNs();
    result.dispatch_ns = static_cast<std::int64_t>(
        (TickLatencyHistogram()->Sum() - wall_before) * 1e9 + 0.5);
    if (!framed) result.Fail("frame decoding failed");

    OpCounts& counts = result.counts;
    Fnv1a digest;
    if (feed_replies_.size() != 1 ||
        !StartsWith(feed_replies_[0], "OK TICK ")) {
      result.Fail("TICK not acknowledged: " +
                  (feed_replies_.empty() ? std::string("(no reply)")
                                         : feed_replies_[0]));
    } else {
      counts.work = std::strtoull(
          std::string(Field(feed_replies_[0], "work")).c_str(), nullptr, 10);
      counts.frames += 1;
      counts.payload_bytes += feed_replies_[0].size();
      digest.AddString(feed_replies_[0]);
    }
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      std::size_t results = 0;
      std::size_t converged = 0;
      for (const std::string& reply : replies_[c]) {
        if (StartsWith(reply, "REPORT ")) {
          AddReport(reply, &counts, &result);
          continue;
        }
        ++counts.frames;
        counts.payload_bytes += reply.size();
        if (!StartsWith(reply, "RESULT ")) {
          result.Fail(clients_[c]->tenant() + " got " + reply);
          continue;
        }
        digest.AddString(reply);
        ++results;
        if (Field(reply, "converged") == "1") ++converged;
      }
      if (results != clients_[c]->queries.size()) {
        result.Fail(clients_[c]->tenant() + " got " +
                    std::to_string(results) + " RESULT frames, want " +
                    std::to_string(clients_[c]->queries.size()));
      }
      counts.results += results;
      counts.converged += converged;
      CheckResults(c, converged, &result);
    }
    if (tick_budget() > 0) {
      counts.budget_utilization = static_cast<double>(counts.work) /
                                  static_cast<double>(tick_budget());
    }
    result.digest = digest.value();
    return result;
  }

  static void AddReport(const std::string& reply, OpCounts* counts,
                        OpResult* result) {
    // "REPORT <qid> seq=<n> <json>"
    const std::size_t json = reply.find('{');
    const auto report =
        json == std::string::npos
            ? Result<obs::ExecutionReport>(Status::InvalidArgument("no JSON"))
            : obs::ExecutionReport::FromJson(reply.substr(json));
    if (!report.ok()) {
      result->Fail("unparsable REPORT: " + report.status().ToString());
      return;
    }
    counts->choose_steps += report->choose_steps;
    counts->iterations += report->iterations;
    counts->rows_scanned += report->rows_scanned;
  }

  bool CheckAgainstOracle(const Client& client, const std::string& reply,
                          double rate, const testing::OracleExecutor& oracle,
                          std::map<std::string, testing::OracleAnswer>* cache,
                          std::string* why) {
    const std::string_view rest = std::string_view(reply).substr(7);
    const std::string id(rest.substr(0, rest.find(' ')));
    const auto sql = client.queries.find(id);
    if (sql == client.queries.end()) {
      *why = "unknown query id";
      return false;
    }
    auto cached = cache->find(sql->second);
    if (cached == cache->end()) {
      auto query = server_->dispatcher().ParseSql(sql->second);
      if (!query.ok()) {
        *why = query.status().ToString();
        return false;
      }
      query->function = function_.get();
      for (engine::ArgRef& arg : query->args) {
        if (arg.source == engine::ArgRef::Source::kStreamField) {
          arg = engine::ArgRef::Constant(rate);
        }
      }
      auto answer = oracle.Answer(*query, *relation_);
      if (!answer.ok()) {
        *why = answer.status().ToString();
        return false;
      }
      cached = cache->emplace(sql->second, std::move(*answer)).first;
    }
    const testing::OracleAnswer& truth = cached->second;
    const double lo = std::strtod(std::string(Field(reply, "lo")).c_str(),
                                  nullptr);
    const double hi = std::strtod(std::string(Field(reply, "hi")).c_str(),
                                  nullptr);
    const bool overlaps =
        lo <= truth.aggregate_bounds.hi && truth.aggregate_bounds.lo <= hi;
    switch (truth.kind) {
      case engine::QueryKind::kSelect:
      case engine::QueryKind::kSelectRange: {
        std::vector<bool> passed(truth.passes.size(), false);
        for (const std::size_t row : RowList(Field(reply, "rows"))) {
          if (row < passed.size()) passed[row] = true;
        }
        for (std::size_t row = 0; row < passed.size(); ++row) {
          if (!truth.resolved_as_equal[row] &&
              passed[row] != static_cast<bool>(truth.passes[row])) {
            *why = "row " + std::to_string(row) + " decided wrongly";
            return false;
          }
        }
        return true;
      }
      case engine::QueryKind::kMax:
      case engine::QueryKind::kMin: {
        const std::size_t winner = std::strtoull(
            std::string(Field(reply, "winner")).c_str(), nullptr, 10);
        if (!truth.IsAdmissible(winner)) {
          *why = "winner not admissible";
          return false;
        }
        if (!overlaps) *why = "[lo, hi] misses the oracle interval";
        return overlaps;
      }
      case engine::QueryKind::kTopK:
        for (const std::size_t row : RowList(Field(reply, "top"))) {
          if (!truth.IsAdmissible(row)) {
            *why = "top row " + std::to_string(row) + " not admissible";
            return false;
          }
        }
        return true;
      case engine::QueryKind::kSum:
      case engine::QueryKind::kAve:
        if (!overlaps) *why = "[lo, hi] misses the oracle interval";
        return overlaps;
    }
    return true;
  }

  struct Replacement {
    std::size_t client;
    std::string frames;  ///< WITHDRAW + REGISTER, encoded
    std::string old_id;
    std::string new_id;
    std::string sql;
  };

  // Sends one replacement and expects both OK replies.
  void Replace(const Replacement& replacement, std::int64_t* churn_ns,
               std::string* failure) {
    Client* client = clients_[replacement.client].get();
    churn_replies_.clear();
    const std::int64_t start = NowNs();
    bool framed = true;
    {
      const ScopedSpan span(tracing_.recorder, SpanName::kServerChurn);
      client->Send(replacement.frames);
      framed = client->Drain(&churn_replies_);
    }
    *churn_ns = NowNs() - start;
    if (!framed || churn_replies_.size() != 2 ||
        churn_replies_[0] != "OK WITHDRAW " + replacement.old_id ||
        churn_replies_[1] != "OK REGISTER " + replacement.new_id) {
      *failure = client->tenant() + ": replacement " + replacement.old_id +
                 " -> " + replacement.new_id + " not acknowledged";
      return;
    }
    client->queries.erase(replacement.old_id);
    client->queries[replacement.new_id] = replacement.sql;
  }

  std::vector<double> warmup_rates_;
  std::vector<double> verify_rates_;
  std::vector<Replacement> replacements_;
  std::vector<std::string> feed_replies_;
  std::vector<std::string> churn_replies_;
  std::vector<std::vector<std::string>> replies_;
};

class ServeStorm : public ServeWorkload {
 public:
  /// \p probe: the reserved tenant alone with an unlimited budget, which
  /// measures its converge-all demand (ProbeStormDemand).
  ServeStorm(std::uint64_t seed, bool probe)
      : ServeWorkload(seed, kStormBonds, kStormBand, kCapacity),
        probe_(probe) {
    if (!probe) {
      ScheduleReplacements(/*first=*/1, kNoisyTenants, kStormThreshold,
                           kStormThreshold);
      return;
    }
    tick_frames_.clear();
    for (double rate = kStormBand.lo; rate <= kStormBand.hi + 1e-12;
         rate += kProbeStep) {
      tick_frames_.push_back(server::EncodeFrame("TICK " + Format17(rate)));
    }
  }
  std::size_t window() const override { return 24; }
  // The PDE kernel does almost all the work.
  ReferenceShape reference_shape() const override {
    return ReferenceShape::kSolve;
  }

 private:
  static constexpr std::size_t kCapacity = 4096;

  void Configure(server::DispatcherConfig* config) override {
    config->tick_budget = tick_budget();
    config->shed_after_misses = 0;  // sustained overload, nobody evicted
  }

  bool OpenSessions(std::string* error) override {
    server::TenantQuota quota =
        server_->dispatcher().admission().QuotaFor("vip");
    quota.reserve_units = kStormVipReserve;
    server_->dispatcher().admission().SetQuota("vip", quota);
    Client* vip = AddClient("vip", traced(), error);
    if (vip == nullptr) return false;
    for (std::size_t q = 0; q < std::size(kVipQueries); ++q) {
      if (!Register(vip, "v" + std::to_string(q), kVipQueries[q], error)) {
        return false;
      }
    }
    for (std::size_t n = 0; n < (probe_ ? 0 : kNoisyTenants); ++n) {
      Client* noisy = AddClient("noisy" + std::to_string(n), false, error);
      if (noisy == nullptr) return false;
      for (std::size_t q = 0; q < std::size(kNoisyQueries); ++q) {
        if (!Register(noisy, "n" + std::to_string(q), kNoisyQueries[q],
                      error)) {
          return false;
        }
      }
      if (!Register(noisy, "s0", initial_selection_[n], error)) return false;
    }
    return true;
  }

  // The reserve invariant: the reserved tenant converges every tick.
  void CheckResults(std::size_t client, std::size_t converged,
                    OpResult* result) override {
    if (client == 0 && converged != clients_[0]->queries.size()) {
      result->Fail("reserved tenant went unconverged");
    }
  }

  void Verify(std::size_t* attempted, std::size_t* failed) override {
    const server::TenantUsage vip =
        server_->dispatcher().admission().UsageFor("vip");
    ++*attempted;
    if (vip.deadline_misses != 0 || vip.unconverged_results != 0) {
      ++*failed;
      std::fprintf(stderr, "reserved tenant: %llu misses, %llu unconverged\n",
                   static_cast<unsigned long long>(vip.deadline_misses),
                   static_cast<unsigned long long>(vip.unconverged_results));
    }
    VerifyWithOracle(attempted, failed);
  }

  std::uint64_t tick_budget() const override {
    return probe_ ? 0 : kStormTickBudget;
  }

  bool probe_;
};

class ServeFanoutChurn : public ServeWorkload {
 public:
  explicit ServeFanoutChurn(std::uint64_t seed)
      : ServeWorkload(seed, kFanoutBonds, kFanoutBand, kCapacity) {
    ScheduleReplacements(/*first=*/0, kFanoutSessions, kThresholdLo,
                         kThresholdHi);
  }

  std::size_t window() const override { return 2 * kFanoutSessions; }
  // Framing, protocol and executor bookkeeping: branchy code on heap
  // objects, closer to the operators' scans than to the kernel.
  ReferenceShape reference_shape() const override {
    return ReferenceShape::kScan;
  }

 private:
  static constexpr std::size_t kCapacity = 16384;

  void Configure(server::DispatcherConfig* config) override {
    config->tick_budget = 0;  // converge every query every tick
  }

  bool OpenSessions(std::string* error) override {
    for (std::size_t s = 0; s < kFanoutSessions; ++s) {
      char tenant[8];
      std::snprintf(tenant, sizeof(tenant), "t%02zu", s);
      Client* client = AddClient(tenant, traced() && s == 0, error);
      if (client == nullptr ||
          !Register(client, "s0", initial_selection_[s], error) ||
          !Register(client, "mx", kFanoutMax, error) ||
          !Register(client, "av", kFanoutAve, error)) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeServeStorm(std::uint64_t seed) {
  return std::make_unique<ServeStorm>(seed, /*probe=*/false);
}

int ProbeStormDemand() {
  ServeStorm probe(/*seed=*/0, /*probe=*/true);
  std::string error;
  if (!probe.Setup(Tracing{}, &error)) {
    std::fprintf(stderr, "probe set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::uint64_t demand = 0;
  for (std::size_t i = 0; i < probe.capacity(); ++i) {
    const OpResult tick = probe.RunOp(i);
    if (!tick.ok) {
      std::fprintf(stderr, "probe tick failed: %s\n", tick.failure.c_str());
      return 1;
    }
    demand = std::max(demand, tick.counts.work);
  }
  std::printf("serve_storm reserved-tenant demand W = %llu work units/tick\n",
              static_cast<unsigned long long>(demand));
  return 0;
}

std::unique_ptr<Workload> MakeServeFanoutChurn(std::uint64_t seed) {
  return std::make_unique<ServeFanoutChurn>(seed);
}

}  // namespace perfbench
