#include "server/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "common/macros.h"
#include "engine/query_plan.h"
#include "engine/report_capture.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"

namespace vaolib::server {

namespace {

// Per-query progress samples the health plane retains (one per tick).
constexpr std::size_t kProgressCapacity = 32;

struct DispatcherMetrics {
  obs::Gauge* standing_queries;
  obs::Counter* registrations;
  obs::Counter* withdrawals;
  obs::Counter* ticks;
  obs::Counter* results;
  obs::Counter* shed_overload;
  obs::Counter* deadline_misses;
  obs::Counter* unconverged;
  obs::Histogram* tick_latency;
  obs::Histogram* tick_work;
};

const DispatcherMetrics& Metrics() {
  static const DispatcherMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    registry.SetHelp("vaolib_server_standing_queries",
                     "Standing queries currently registered.");
    registry.SetHelp("vaolib_server_registrations_total",
                     "Accepted REGISTER commands.");
    registry.SetHelp("vaolib_server_withdrawals_total",
                     "WITHDRAW commands and session-close withdrawals.");
    registry.SetHelp("vaolib_server_ticks_total",
                     "Stream ticks dispatched to the standing-query set.");
    registry.SetHelp("vaolib_server_results_total",
                     "Per-query RESULT frames produced.");
    registry.SetHelp("vaolib_server_shed_total",
                     "Standing queries evicted under overload.");
    registry.SetHelp("vaolib_server_deadline_misses_total",
                     "Results that missed their scheduling deadline.");
    registry.SetHelp("vaolib_server_unconverged_total",
                     "Results delivered as sound partial intervals "
                     "(converged=0).");
    registry.SetHelp("vaolib_server_tick_latency_seconds",
                     "Wall-clock latency of one dispatcher tick.");
    registry.SetHelp("vaolib_server_tick_work_units",
                     "Work units spent in one dispatcher tick.");
    return DispatcherMetrics{
        registry.GetGauge("vaolib_server_standing_queries"),
        registry.GetCounter("vaolib_server_registrations_total"),
        registry.GetCounter("vaolib_server_withdrawals_total"),
        registry.GetCounter("vaolib_server_ticks_total"),
        registry.GetCounter("vaolib_server_results_total"),
        registry.GetCounter("vaolib_server_shed_total",
                            {{"reason", "overload"}}),
        registry.GetCounter("vaolib_server_deadline_misses_total"),
        registry.GetCounter("vaolib_server_unconverged_total"),
        registry.GetHistogram("vaolib_server_tick_latency_seconds", {},
                              {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0,
                               30.0}),
        registry.GetHistogram("vaolib_server_tick_work_units", {},
                              {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}),
    };
  }();
  return metrics;
}

// %.9g with non-finite mapped to 0: INSPECT payloads are JSON and
// "inf"/"nan" would break every scraper.
void AppendDouble(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

// Shared-execution signature: two queries sharing a key satisfy
// MultiQueryExecutor's sharing precondition (same function instance, same
// argument bindings).
std::string GroupKeyOf(const engine::Query& query) {
  std::ostringstream os;
  os << static_cast<const void*>(query.function);
  for (const engine::ArgRef& arg : query.args) {
    os << '|';
    switch (arg.source) {
      case engine::ArgRef::Source::kStreamField:
        os << 's' << arg.field;
        break;
      case engine::ArgRef::Source::kRelationField:
        os << 'r' << arg.field;
        break;
      case engine::ArgRef::Source::kConstant:
        os << 'c' << std::setprecision(17) << arg.constant;
        break;
    }
  }
  return os.str();
}

// Every INSPECT scope's answer while the health plane is off.
Status HealthPlaneDisabled() {
  return Status::FailedPrecondition(
      "health plane disabled on this server (DispatcherConfig::health)");
}

}  // namespace

std::vector<obs::SloSpec> DefaultServerSlos(const HealthConfig& health,
                                            std::uint64_t tick_budget) {
  std::vector<obs::SloSpec> slos;
  const auto ratio = [&](const char* name, const char* bad_metric,
                         obs::MetricsRegistry::Labels bad_labels,
                         double budget) {
    obs::SloSpec spec;
    spec.name = name;
    spec.bad_metric = bad_metric;
    spec.bad_labels = std::move(bad_labels);
    spec.total_metric = "vaolib_server_results_total";
    spec.budget = budget;
    spec.fast_epochs = health.fast_epochs;
    spec.slow_epochs = health.slow_epochs;
    slos.push_back(std::move(spec));
  };
  ratio("deadline_miss", "vaolib_server_deadline_misses_total", {}, 0.01);
  ratio("shed", "vaolib_server_shed_total", {{"reason", "overload"}}, 0.01);
  ratio("unconverged", "vaolib_server_unconverged_total", {}, 0.05);
  if (tick_budget > 0) {
    obs::SloSpec spec;
    spec.name = "tick_work_p99";
    spec.histogram_metric = "vaolib_server_tick_work_units";
    spec.quantile = 0.99;
    spec.limit = static_cast<double>(tick_budget);
    spec.fast_epochs = health.fast_epochs;
    spec.slow_epochs = health.slow_epochs;
    slos.push_back(std::move(spec));
  }
  return slos;
}

Dispatcher::Dispatcher(const engine::Relation* relation,
                       engine::Schema stream_schema,
                       const engine::FunctionRegistry* registry,
                       DispatcherConfig config)
    : relation_(relation),
      stream_schema_(std::move(stream_schema)),
      registry_(registry),
      config_(std::move(config)),
      admission_(config_.admission) {
  if (config_.health.enabled) {
    std::vector<obs::SloSpec> slos =
        config_.health.slos.empty()
            ? DefaultServerSlos(config_.health, config_.tick_budget)
            : config_.health.slos;
    // Register the server's series before the view resolves them, and
    // snapshot only what the SLOs read: the per-epoch cost on the tick path.
    Metrics();
    obs::WindowedView::Options view_options;
    view_options.window_count = config_.health.window_count;
    view_options.series = obs::SeriesReadBy(slos);
    health_view_ = std::make_unique<obs::WindowedView>(
        &obs::MetricsRegistry::Global(), std::move(view_options));
    health_monitor_ = std::make_unique<obs::SloMonitor>(health_view_.get(),
                                                        std::move(slos));
  }
}

Result<engine::Query> Dispatcher::ParseSql(const std::string& sql) const {
  return engine::ParseQuery(sql, *registry_, stream_schema_,
                            relation_->schema());
}

AdmissionDecision Dispatcher::Register(std::uint64_t session,
                                       const std::string& tenant,
                                       const std::string& query_id,
                                       const engine::Query& query,
                                       bool want_reports) {
  AdmissionDecision decision;
  const auto reject = [&decision](Status reason) {
    decision.outcome = AdmissionDecision::Outcome::kRejected;
    decision.reason = std::move(reason);
    return decision;
  };
  const QueryKey key{session, query_id};
  if (standing_.count(key) > 0) {
    return reject(Status::AlreadyExists(
        "query id '" + query_id + "' is already registered on this session"));
  }
  // Plan the query against this dispatcher's relation/schemas NOW, so a bad
  // registration fails its own REGISTER instead of failing the whole
  // group's next tick. This is the query's one plan: it moves into its
  // group's executor and stays there until the query leaves.
  auto plan = engine::QueryPlan::Create(query, stream_schema_, relation_);
  if (!plan.ok()) return reject(plan.status());
  decision = admission_.AdmitQuery(tenant, relation_->size());
  if (decision.outcome != AdmissionDecision::Outcome::kAdmitted) {
    return decision;
  }
  const auto it = standing_.emplace(key, StandingQuery{}).first;
  it->second.tenant = tenant;
  it->second.group = GroupKeyOf(query);
  it->second.want_reports = want_reports;
  Group& group = groups_[it->second.group];
  if (group.executor == nullptr) {
    // The executor's default kDeadline policy is what honours the
    // admission reserves. Budget and schedules are set on every tick.
    engine::MultiQueryOptions options;
    options.threads = config_.threads;
    group.executor = std::make_unique<engine::MultiQueryExecutor>(
        relation_, stream_schema_, std::move(options));
  }
  const std::size_t index = MemberIndex(group, *it);
  const Status inserted =
      group.executor->Insert(index, std::move(plan).value(), tenant);
  if (!inserted.ok()) {
    // Equal group keys, unequal bindings (a NaN constant): the group holds
    // other queries, so only this one is undone.
    admission_.ReleaseQuery(tenant, relation_->size(), /*shed=*/false);
    standing_.erase(it);
    return reject(inserted);
  }
  group.members.insert(group.members.begin() + index, &*it);
  Metrics().registrations->Increment();
  Metrics().standing_queries->Set(static_cast<std::int64_t>(
      standing_.size()));
  return decision;
}

Status Dispatcher::Withdraw(std::uint64_t session,
                            const std::string& query_id) {
  const auto it = standing_.find(QueryKey{session, query_id});
  if (it == standing_.end()) {
    return Status::NotFound("no standing query '" + query_id +
                            "' on this session");
  }
  Drop(it, /*shed=*/false);
  return Status::OK();
}

void Dispatcher::WithdrawSession(std::uint64_t session) {
  auto it = standing_.lower_bound(QueryKey{session, ""});
  while (it != standing_.end() && it->first.first == session) {
    Drop(it++, /*shed=*/false);
  }
}

std::size_t Dispatcher::MemberIndex(const Group& group,
                                    const Standing& standing) {
  const auto pos = std::lower_bound(
      group.members.begin(), group.members.end(), standing.first,
      [](const Standing* member, const QueryKey& key) {
        return member->first < key;
      });
  return static_cast<std::size_t>(pos - group.members.begin());
}

void Dispatcher::Drop(StandingMap::iterator it, bool shed) {
  admission_.ReleaseQuery(it->second.tenant, relation_->size(), shed);
  const auto group_it = groups_.find(it->second.group);
  Group& group = group_it->second;
  const std::size_t index = MemberIndex(group, *it);
  group.executor->Remove(index);
  group.members.erase(group.members.begin() + index);
  if (group.members.empty()) groups_.erase(group_it);
  standing_.erase(it);
  (shed ? Metrics().shed_overload : Metrics().withdrawals)->Increment();
  Metrics().standing_queries->Set(static_cast<std::int64_t>(
      standing_.size()));
}

Result<TickSummary> Dispatcher::Tick(const engine::Tuple& stream_tuple,
                                     std::vector<Delivery>* deliveries) {
  const auto start = std::chrono::steady_clock::now();
  const vao::PdeProfileCache::Scope profiles(
      config_.reuse_pde_profiles ? profile_cache_.get() : nullptr);
  ++tick_seq_;
  TickSummary summary;
  summary.seq = tick_seq_;

  const std::size_t total = standing_.size();
  std::vector<StandingMap::iterator> to_shed;
  for (auto& [signature, group] : groups_) {
    // Budget shares (integer division may strand a few units until the
    // mix changes) and schedules are recomputed every tick, so they always
    // read the current query set and quotas.
    const std::uint64_t budget =
        config_.tick_budget > 0
            ? config_.tick_budget * group.members.size() / total
            : 0;
    group.executor->set_budget(budget);
    for (std::size_t i = 0; i < group.members.size(); ++i) {
      group.executor->set_schedule(
          i, admission_.ScheduleFor(group.members[i]->second.tenant, budget));
    }
    const std::uint64_t before = group.executor->meter().Total();
    VAOLIB_ASSIGN_OR_RETURN(const std::vector<engine::TickResult> results,
                            group.executor->ProcessTick(stream_tuple));
    summary.work_units += group.executor->meter().Total() - before;

    {
      // One span per group: the encode layer of a traced tick.
      const obs::ScopedSpan encode_span("encode", "results");
      for (std::size_t i = 0; i < group.members.size(); ++i) {
        const auto& [member, standing] = *group.members[i];
        deliveries->push_back(
            {member.first, FormatResult(member.second, tick_seq_, results[i])});
        if (standing.want_reports) {
          std::ostringstream os;
          os << "REPORT " << member.second << " seq=" << tick_seq_ << " ";
          results[i].report.RenderJson(os);
          deliveries->push_back({member.first, os.str()});
        }
      }
    }

    for (std::size_t i = 0; i < group.members.size(); ++i) {
      StandingQuery& standing = group.members[i]->second;
      const engine::TickResult& result = results[i];
      ++summary.queries;
      if (result.converged) ++summary.converged;

      Metrics().results->Increment();
      if (!result.converged) Metrics().unconverged->Increment();
      if (result.report.missed_deadline) {
        Metrics().deadline_misses->Increment();
      }
      admission_.RecordResult(standing.tenant, result.report.scheduler_spent,
                              result.converged,
                              result.report.missed_deadline);

      if (health_view_ != nullptr) {
        if (!standing.progress.has_value()) {
          standing.progress.emplace(kProgressCapacity);
        }
        obs::ProgressSample sample;
        sample.tick = tick_seq_;
        sample.width = result.report.answer_width;
        sample.rel_width = result.report.answer_rel_width;
        sample.work_spent = result.work_units;
        sample.converged = result.converged;
        sample.limited_by_min_width = result.report.limited_by_min_width;
        standing.progress->Record(sample);
      }

      if (result.converged) {
        standing.misses = 0;
      } else if (config_.shed_after_misses > 0 &&
                 !admission_.QuotaFor(standing.tenant).reserved() &&
                 ++standing.misses >= config_.shed_after_misses) {
        to_shed.push_back(standing_.find(group.members[i]->first));
      }
    }
  }

  for (const StandingMap::iterator it : to_shed) {
    deliveries->push_back(
        {it->first.first,
         FormatShed(it->first.second, config_.admission.retry_after_ticks,
                    "unconverged for " +
                        std::to_string(config_.shed_after_misses) +
                        " consecutive ticks; re-register after backoff")});
    Drop(it, /*shed=*/true);
  }
  summary.shed = to_shed.size();
  total_shed_ += summary.shed;

  total_work_units_ += summary.work_units;
  summary.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  Metrics().ticks->Increment();
  Metrics().tick_latency->Observe(summary.wall_seconds);
  Metrics().tick_work->Observe(static_cast<double>(summary.work_units));

  if (health_view_ != nullptr &&
      tick_seq_ % std::max<std::size_t>(config_.health.ticks_per_epoch, 1) ==
          0) {
    // Tick-driven epochs: deliberately no wall clock here, so deterministic
    // replays close identical windows.
    health_view_->Advance();
    health_monitor_->Evaluate();
  }
  return summary;
}

obs::HealthState Dispatcher::health_state() const {
  return health_monitor_ != nullptr ? health_monitor_->state()
                                    : obs::HealthState::kHealthy;
}

void Dispatcher::RenderQueryProgress(const Standing& entry,
                                     std::ostream& os) const {
  const auto& [key, standing] = entry;
  const Group& group = groups_.at(standing.group);
  const engine::Query& query =
      group.executor->plan(MemberIndex(group, entry)).query();
  const obs::ProgressRing& ring = *standing.progress;  // never empty
  const obs::ProgressSample& last = ring.newest();
  os << "{\"id\": \"" << key.second << "\", \"session\": " << key.first
     << ", \"tenant\": \"" << standing.tenant << "\", \"kind\": \""
     << engine::QueryKindName(query.kind) << "\", \"epsilon\": ";
  AppendDouble(os, query.epsilon);
  os << ", \"ticks_observed\": " << ring.total_recorded() << ", \"width\": ";
  AppendDouble(os, last.width);
  os << ", \"rel_width\": ";
  AppendDouble(os, last.rel_width);
  os << ", \"work_last_tick\": " << last.work_spent
     << ", \"converged\": " << (last.converged ? "true" : "false")
     << ", \"limited_by_min_width\": "
     << (last.limited_by_min_width ? "true" : "false");
  const obs::EtaEstimate eta = ring.EstimateEta(query.epsilon);
  os << ", \"eta\": {\"known\": " << (eta.known ? "true" : "false")
     << ", \"ticks\": ";
  AppendDouble(os, eta.ticks);
  os << ", \"work_units\": ";
  AppendDouble(os, eta.work_units);
  os << "}, \"trajectory\": [";
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const obs::ProgressSample& sample = ring.at(i);
    if (i > 0) os << ", ";
    os << "{\"tick\": " << sample.tick << ", \"width\": ";
    AppendDouble(os, sample.width);
    os << ", \"work\": " << sample.work_spent << "}";
  }
  os << "]}";
}

Result<std::string> Dispatcher::InspectServer() const {
  if (health_monitor_ == nullptr) return HealthPlaneDisabled();
  std::ostringstream os;
  os << "{\"scope\": \"server\", \"health\": \""
     << obs::HealthStateName(health_monitor_->state()) << "\""
     << ", \"ticks\": " << tick_seq_ << ", \"queries\": " << standing_.size()
     << ", \"epochs\": " << health_view_->epochs()
     << ", \"window_count\": " << health_view_->options().window_count
     << ", \"critical_transitions\": "
     << health_monitor_->critical_transitions()
     << ", \"pde_profile_cache\": {\"enabled\": "
     << (config_.reuse_pde_profiles ? "true" : "false")
     << ", \"entries\": " << profile_cache_->entries()
     << ", \"bytes\": " << profile_cache_->bytes()
     << ", \"hits\": " << profile_cache_->hits()
     << ", \"misses\": " << profile_cache_->misses() << "}, \"slos\": [";
  bool first = true;
  for (const obs::SloStatus& status : health_monitor_->statuses()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << status.name << "\", \"state\": \""
       << obs::HealthStateName(status.state) << "\", \"fast_value\": ";
    AppendDouble(os, status.fast_value);
    os << ", \"slow_value\": ";
    AppendDouble(os, status.slow_value);
    os << ", \"fast_burn\": ";
    AppendDouble(os, status.fast_burn);
    os << ", \"slow_burn\": ";
    AppendDouble(os, status.slow_burn);
    os << "}";
  }
  os << "]}";
  return os.str();
}

Result<std::string> Dispatcher::InspectQuery(std::uint64_t session,
                                             const std::string& query_id)
    const {
  if (health_monitor_ == nullptr) return HealthPlaneDisabled();
  const auto it = standing_.find(QueryKey{session, query_id});
  if (it == standing_.end()) {
    return Status::NotFound("no standing query '" + query_id +
                            "' on this session");
  }
  std::ostringstream os;
  os << "{\"scope\": \"query\", \"health\": \""
     << obs::HealthStateName(health_monitor_->state())
     << "\", \"queries\": [";
  if (it->second.progress.has_value()) {
    RenderQueryProgress(*it, os);
  } else {
    // Registered but never ticked: answer with identity only, no samples.
    os << "{\"id\": \"" << query_id << "\", \"session\": " << session
       << ", \"tenant\": \"" << it->second.tenant
       << "\", \"ticks_observed\": 0}";
  }
  os << "]}";
  return os.str();
}

Result<std::string> Dispatcher::InspectTenant(const std::string& tenant)
    const {
  if (health_monitor_ == nullptr) return HealthPlaneDisabled();
  const auto usage_map = admission_.AllUsage();
  const auto usage_it = usage_map.find(tenant);
  if (usage_it == usage_map.end()) {
    return Status::NotFound("no tenant '" + tenant + "'");
  }
  const TenantUsage& usage = usage_it->second;
  std::ostringstream os;
  os << "{\"scope\": \"tenant\", \"tenant\": \"" << tenant
     << "\", \"health\": \""
     << obs::HealthStateName(health_monitor_->state())
     << "\", \"usage\": {\"queries\": " << usage.queries
     << ", \"work_units\": " << usage.work_units
     << ", \"results\": " << usage.results
     << ", \"unconverged\": " << usage.unconverged_results
     << ", \"deadline_misses\": " << usage.deadline_misses
     << ", \"shed\": " << usage.shed_queries
     << ", \"rejected\": " << usage.rejected_registrations
     << "}, \"queries\": [";
  bool first = true;
  for (const Standing& standing : standing_) {
    // Only queries that have ticked are listed.
    if (standing.second.tenant != tenant ||
        !standing.second.progress.has_value()) {
      continue;
    }
    if (!first) os << ", ";
    first = false;
    RenderQueryProgress(standing, os);
  }
  os << "]}";
  return os.str();
}

}  // namespace vaolib::server
