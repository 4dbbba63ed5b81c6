#include "server/admission.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace vaolib::server {

namespace {

struct AdmissionCounters {
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* shed;
};

const AdmissionCounters& Counters() {
  static const AdmissionCounters counters = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return AdmissionCounters{
        registry.GetCounter("vaolib_server_admitted_total"),
        registry.GetCounter("vaolib_server_rejected_total"),
        registry.GetCounter("vaolib_server_shed_total",
                            {{"reason", "register"}}),
    };
  }();
  return counters;
}

}  // namespace

void AdmissionController::SetQuota(const std::string& tenant,
                                   const TenantQuota& quota) {
  const std::lock_guard<std::mutex> lock(mutex_);
  quotas_[tenant] = quota;
}

TenantQuota AdmissionController::QuotaFor(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = quotas_.find(tenant);
  return it == quotas_.end() ? config_.default_quota : it->second;
}

AdmissionDecision AdmissionController::AdmitQuery(const std::string& tenant,
                                                  std::size_t relation_rows) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto quota_it = quotas_.find(tenant);
  const TenantQuota& quota =
      quota_it == quotas_.end() ? config_.default_quota : quota_it->second;
  TenantUsage& usage = usage_[tenant];

  AdmissionDecision decision;
  if (usage.queries + 1 > quota.max_queries) {
    decision.outcome = AdmissionDecision::Outcome::kRejected;
    decision.reason = Status::ResourceExhausted(
        "tenant '" + tenant + "' is at its query quota (" +
        std::to_string(quota.max_queries) + "); withdraw one first");
  } else if (usage.objects + relation_rows > quota.max_objects) {
    decision.outcome = AdmissionDecision::Outcome::kRejected;
    decision.reason = Status::ResourceExhausted(
        "tenant '" + tenant + "' is at its object quota (" +
        std::to_string(quota.max_objects) + " objects; this query needs " +
        std::to_string(relation_rows) + " more)");
  } else if (total_queries_ + 1 > config_.max_total_queries) {
    decision.outcome = AdmissionDecision::Outcome::kShed;
    decision.reason = Status::ResourceExhausted(
        "server is at its standing-query capacity (" +
        std::to_string(config_.max_total_queries) + ")");
    decision.retry_after_ticks = config_.retry_after_ticks;
  }

  switch (decision.outcome) {
    case AdmissionDecision::Outcome::kAdmitted:
      usage.queries += 1;
      usage.objects += relation_rows;
      total_queries_ += 1;
      Counters().admitted->Increment();
      break;
    case AdmissionDecision::Outcome::kRejected:
      usage.rejected_registrations += 1;
      Counters().rejected->Increment();
      break;
    case AdmissionDecision::Outcome::kShed:
      usage.rejected_registrations += 1;
      Counters().shed->Increment();
      break;
  }
  return decision;
}

void AdmissionController::ReleaseQuery(const std::string& tenant,
                                       std::size_t relation_rows, bool shed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TenantUsage& usage = usage_[tenant];
  usage.queries = usage.queries > 0 ? usage.queries - 1 : 0;
  usage.objects =
      usage.objects > relation_rows ? usage.objects - relation_rows : 0;
  if (shed) usage.shed_queries += 1;
  total_queries_ = total_queries_ > 0 ? total_queries_ - 1 : 0;
}

void AdmissionController::RecordResult(const std::string& tenant,
                                       std::uint64_t spent, bool converged,
                                       bool missed_deadline) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TenantUsage& usage = usage_[tenant];
  usage.work_units += spent;
  usage.results += 1;
  if (!converged) usage.unconverged_results += 1;
  if (missed_deadline) usage.deadline_misses += 1;
}

engine::QuerySchedule AdmissionController::ScheduleFor(
    const std::string& tenant, std::uint64_t tick_budget) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto quota_it = quotas_.find(tenant);
  const TenantQuota& quota =
      quota_it == quotas_.end() ? config_.default_quota : quota_it->second;
  const auto usage_it = usage_.find(tenant);
  const std::size_t live =
      usage_it == usage_.end() ? 0 : usage_it->second.queries;

  engine::QuerySchedule schedule;
  if (quota.reserved()) {
    schedule.reserve = quota.reserve_units / std::max<std::uint64_t>(
                                                static_cast<std::uint64_t>(
                                                    live),
                                                1);
    // Any nonzero deadline beats "no deadline" under EDF; the tick budget
    // is the natural work-clock bound ("finish within this tick").
    schedule.deadline = tick_budget > 0 ? tick_budget : 0;
  }
  return schedule;
}

TenantUsage AdmissionController::UsageFor(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = usage_.find(tenant);
  return it == usage_.end() ? TenantUsage{} : it->second;
}

std::map<std::string, TenantUsage> AdmissionController::AllUsage() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return usage_;
}

std::size_t AdmissionController::total_queries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_queries_;
}

}  // namespace vaolib::server
