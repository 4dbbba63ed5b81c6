// Copyright 2026 The vaolib Authors.
// Multi-tenant admission control for the standing-query server.
//
// Tenants are the isolation unit: each carries a quota (standing queries,
// result objects, and optionally a reserved per-tick work budget), and the
// controller maps the reserve onto the WorkScheduler's QuerySchedule
// parameters so the dispatcher's kDeadline policy enforces isolation at
// execution time: a per-query reserve plus a deadline at the tick budget,
// so reserved tenants run first under EDF and keep guaranteed budget
// headroom no matter how many best-effort queries pile up.
//
// Registration-time decisions distinguish a tenant exceeding its OWN quota
// (kRejected -> a clean ERR, the client must withdraw something first) from
// server-wide overload (kShed -> SHED ... RETRY-AFTER, the client should
// back off and retry). All methods are thread-safe.

#ifndef VAOLIB_SERVER_ADMISSION_H_
#define VAOLIB_SERVER_ADMISSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/result.h"
#include "engine/scheduler.h"

namespace vaolib::server {

/// \brief Per-tenant resource limits and reserve.
struct TenantQuota {
  /// Standing queries this tenant may hold at once.
  std::size_t max_queries = 16;
  /// Result-object ceiling: standing queries x relation rows. Bounds the
  /// per-tick object-creation and refinement footprint a tenant can demand.
  std::size_t max_objects = 1u << 20;
  /// Work units per tick guaranteed to this tenant (0 = best effort).
  /// Reserved tenants map onto kDeadline reserves and run ahead of
  /// best-effort traffic; they are also exempt from overload shedding.
  std::uint64_t reserve_units = 0;

  bool reserved() const { return reserve_units > 0; }
};

/// \brief Live accounting for one tenant.
struct TenantUsage {
  std::size_t queries = 0;  ///< live standing queries
  std::size_t objects = 0;  ///< live queries x relation rows
  std::uint64_t work_units = 0;          ///< cumulative scheduled spend
  std::uint64_t results = 0;             ///< RESULT frames produced
  std::uint64_t unconverged_results = 0; ///< budget ran out first
  std::uint64_t deadline_misses = 0;
  std::uint64_t shed_queries = 0;  ///< standing queries evicted by overload
  std::uint64_t rejected_registrations = 0;
};

/// \brief Server-wide admission limits.
struct AdmissionConfig {
  /// Quota applied to tenants without an explicit SetQuota() entry.
  TenantQuota default_quota;
  /// Standing queries across ALL tenants; registrations beyond it shed.
  std::size_t max_total_queries = 1024;
  /// RETRY-AFTER value (in ticks) attached to shed replies.
  std::uint64_t retry_after_ticks = 2;
};

/// \brief Outcome of one registration attempt.
struct AdmissionDecision {
  enum class Outcome {
    kAdmitted,
    kRejected,  ///< tenant quota exceeded: ERR, withdraw first
    kShed,      ///< server-wide overload: SHED + RETRY-AFTER, back off
  };
  Outcome outcome = Outcome::kAdmitted;
  Status reason;                      ///< set for kRejected / kShed
  std::uint64_t retry_after_ticks = 0;  ///< set for kShed
};

/// \brief Thread-safe tenant bookkeeping + quota -> schedule mapping.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config)
      : config_(std::move(config)) {}

  /// Installs (or replaces) \p tenant's quota. Existing usage is kept.
  void SetQuota(const std::string& tenant, const TenantQuota& quota);
  TenantQuota QuotaFor(const std::string& tenant) const;

  /// Decides one registration of a query over \p relation_rows rows and, on
  /// admission, charges it to the tenant's usage.
  AdmissionDecision AdmitQuery(const std::string& tenant,
                               std::size_t relation_rows);

  /// Returns one admitted query's resources (withdraw, shed, session close).
  void ReleaseQuery(const std::string& tenant, std::size_t relation_rows,
                    bool shed);

  /// Folds one tick result into the tenant's account.
  void RecordResult(const std::string& tenant, std::uint64_t spent,
                    bool converged, bool missed_deadline);

  /// Scheduling parameters for one of \p tenant's queries in a tick whose
  /// scheduler budget is \p tick_budget work units. The tenant's reserve
  /// is split over its live queries; reserved tenants get
  /// deadline = tick_budget so EDF runs them ahead of best-effort tasks.
  engine::QuerySchedule ScheduleFor(const std::string& tenant,
                                    std::uint64_t tick_budget) const;

  TenantUsage UsageFor(const std::string& tenant) const;
  std::map<std::string, TenantUsage> AllUsage() const;
  std::size_t total_queries() const;
  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, TenantQuota> quotas_;
  std::map<std::string, TenantUsage> usage_;
  std::size_t total_queries_ = 0;
};

}  // namespace vaolib::server

#endif  // VAOLIB_SERVER_ADMISSION_H_
