// Copyright 2026 The vaolib Authors.
// Dispatcher: the standing-query set and its tick loop.
//
// Sessions (server/server.h) register and withdraw queries; the dispatcher
// groups them by shared (function, argument-binding) signature -- the
// sharing precondition of MultiQueryExecutor -- and on every stream tick
// drives each group through scheduled execution with a per-tick work
// budget. Results fan back out as protocol frames addressed to the owning
// sessions.
//
// Overload degrades in two sound stages rather than failing:
//   1. Budget exhaustion: the scheduler stops granting work and every
//      unfinished query still answers with a sound partial [L,H] interval,
//      delivered with converged=0 (the paper's budget-exhaustion path).
//   2. Shedding: a best-effort query that stayed unconverged for
//      `shed_after_misses` consecutive ticks is evicted -- its owner gets a
//      SHED frame with RETRY-AFTER -- so a persistently oversubscribed
//      server returns to a query set it can serve. Reserved tenants are
//      never shed; their admission reserves guarantee them budget first.

#ifndef VAOLIB_SERVER_DISPATCHER_H_
#define VAOLIB_SERVER_DISPATCHER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/multi_query.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/sql_parser.h"
#include "obs/health.h"
#include "server/admission.h"
#include "vao/pde_profile_cache.h"

namespace vaolib::server {

/// \brief Runtime health plane configuration (obs/health.h). Disabled by
/// default for library embedders; the serving binary turns it on. One
/// health-enabled dispatcher per process is the supported shape (the plane
/// reads and writes the process-global metrics registry).
struct HealthConfig {
  bool enabled = false;
  /// Closed metric epochs retained by the windowed view.
  std::size_t window_count = 64;
  /// Dispatcher ticks per epoch: every Nth Tick() closes an epoch and
  /// re-evaluates the SLO monitors.
  std::size_t ticks_per_epoch = 1;
  /// Fast/slow burn-rate windows, in epochs, for the default SLO set.
  std::size_t fast_epochs = 6;
  std::size_t slow_epochs = 36;
  /// Objectives to monitor; empty installs the default server set
  /// (deadline-miss rate, shed rate, unconverged rate, p99 tick work).
  std::vector<obs::SloSpec> slos;
};

/// \brief Dispatcher-wide execution parameters.
struct DispatcherConfig {
  /// Scheduler work-unit budget for one tick, split over query groups
  /// proportional to their query counts. 0 = unlimited (converge-all).
  std::uint64_t tick_budget = 0;
  /// Threads for shared object creation / row-parallel phases.
  int threads = 1;
  /// Evict a best-effort standing query after this many CONSECUTIVE
  /// unconverged ticks (0 disables eviction). Reserved tenants are exempt.
  int shed_after_misses = 3;
  /// Reuse rate-independent PDE profiles across ticks: every Tick() runs
  /// with this dispatcher's vao::PdeProfileCache active, so a bond model
  /// re-priced at a new rate reads the grids an earlier tick solved.
  bool reuse_pde_profiles = true;
  AdmissionConfig admission;
  HealthConfig health;
};

/// \brief The default serving objectives, over \p health's fast/slow
/// windows: deadline-miss rate <= 1%, shed rate <= 1%, unconverged rate
/// <= 5% of results, and (when \p tick_budget > 0) p99 tick work within
/// the budget. Exposed so tools and benches can start from the defaults
/// and tighten.
std::vector<obs::SloSpec> DefaultServerSlos(const HealthConfig& health,
                                            std::uint64_t tick_budget);

/// \brief One outbound protocol payload addressed to a session.
struct Delivery {
  std::uint64_t session = 0;
  std::string payload;
};

/// \brief Account of one Tick() call.
struct TickSummary {
  std::uint64_t seq = 0;
  std::size_t queries = 0;    ///< standing queries evaluated
  std::size_t converged = 0;  ///< finished within the budget
  std::size_t shed = 0;       ///< evicted this tick
  std::uint64_t work_units = 0;
  double wall_seconds = 0.0;
};

/// \brief Owns the standing-query set and executes stream ticks. Not
/// thread-safe: one thread (the server loop) drives it.
class Dispatcher {
 public:
  /// \p relation and \p registry are borrowed and must outlive the
  /// dispatcher.
  Dispatcher(const engine::Relation* relation, engine::Schema stream_schema,
             const engine::FunctionRegistry* registry,
             DispatcherConfig config);

  /// Parses wire query text against this dispatcher's schemas/registry.
  Result<engine::Query> ParseSql(const std::string& sql) const;

  /// Registers a standing query owned by (\p session, \p query_id). The
  /// admission decision is returned verbatim; only kAdmitted registers.
  /// \p want_reports subscribes the owner to REPORT frames for this query.
  AdmissionDecision Register(std::uint64_t session, const std::string& tenant,
                             const std::string& query_id,
                             const engine::Query& query, bool want_reports);

  /// Withdraws one standing query (NotFound if absent).
  Status Withdraw(std::uint64_t session, const std::string& query_id);

  /// Withdraws every query a closing session still holds.
  void WithdrawSession(std::uint64_t session);

  /// Evaluates every standing query for \p stream_tuple; RESULT / REPORT /
  /// SHED frames are appended to \p deliveries. Succeeds with zero queries
  /// (an empty tick still advances the sequence number). With
  /// config().reuse_pde_profiles the tick runs with profile_cache() active
  /// on the calling thread.
  Result<TickSummary> Tick(const engine::Tuple& stream_tuple,
                           std::vector<Delivery>* deliveries);

  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  const DispatcherConfig& config() const { return config_; }
  const engine::Schema& stream_schema() const { return stream_schema_; }

  std::size_t query_count() const { return standing_.size(); }
  std::uint64_t ticks() const { return tick_seq_; }
  std::uint64_t total_work_units() const { return total_work_units_; }
  std::uint64_t total_shed() const { return total_shed_; }

  /// This dispatcher's PDE profile cache (fresh per dispatcher; used only
  /// with config().reuse_pde_profiles).
  const vao::PdeProfileCache& profile_cache() const { return *profile_cache_; }

  /// \name Health plane (config().health.enabled).
  /// @{
  bool health_enabled() const { return health_monitor_ != nullptr; }
  /// kHealthy when the plane is disabled or no epoch has closed yet.
  obs::HealthState health_state() const;
  const obs::SloMonitor* health_monitor() const {
    return health_monitor_.get();
  }
  /// Windows only the series the SLOs read (obs::SeriesReadBy).
  const obs::WindowedView* health_view() const { return health_view_.get(); }

  /// INSPECT payload JSON (see protocol.h for the reply grammar). All three
  /// answer FailedPrecondition when the plane is disabled; the query/tenant
  /// forms answer NotFound for unknown ids.
  Result<std::string> InspectServer() const;
  Result<std::string> InspectQuery(std::uint64_t session,
                                   const std::string& query_id) const;
  Result<std::string> InspectTenant(const std::string& tenant) const;
  /// @}

 private:
  struct StandingQuery {
    std::string tenant;
    /// The group key, computed once at Register(). The query's plan lives
    /// in that group's executor.
    std::string group;
    bool want_reports = false;
    int misses = 0;  ///< consecutive unconverged ticks
    /// Health plane: the query's progress samples, from its first tick on
    /// (empty until then, and always with the plane disabled).
    std::optional<obs::ProgressRing> progress;
  };
  /// (session, query id) -> standing query; map order makes group member
  /// order (and thus scheduling order) deterministic.
  using QueryKey = std::pair<std::uint64_t, std::string>;
  using StandingMap = std::map<QueryKey, StandingQuery>;
  using Standing = StandingMap::value_type;

  struct Group {
    /// Key-ordered, parallel to the executor's queries; map nodes are stable.
    std::vector<Standing*> members;
    std::unique_ptr<engine::MultiQueryExecutor> executor;
  };

  /// \p standing's position in its group's member list.
  static std::size_t MemberIndex(const Group& group, const Standing& standing);

  /// The one way a standing query leaves (WITHDRAW, session close, SHED):
  /// out of admission, out of its group, and an empty group is erased.
  void Drop(StandingMap::iterator it, bool shed);

  const engine::Relation* relation_;
  engine::Schema stream_schema_;
  const engine::FunctionRegistry* registry_;
  DispatcherConfig config_;
  AdmissionController admission_;

  /// Renders one query's progress object into \p os (InspectQuery /
  /// InspectTenant share it).
  void RenderQueryProgress(const Standing& standing, std::ostream& os) const;

  StandingMap standing_;
  /// Group key -> group, edited in place as queries come and go.
  std::map<std::string, Group> groups_;

  std::uint64_t tick_seq_ = 0;
  std::uint64_t total_work_units_ = 0;
  std::uint64_t total_shed_ = 0;

  std::unique_ptr<vao::PdeProfileCache> profile_cache_ =
      std::make_unique<vao::PdeProfileCache>();

  /// Health plane (null when config_.health.enabled is false). The view
  /// snapshots the SLOs' series of the global registry once per
  /// ticks_per_epoch ticks; progress rings live and die with their
  /// standing query.
  std::unique_ptr<obs::WindowedView> health_view_;
  std::unique_ptr<obs::SloMonitor> health_monitor_;
};

}  // namespace vaolib::server

#endif  // VAOLIB_SERVER_DISPATCHER_H_
