// Copyright 2026 The vaolib Authors.
// PdeProfileCache: reuse of rate-independent PDE solves across ticks.
//
// A finite-difference solve of the bond model builds its whole t = 0
// profile from the bond alone; the queried rate only picks the point the
// profile is interpolated at (numeric::InterpolateProfile). A standing
// query re-prices the same bonds every tick at a new rate, so nearly every
// (bond, grid) solve repeats one an earlier tick already paid for. Paper
// Section 3.1 notes that function caching composes with VAOs; this cache is
// that composition one level below the bounds: it stores profiles, keyed by
// a problem identity the function supplies plus the grid, and a result
// object that finds its next profile here interpolates it instead of
// marching the mesh. Values are bit-identical to a solve.
//
// Ownership and scope. A cache is owned by whoever serves the ticks (one
// per server::Dispatcher) and is made active on the calling thread with a
// Scope for the duration of a tick. PdeResultObject::Create captures the
// active cache, and only when its function passed a non-empty problem key.
// Code that opens no scope (the library executors, the paper benches) never
// sees a cache, so its work is unchanged. vao::InvokeAll and vao::StepAll
// carry the caller's active cache into their pool workers.
//
// Pricing. Reading a cached profile charges kGetState x_intervals + 1 units
// (the profile load) instead of kExec MeshEntries(), and the object's
// est_cost() quotes whichever of the two its next iterate will pay.
//
// Installments. A solve dearer than any one tick's budget would never be
// started under a priced budget (engine::WorkScheduler), so its grid would
// stay out of reach for good. A march can instead be paid for in parts:
// its owner may Suspend() it between time steps (numeric::PdeMarch), and
// whoever acquires the key next resumes it where it stopped. Until it
// finishes, the key quotes only its remaining steps (StepsLeft()).
//
// Concurrency. One mutex guards the store. A key is solved at most once at
// a time (single flight): the first thread to miss it owns the solve, and
// every other thread asking for the key waits for the published profile and
// reads it as a hit. Work totals are therefore independent of the thread
// count, as long as nothing is evicted mid-tick.
//
// Memory. Ready profiles are evicted least-recently-used once their bytes
// exceed kCapacityBytes; entries being solved or suspended are never
// evicted and not counted (at most one march per key). Interned
// problem keys (a few doubles per distinct problem) are kept for the
// cache's lifetime.

#ifndef VAOLIB_VAO_PDE_PROFILE_CACHE_H_
#define VAOLIB_VAO_PDE_PROFILE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "numeric/pde_solver.h"

namespace vaolib::vao {

/// \brief Byte-capped LRU store of t = 0 PDE profiles, shared by the result
/// objects created while it is active; it must outlive them. Thread-safe.
class PdeProfileCache {
 public:
  /// Profile bytes kept before LRU eviction. A serving working set (one
  /// profile per distinct problem and refinement grid) is a few hundred
  /// KiB for a few dozen bonds.
  static constexpr std::size_t kCapacityBytes = std::size_t{8} << 20;

  using Profile = std::shared_ptr<const std::vector<double>>;

  PdeProfileCache() = default;
  ~PdeProfileCache();
  PdeProfileCache(const PdeProfileCache&) = delete;
  PdeProfileCache& operator=(const PdeProfileCache&) = delete;

  /// \brief Makes \p cache the calling thread's active cache until the scope
  /// ends, then restores the previous one. A null \p cache deactivates.
  class Scope {
   public:
    explicit Scope(PdeProfileCache* cache);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PdeProfileCache* previous_;
  };

  /// The calling thread's active cache, or null outside any Scope.
  static PdeProfileCache* Active();

  /// Small dense id of \p problem_key (the same key always gets the same
  /// id). The key must determine the problem's coefficients and domain.
  std::uint64_t Intern(const std::vector<double>& problem_key);

  /// Time steps still to march before the profile of (\p id, \p grid) is
  /// ready: 0 when it is stored, what a suspended march has left, and the
  /// grid's t_steps otherwise. Does not refresh the LRU position.
  int StepsLeft(std::uint64_t id, const numeric::PdeGrid& grid) const;

  /// \brief Outcome of Acquire().
  struct Lookup {
    /// The stored profile (a hit), or null.
    Profile profile;
    /// True when the caller now owns the key's solve: it must Publish(),
    /// Suspend() or Abandon() it, and other threads asking for the key
    /// wait.
    bool owner = false;
    /// The owner's starting point: a suspended march to resume, or a
    /// fresh one.
    numeric::PdeMarch march;
  };

  /// Looks up (\p id, \p grid). A ready profile is a hit. A miss makes the
  /// caller the key's owner, handing it any suspended march. A key another
  /// thread is solving is waited for when \p wait is set (and then read as
  /// a hit, or owned if that solve was suspended or abandoned); without
  /// \p wait it comes back as neither hit nor owner.
  Lookup Acquire(std::uint64_t id, const numeric::PdeGrid& grid,
                 bool wait = true);

  /// Stores the owner's solved profile and wakes its waiters.
  void Publish(std::uint64_t id, const numeric::PdeGrid& grid,
               Profile profile);

  /// Stores the owner's unfinished \p march and releases the key; the next
  /// Acquire() resumes it.
  void Suspend(std::uint64_t id, const numeric::PdeGrid& grid,
               numeric::PdeMarch march);

  /// Gives up an owned solve (it failed), dropping any march; a waiter
  /// takes it over from the start.
  void Abandon(std::uint64_t id, const numeric::PdeGrid& grid);

  /// \name Counters, exact once concurrent callers have quiesced.
  /// @{
  std::size_t entries() const;
  std::size_t bytes() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  /// @}

 private:
  using Key = std::tuple<std::uint64_t, int, int>;  // id, nx, nt
  using LruList = std::list<Key>;
  struct Slot {
    Profile profile;  ///< null until published
    bool owned = false;      ///< a caller is solving it (profile null)
    numeric::PdeMarch march;  ///< a suspended march (profile null, unowned)
    LruList::iterator lru_position;
  };

  static Key KeyOf(std::uint64_t id, const numeric::PdeGrid& grid) {
    return {id, grid.x_intervals, grid.t_steps};
  }
  /// Evicts LRU ready entries until bytes_ fits the cap. Needs mutex_.
  void EvictLocked();

  mutable std::mutex mutex_;
  std::condition_variable published_;
  std::map<std::vector<double>, std::uint64_t> ids_;
  std::map<Key, Slot> slots_;
  LruList lru_;  ///< ready entries only; front = most recent
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace vaolib::vao

#endif  // VAOLIB_VAO_PDE_PROFILE_CACHE_H_
