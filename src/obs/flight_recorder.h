// Copyright 2026 The vaolib Authors.
// FlightRecorder: turns the trace rings into post-mortem artifacts. When a
// dump directory is configured (env VAOLIB_TRACE_DUMP or SetDumpDir()) and
// tracing is on, Dump() writes the current ring contents -- the last N
// events per thread -- as a Chrome trace-event JSON file named
// <dir>/flight-<seq>-<reason>.json (sequence-numbered, never timestamped,
// so repeated deterministic runs produce identical file sets).
//
// Wired triggers:
//   * InvariantChecker violations (testing/invariant_checker.cc),
//   * refinement stalls, from the IterationTask settle step: a selection
//     row's stall dumps as "predicate-stall", an aggregate object's as
//     "refinement-stall",
//   * DifferentialRunner failing seeds, which clear the rings and re-run
//     the failing combo first so the dump contains exactly that combo's
//     decision sequence (the replayable artifact trace_test asserts on).

#ifndef VAOLIB_OBS_FLIGHT_RECORDER_H_
#define VAOLIB_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace vaolib::obs {

class FlightRecorder {
 public:
  /// Process-wide dump cap; Dump() refuses past it so stall-happy chaos
  /// runs cannot flood the dump directory.
  static constexpr std::uint64_t kMaxDumps = 256;

  /// The process-wide recorder (dump dir from env VAOLIB_TRACE_DUMP on
  /// first use).
  static FlightRecorder& Global();

  /// Overrides the dump directory; empty disables dumping.
  void SetDumpDir(std::string dir);

  /// True when a dump directory is configured AND tracing is recording
  /// (mode != off); Dump() is a no-op otherwise.
  bool Armed() const;

  /// Writes the current trace snapshot to <dir>/flight-<seq>-<reason>.json
  /// and returns the path, or nullopt when not Armed() or the file cannot
  /// be written. \p reason is sanitized to [A-Za-z0-9_-]; never throws --
  /// dump triggers sit on failure paths that must not fail harder.
  std::optional<std::string> Dump(const std::string& reason);

  /// Dump() gated on Armed(): the one-liner failure paths call.
  void DumpIfArmed(const std::string& reason) {
    if (Armed()) Dump(reason);
  }

  /// Dumps written since process start (including failed attempts' slots).
  std::uint64_t dump_count() const;

 private:
  FlightRecorder();

  mutable std::mutex mutex_;
  std::string dir_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace vaolib::obs

#endif  // VAOLIB_OBS_FLIGHT_RECORDER_H_
