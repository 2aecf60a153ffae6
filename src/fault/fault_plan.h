// FaultPlan: a deterministic, declarative description of the faults a run
// injects — which instances crash, hang, or slow down at which simulated
// times, plus stochastic-but-seeded transient dispatch errors and random
// background crashes.  One plan drives both execution substrates: the
// discrete-event simulator consumes it as scheduled events (byte-identical
// traces for a fixed plan + seed), and the threaded testbed runs the same
// events on its executor thread against the wall clock.
//
// Text DSL (one directive per line; '#' starts a comment; times/durations
// are seconds; grammar documented in docs/FAULTS.md):
//
//   seed 42                          # RNG stream for drops / mtbf / jitter
//   crash t=5.0 instance=3           # instance vanishes abruptly
//   hang  t=8.0 instance=1 dur=2.0   # freezes, then resumes (or is killed
//                                    #   by hang detection first)
//   slow  t=10 instance=2 dur=5 factor=2.5   # service times x2.5
//   drop  p=0.01                     # transient dispatch-error probability
//   mtbf  5.0                        # random crashes, exponential gaps
//
// Parse() and ToString() round-trip: ToString() emits the canonical sorted
// form, which makes plans golden-testable and diffable.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace arlo::fault {

enum class FaultKind {
  kCrash,     ///< abrupt instance loss; queued + in-flight work is requeued
  kHang,      ///< instance freezes for `duration`, losing nothing
  kSlowdown,  ///< service times multiplied by `factor` for `duration`
};

/// Returns the DSL keyword for a kind ("crash" / "hang" / "slow").
const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  SimTime at = 0;               ///< injection time
  InstanceId instance = 0;      ///< target (a no-op if not alive then)
  SimDuration duration = 0;     ///< hang/slowdown window
  double factor = 1.0;          ///< slowdown multiplier (> 1 is slower)
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Probability that any single dispatch attempt fails transiently and is
  /// retried with backoff (see fault::RetryPolicy).  0 disables.
  double dispatch_error_prob = 0.0;
  /// Mean seconds between random background crashes (exponential
  /// inter-failure gaps, cluster-wide).  0 disables.
  double random_crash_mtbf_s = 0.0;
  /// Seed for every stochastic element of the plan (drop draws, random
  /// crash gaps and victims, retry jitter).  The same plan + seed must
  /// reproduce the same run exactly.
  std::uint64_t seed = 1;

  /// Fluent builders for programmatic plans (tests, benches).
  FaultPlan& CrashAt(SimTime t, InstanceId instance);
  FaultPlan& HangAt(SimTime t, InstanceId instance, SimDuration duration);
  FaultPlan& SlowdownAt(SimTime t, InstanceId instance, SimDuration duration,
                        double factor);

  bool Empty() const {
    return events.empty() && dispatch_error_prob <= 0.0 &&
           random_crash_mtbf_s <= 0.0;
  }

  /// Events ordered by (time, insertion order) — the injection order both
  /// substrates use.
  std::vector<FaultEvent> Sorted() const;

  /// Canonical DSL text (header directives, then events sorted by time).
  std::string ToString() const;

  /// Parses DSL text.  Throws std::invalid_argument naming the offending
  /// line on malformed input.
  static FaultPlan Parse(const std::string& text);

  /// Parse() over a file's contents.  Throws std::runtime_error if the file
  /// cannot be read.
  static FaultPlan ParseFile(const std::string& path);
};

}  // namespace arlo::fault
