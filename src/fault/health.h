// Per-instance health tracking: the liveness view a supervisor uses to turn
// a hang (no forward progress while holding work) into a detected failure.
//
// The tracker is observational — it records the timestamps of readiness and
// progress (batch starts, completions) and answers "which tracked instances
// have outstanding work but no progress for longer than the timeout".  What
// to do with a hung instance (kill + requeue) is the caller's decision;
// the executor core both substrates share reaps via its crash path, so
// recovery is identical.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "common/types.h"

namespace arlo::fault {

class HealthTracker {
 public:
  /// `hang_timeout` <= 0 disables FindHung (always empty).
  explicit HealthTracker(SimDuration hang_timeout)
      : hang_timeout_(hang_timeout) {}

  void OnReady(InstanceId id, SimTime now) { last_progress_[id] = now; }

  /// A batch started or completed on `id`.
  void OnProgress(InstanceId id, SimTime now) {
    const auto it = last_progress_.find(id);
    if (it != last_progress_.end()) it->second = now;
  }

  /// The instance crashed, retired, or was reaped — stop tracking it.
  void OnGone(InstanceId id) { last_progress_.erase(id); }

  bool Tracks(InstanceId id) const { return last_progress_.count(id) > 0; }

  /// Last observed progress time; -1 if untracked.
  SimTime LastProgress(InstanceId id) const {
    const auto it = last_progress_.find(id);
    return it == last_progress_.end() ? -1 : it->second;
  }

  /// Tracked instances with outstanding work (per `outstanding_of`) and no
  /// progress for longer than the timeout, in ascending id order
  /// (deterministic reap order).
  std::vector<InstanceId> FindHung(
      SimTime now, const std::function<int(InstanceId)>& outstanding_of) const;

  std::size_t NumTracked() const { return last_progress_.size(); }

 private:
  SimDuration hang_timeout_;
  std::map<InstanceId, SimTime> last_progress_;  // ordered: deterministic scan
};

}  // namespace arlo::fault
