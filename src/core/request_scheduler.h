// Arlo's Request Scheduler (§3.4, Algorithm 1).
//
// On each arrival it walks the multi-level queue over the request's
// candidate runtimes in ascending max_length, comparing the head instance's
// congestion P = outstanding/M against a threshold λ that decays by α per
// level — so demotion to a larger (slower) runtime happens only when the
// ideal level is congested, and is increasingly reluctant the further the
// demotion (conservative demotion, protecting longer requests).  At most L
// levels are peeked; if none qualifies, the request falls back to the head
// of its top (ideal) candidate.
#pragma once

#include <optional>

#include "core/multi_level_queue.h"
#include "runtime/runtime_set.h"

namespace arlo::core {

struct RequestSchedulerParams {
  double lambda = 0.85;  ///< initial congestion threshold (§5 setting)
  double alpha = 0.9;    ///< threshold decay per demotion level
  int max_peek = 6;      ///< L: maximum candidate runtimes examined
};

/// The dispatch decision and why it was made (benches inspect the level).
struct DispatchDecision {
  InstanceId instance = kInvalidInstance;
  RuntimeId runtime = kInvalidRuntime;
  int levels_peeked = 0;
  bool fell_back = false;  ///< Algorithm 1 lines 18-19 path
  bool demoted = false;    ///< served by a non-ideal (larger) runtime
};

class RequestScheduler {
 public:
  RequestScheduler(const runtime::RuntimeSet* runtimes,
                   const MultiLevelQueue* queue,
                   RequestSchedulerParams params = {});

  /// Algorithm 1.  Returns nullopt when no candidate level currently has a
  /// dispatchable instance (e.g. mid-replacement) — the caller buffers.
  /// Does NOT update queue load; the caller confirms with queue->OnDispatch
  /// once the engine accepts the dispatch.
  std::optional<DispatchDecision> Select(int request_length) const;

  const RequestSchedulerParams& Params() const { return params_; }

 private:
  const runtime::RuntimeSet* runtimes_;
  const MultiLevelQueue* queue_;
  RequestSchedulerParams params_;
};

}  // namespace arlo::core
