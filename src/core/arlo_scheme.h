// The complete Arlo serving system as a sim::Scheme: polymorphed runtime
// set + Runtime Scheduler (periodic ILP allocation, minimal replacement) +
// Request Scheduler (multi-level queue dispatch) + optional target-tracking
// auto-scaler.  The instance lifecycle, the Eq. 7 guard, autoscaling and the
// replacement rollout are SchemeBase's, shared with the baselines; Arlo adds
// its dispatchers, the allocation solves whose plans it hands to the base's
// rollout, and the allocation history.  The Table-4 ablations (ILB / IG
// dispatching) are selectable so they share every other component with
// Arlo, isolating the dispatcher.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/request_scheduler.h"
#include "core/runtime_scheduler.h"
#include "core/scheme_base.h"
#include "runtime/runtime_set.h"

namespace arlo::core {

/// The fleet knobs (initial_gpus, autoscaler, replace_delay, profiling
/// overhead, max_batch) come from FleetConfig; the SLO is
/// runtime_scheduler.slo.
struct ArloSchemeConfig : FleetConfig {
  RuntimeSchedulerConfig runtime_scheduler;
  RequestSchedulerParams request_scheduler;

  /// Optional per-bin demand (requests per SLO window) used to pre-solve the
  /// initial allocation; empty = bootstrap with everything on the largest
  /// runtime until the first observation period completes.
  std::vector<double> initial_demand;
  /// Explicit initial GPUs-per-runtime (overrides initial_demand; must sum
  /// to initial_gpus).  Used by ablations that pin the deployment.
  std::vector<int> initial_allocation;

  /// Periodic re-allocation on/off (off = the Table-3 "offline" ablations).
  bool enable_reallocation = true;

  /// On an instance failure, pull the next allocation solve forward to the
  /// next tick (out-of-cycle re-balance for the reduced capacity) instead of
  /// waiting out the remainder of the period.  No-op unless
  /// enable_reallocation.
  bool reallocate_on_failure = true;
};

class ArloScheme final : public SchemeBase {
 public:
  /// Dispatch strategy: Arlo's Request Scheduler, or the Table-4 baselines.
  enum class DispatchKind {
    kRequestScheduler,      ///< Algorithm 1 (RS)
    kIntraGroupLoadBalance, ///< ILB: ideal runtime, least-loaded instance
    kInterGroupGreedy,      ///< IG: least-loaded instance across candidates
  };

  ArloScheme(std::shared_ptr<const runtime::RuntimeSet> runtimes,
             ArloSchemeConfig config,
             DispatchKind dispatch = DispatchKind::kRequestScheduler);

  std::string Name() const override;
  void Setup(sim::ClusterOps& cluster) override;
  InstanceId SelectInstance(const Request& request,
                            sim::ClusterOps& cluster) override;
  /// The base's reprovisioning, then (reallocate_on_failure) the next
  /// allocation solve pulled forward to the next tick.
  void OnInstanceFailure(InstanceId instance,
                         sim::ClusterOps& cluster) override;
  /// Eq. 7 guard, one rollout batch, re-allocation, then autoscaling.
  void OnTick(SimTime now, sim::ClusterOps& cluster) override;
  /// Cluster-control-plane apply (POST /realloc): adopts `allocation` as the
  /// new target and rolls it out through the normal replacement batches.
  /// Rejects vectors that do not match the runtime count, do not sum to the
  /// live fleet, break Eq. 7, or arrive while a previous rollout (or any
  /// provisioning launch) is still in flight.  Works even when periodic
  /// local reallocation is disabled — frozen nodes under an external
  /// scheduler is exactly the intended deployment.
  bool ApplyExternalAllocation(const std::vector<int>& allocation,
                               sim::ClusterOps& cluster) override;
  SimDuration TickInterval() const override {
    return std::min(config_.runtime_scheduler.period, Seconds(5.0));
  }
  /// /statusz: current allocation vector + time since the last solve,
  /// per-level queue load, and dispatch-path counters.
  void WriteStatusJson(std::ostream& os, SimTime now) const override;

  /// (time, GPUs per runtime) after every allocation decision — Fig. 12.
  const std::vector<std::pair<SimTime, std::vector<int>>>& AllocationHistory()
      const {
    return allocation_history_;
  }

  /// Dispatch counters for the deep-dive benches.
  struct DispatchStats {
    std::uint64_t total = 0;
    std::uint64_t demoted = 0;
    std::uint64_t fallbacks = 0;
  };
  const DispatchStats& Stats() const { return stats_; }

 private:
  /// initial_allocation, else the exact solve of initial_demand, else
  /// everything on the largest runtime.
  std::vector<int> InitialAllocation() const override;
  void ObserveDispatch(int length) override;
  void MaybeReallocate(SimTime now, sim::ClusterOps& cluster);

  InstanceId SelectIlb(int length) const;
  InstanceId SelectIg(int length) const;

  ArloSchemeConfig config_;
  DispatchKind dispatch_kind_;
  RequestScheduler request_scheduler_;
  RuntimeScheduler runtime_scheduler_;
  SimTime next_period_ = 0;

  std::vector<std::pair<SimTime, std::vector<int>>> allocation_history_;
  DispatchStats stats_;
};

}  // namespace arlo::core
