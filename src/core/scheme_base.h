// The fleet layer every serving scheme shares — Arlo and its ILB/IG
// ablations as much as the ST, DT and INFaaS baselines (§5 Compared
// schemes: "ST and DT employ the headroom-based auto-scaling heuristics
// from INFaaS"), so the comparison runs one copy of the cluster-management
// code.  The base owns the instance lifecycle (launch, ready, retire,
// failure and its reprovisioning), the multi-level queue's load view, the
// Eq. 7 availability guard, the target-tracking auto-scaler, the batched
// replacement rollout and the fleet part of /statusz.  A subclass picks the
// initial allocation, dispatches requests, decides re-allocations (handing
// the plans to Enqueue) and composes its OnTick from the shared steps.
#pragma once

#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/json.h"
#include "core/autoscaler.h"
#include "core/multi_level_queue.h"
#include "core/replacement.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"
#include "sim/scheme.h"

namespace arlo::core {

/// Lifecycle knobs common to every scheme's config.
struct FleetConfig {
  int initial_gpus = 10;
  bool enable_autoscaler = false;
  AutoscalerConfig autoscaler;
  /// Online instance replacement / launch delay (§4: ~1 s).
  SimDuration replace_delay = Seconds(1.0);
  /// Fixed per-request serving overhead folded into the offline profiles
  /// (network + host-device copies; §5.2.1 calibrates 0.8 ms).
  SimDuration profiling_overhead = Millis(0.8);
  /// Batch size the executor will form (EngineConfig/TestbedConfig
  /// max_batch): capacities M_i are profiled at the effective per-request
  /// batched service time.  1 = batch-1 profiles.
  int max_batch = 1;
};

class SchemeBase : public sim::Scheme {
 public:
  /// Launches InitialAllocation().
  void Setup(sim::ClusterOps& cluster) override;
  void OnDispatched(const Request& request, InstanceId instance) override;
  void OnComplete(const RequestRecord& record,
                  sim::ClusterOps& cluster) override;
  void OnInstanceReady(InstanceId instance, RuntimeId runtime) override;
  void OnInstanceRetired(InstanceId instance) override;
  /// Drops the instance and reprovisions it with the same runtime.
  void OnInstanceFailure(InstanceId instance,
                         sim::ClusterOps& cluster) override;
  /// The baselines' tick: the Eq. 7 guard, then autoscaling.
  void OnTick(SimTime now, sim::ClusterOps& cluster) override;
  /// /statusz: ready instances per runtime, then WriteFleetJson.
  void WriteStatusJson(std::ostream& os, SimTime now) const override;

  const MultiLevelQueue& Queue() const { return queue_; }

 protected:
  /// `slo` sets the profiled capacities and the auto-scaler's target.
  SchemeBase(std::shared_ptr<const runtime::RuntimeSet> runtimes,
             const FleetConfig& fleet, SimDuration slo);

  /// Initial GPUs-per-runtime split; must sum to initial_gpus.
  virtual std::vector<int> InitialAllocation() const = 0;

  /// A request length was dispatched (for demand tracking in subclasses).
  virtual void ObserveDispatch(int length) { (void)length; }

  /// Launches `allocation` at ready delay 0.
  void Deploy(sim::ClusterOps& cluster, const std::vector<int>& allocation);
  void LaunchOne(sim::ClusterOps& cluster, RuntimeId runtime,
                 SimDuration delay);
  /// Removes from the queue and retires; no-op if already gone.
  void RetireOne(sim::ClusterOps& cluster, InstanceId id);
  std::vector<DeployedInstance> SnapshotDeployment() const;

  /// Eq. 7 availability guard: the largest (universal) runtime must keep an
  /// instance, ready or provisioning, or the longest requests starve until
  /// the next re-allocation.  Failures can break this between periods; it
  /// is repaired at once by converting the least busy instance, and only
  /// when nothing is ready by provisioning replacement hardware.
  void EnforceEq7(sim::ClusterOps& cluster);
  /// One auto-scaler evaluation; a no-op when the auto-scaler is off.
  void RunAutoscaler(SimTime now, sim::ClusterOps& cluster);

  /// Queues a replacement plan's batches behind any still rolling out and
  /// returns its step count.
  int Enqueue(ReplacementPlan plan);
  /// Executes the oldest queued batch, if any (§4: small batches, one per
  /// tick, so uninvolved instances are not pressured): each step still
  /// ready is recorded, retired and relaunched with its new runtime.
  void RollOutNextBatch(sim::ClusterOps& cluster);
  bool RollingOut() const { return !pending_batches_.empty(); }

  /// The shared /statusz members of the open scheme object: target_gpus,
  /// pending_launches, ready_instances and the per-level `levels` array.
  void WriteFleetJson(json::Writer& w) const;

  const runtime::RuntimeSet& Runtimes() const { return *runtimes_; }
  const std::vector<runtime::RuntimeProfile>& Profiles() const {
    return profiles_;
  }
  const FleetConfig& Fleet() const { return fleet_; }
  int PendingLaunches() const { return pending_launches_; }
  const std::map<InstanceId, RuntimeId>& ReadyInstances() const {
    return ready_instances_;
  }

 private:
  RuntimeId Largest() const {
    return static_cast<RuntimeId>(runtimes_->Size() - 1);
  }
  /// The least busy ready instance, sparing the last one of the largest
  /// runtime; kInvalidInstance when there is none.
  InstanceId LeastBusy() const;

  std::shared_ptr<const runtime::RuntimeSet> runtimes_;
  FleetConfig fleet_;
  std::vector<runtime::RuntimeProfile> profiles_;
  MultiLevelQueue queue_;
  std::optional<TargetTrackingAutoscaler> autoscaler_;
  std::map<InstanceId, RuntimeId> ready_instances_;
  int pending_launches_ = 0;
  int target_gpus_ = 0;
  std::deque<std::vector<ReplacementStep>> pending_batches_;
};

}  // namespace arlo::core
