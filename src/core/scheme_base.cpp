#include "core/scheme_base.h"

#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/json.h"
#include "telemetry/sink.h"

namespace arlo::core {

namespace {

std::vector<runtime::RuntimeProfile> MakeProfiles(
    const runtime::RuntimeSet& set, SimDuration slo, SimDuration overhead,
    int max_batch) {
  std::vector<runtime::RuntimeProfile> profiles;
  profiles.reserve(set.Size());
  for (std::size_t i = 0; i < set.Size(); ++i) {
    profiles.push_back(runtime::ProfileRuntime(
        set.Runtime(static_cast<RuntimeId>(i)), slo,
        static_cast<RuntimeId>(i), overhead, max_batch));
  }
  return profiles;
}

}  // namespace

SchemeBase::SchemeBase(std::shared_ptr<const runtime::RuntimeSet> runtimes,
                       const FleetConfig& fleet, SimDuration slo)
    : runtimes_(std::move(runtimes)),
      fleet_(fleet),
      profiles_(MakeProfiles(*runtimes_, slo, fleet.profiling_overhead,
                             fleet.max_batch)),
      queue_(runtimes_->Size()) {
  ARLO_CHECK(fleet_.initial_gpus >= 1);
  target_gpus_ = fleet_.initial_gpus;
  if (fleet_.enable_autoscaler) autoscaler_.emplace(fleet_.autoscaler, slo);
}

void SchemeBase::Setup(sim::ClusterOps& cluster) {
  Deploy(cluster, InitialAllocation());
}

void SchemeBase::Deploy(sim::ClusterOps& cluster,
                        const std::vector<int>& allocation) {
  ARLO_CHECK(allocation.size() == runtimes_->Size());
  int total = 0;
  for (std::size_t i = 0; i < allocation.size(); ++i) {
    for (int k = 0; k < allocation[i]; ++k) {
      LaunchOne(cluster, static_cast<RuntimeId>(i), 0);
    }
    total += allocation[i];
  }
  ARLO_CHECK(total == fleet_.initial_gpus);
}

void SchemeBase::LaunchOne(sim::ClusterOps& cluster, RuntimeId runtime,
                           SimDuration delay) {
  cluster.LaunchInstance(runtime, runtimes_->RuntimePtr(runtime), delay);
  ++pending_launches_;
}

void SchemeBase::RetireOne(sim::ClusterOps& cluster, InstanceId id) {
  if (!ready_instances_.count(id)) return;
  queue_.RemoveInstance(id);
  ready_instances_.erase(id);
  cluster.RetireInstance(id);
}

std::vector<DeployedInstance> SchemeBase::SnapshotDeployment() const {
  std::vector<DeployedInstance> out;
  out.reserve(ready_instances_.size());
  for (const auto& [id, rt] : ready_instances_) {
    out.push_back(DeployedInstance{id, rt, queue_.Get(id).outstanding});
  }
  return out;
}

void SchemeBase::OnDispatched(const Request& request, InstanceId instance) {
  queue_.OnDispatch(instance);
  ObserveDispatch(request.length);
}

void SchemeBase::OnComplete(const RequestRecord& record,
                            sim::ClusterOps& cluster) {
  queue_.OnComplete(record.instance);
  if (autoscaler_) autoscaler_->OnCompletion(cluster.Now(), record.Latency());
}

void SchemeBase::OnInstanceReady(InstanceId instance, RuntimeId runtime) {
  ARLO_CHECK(pending_launches_ > 0);
  --pending_launches_;
  queue_.AddInstance(instance, runtime,
                     profiles_[runtime].capacity_within_slo);
  ready_instances_[instance] = runtime;
}

void SchemeBase::OnInstanceRetired(InstanceId instance) {
  // Already removed from the queue before RetireInstance was issued.
  ARLO_CHECK(ready_instances_.count(instance) == 0);
}

void SchemeBase::OnInstanceFailure(InstanceId instance,
                                   sim::ClusterOps& cluster) {
  ARLO_CHECK_MSG(ready_instances_.count(instance) > 0,
                 "failure reported for an untracked instance");
  const RuntimeId runtime = ready_instances_[instance];
  queue_.RemoveInstance(instance);
  ready_instances_.erase(instance);
  // A crash is not a scaling decision: the cluster manager reprovisions the
  // worker, which re-loads the same runtime after the usual launch delay.
  LaunchOne(cluster, runtime, fleet_.replace_delay);
}

InstanceId SchemeBase::LeastBusy() const {
  InstanceId victim = kInvalidInstance;
  int victim_load = std::numeric_limits<int>::max();
  for (const auto& [id, rt] : ready_instances_) {
    if (rt == Largest() && queue_.NumInstances(rt) <= 1) continue;
    const int load = queue_.Get(id).outstanding;
    if (load < victim_load) {
      victim_load = load;
      victim = id;
    }
  }
  return victim;
}

void SchemeBase::EnforceEq7(sim::ClusterOps& cluster) {
  if (queue_.NumInstances(Largest()) > 0 || pending_launches_ > 0) return;
  const InstanceId victim = LeastBusy();
  if (victim != kInvalidInstance) {
    RetireOne(cluster, victim);
  } else {
    ++target_gpus_;  // everything died; provision replacement hardware
  }
  LaunchOne(cluster, Largest(), fleet_.replace_delay);
}

void SchemeBase::RunAutoscaler(SimTime now, sim::ClusterOps& cluster) {
  if (!autoscaler_) return;
  const ScaleAction action = autoscaler_->Evaluate(now, target_gpus_);
  if (action == ScaleAction::kOut) {
    // §4: a new worker loads the maximum-length runtime.
    LaunchOne(cluster, Largest(), fleet_.replace_delay);
    ++target_gpus_;
  } else if (action == ScaleAction::kIn) {
    // Release the least busy instance — never the last of the largest
    // runtime (Eq. 7).
    const InstanceId victim = LeastBusy();
    if (victim == kInvalidInstance) return;
    RetireOne(cluster, victim);
    --target_gpus_;
  } else {
    return;
  }
  if (telemetry::TelemetrySink* sink = Telemetry()) {
    sink->RecordAutoscale(now, action == ScaleAction::kOut, target_gpus_);
  }
}

int SchemeBase::Enqueue(ReplacementPlan plan) {
  const int steps = static_cast<int>(plan.TotalReplacements());
  for (auto& batch : plan.batches) {
    pending_batches_.push_back(std::move(batch));
  }
  return steps;
}

void SchemeBase::RollOutNextBatch(sim::ClusterOps& cluster) {
  if (pending_batches_.empty()) return;
  const std::vector<ReplacementStep> batch =
      std::move(pending_batches_.front());
  pending_batches_.pop_front();
  for (const ReplacementStep& step : batch) {
    // The instance may have failed or been scaled in since the plan was made.
    if (!ready_instances_.count(step.instance)) continue;
    if (telemetry::TelemetrySink* sink = Telemetry()) {
      sink->RecordReplacement(cluster.Now(), step.instance, step.to);
    }
    RetireOne(cluster, step.instance);
    LaunchOne(cluster, step.to, fleet_.replace_delay);
  }
}

void SchemeBase::OnTick(SimTime now, sim::ClusterOps& cluster) {
  EnforceEq7(cluster);
  RunAutoscaler(now, cluster);
}

void SchemeBase::WriteFleetJson(json::Writer& w) const {
  w.Field("target_gpus", target_gpus_);
  w.Field("pending_launches", pending_launches_);
  w.Field("ready_instances", ready_instances_.size()).Key("levels");
  w.BeginArray();
  for (std::size_t level = 0; level < queue_.NumLevels(); ++level) {
    std::int64_t outstanding = 0;
    std::int64_t capacity = 0;
    for (const InstanceLoad& load :
         queue_.LevelSnapshot(static_cast<RuntimeId>(level))) {
      outstanding += load.outstanding;
      capacity += load.max_capacity;
    }
    w.BeginObject().Field("level", level);
    w.Field("instances", queue_.NumInstances(static_cast<RuntimeId>(level)));
    w.Field("outstanding", outstanding).Field("capacity", capacity);
    w.EndObject();
  }
  w.EndArray();
}

void SchemeBase::WriteStatusJson(std::ostream& os, SimTime now) const {
  (void)now;
  // Ready-instance count per runtime is the baseline "allocation vector".
  std::vector<int> per_runtime(runtimes_->Size(), 0);
  for (const auto& [id, runtime] : ready_instances_) {
    (void)id;
    ++per_runtime[runtime];
  }
  json::Writer w(os);
  w.BeginObject().Field("name", Name()).Key("allocation").NumberArray(
      per_runtime);
  WriteFleetJson(w);
  w.EndObject();
}

}  // namespace arlo::core
