#include "core/arlo_scheme.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/json.h"
#include "telemetry/sink.h"

namespace arlo::core {

ArloScheme::ArloScheme(std::shared_ptr<const runtime::RuntimeSet> runtimes,
                       ArloSchemeConfig config, DispatchKind dispatch)
    : SchemeBase(std::move(runtimes), config, config.runtime_scheduler.slo),
      config_(std::move(config)),
      dispatch_kind_(dispatch),
      request_scheduler_(&Runtimes(), &Queue(), config_.request_scheduler),
      runtime_scheduler_(&Runtimes(), Profiles(), config_.runtime_scheduler) {}

std::string ArloScheme::Name() const {
  switch (dispatch_kind_) {
    case DispatchKind::kRequestScheduler:
      return "arlo";
    case DispatchKind::kIntraGroupLoadBalance:
      return "arlo-ilb";
    case DispatchKind::kInterGroupGreedy:
      return "arlo-ig";
  }
  return "arlo";
}

std::vector<int> ArloScheme::InitialAllocation() const {
  if (!config_.initial_allocation.empty()) {
    ARLO_CHECK(config_.initial_allocation.size() == Runtimes().Size());
    int total = 0;
    for (int v : config_.initial_allocation) {
      ARLO_CHECK(v >= 0);
      total += v;
    }
    ARLO_CHECK_MSG(total == config_.initial_gpus,
                   "initial_allocation must sum to initial_gpus");
    return config_.initial_allocation;
  }
  if (!config_.initial_demand.empty()) {
    ARLO_CHECK(config_.initial_demand.size() == Runtimes().Size());
    solver::AllocationProblem problem;
    problem.gpus = config_.initial_gpus;
    problem.demand = config_.initial_demand;
    problem.profiles = Profiles();
    solver::AllocationSolveOptions options;
    options.max_nodes = config_.runtime_scheduler.solver_max_nodes;
    return solver::SolveAllocationExact(problem, options).gpus_per_runtime;
  }
  std::vector<int> allocation(Runtimes().Size(), 0);
  allocation.back() = config_.initial_gpus;
  return allocation;
}

void ArloScheme::Setup(sim::ClusterOps& cluster) {
  std::vector<int> allocation = InitialAllocation();
  Deploy(cluster, allocation);
  allocation_history_.emplace_back(cluster.Now(), std::move(allocation));
  next_period_ = cluster.Now() + config_.runtime_scheduler.period;
}

InstanceId ArloScheme::SelectIlb(int length) const {
  // Ideal runtime, least-loaded instance; if the ideal level is empty the
  // request moves up only as far as the first level that has any instance.
  for (const RuntimeId level : Runtimes().CandidatesFor(length)) {
    const auto head = Queue().Head(level);
    if (head) return head->id;
  }
  return kInvalidInstance;
}

InstanceId ArloScheme::SelectIg(int length) const {
  // Globally least outstanding across all candidate levels' heads.
  InstanceId best = kInvalidInstance;
  int best_load = std::numeric_limits<int>::max();
  for (const RuntimeId level : Runtimes().CandidatesFor(length)) {
    const auto head = Queue().Head(level);
    if (head && head->outstanding < best_load) {
      best_load = head->outstanding;
      best = head->id;
    }
  }
  return best;
}

InstanceId ArloScheme::SelectInstance(const Request& request,
                                      sim::ClusterOps& cluster) {
  telemetry::TelemetrySink* sink = Telemetry();
  // The dispatch-cost clock (Fig. 9's quantity) is wall time, recorded to
  // metrics only — never the trace — so seeded sim traces stay identical.
  const auto wall_start = sink ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  InstanceId picked = kInvalidInstance;
  switch (dispatch_kind_) {
    case DispatchKind::kRequestScheduler: {
      const auto decision = request_scheduler_.Select(request.length);
      if (decision) {
        ++stats_.total;
        if (decision->demoted) ++stats_.demoted;
        if (decision->fell_back) ++stats_.fallbacks;
        if (sink) {
          if (decision->demoted) {
            sink->RecordDemotion(
                request, cluster.Now(),
                static_cast<int>(Runtimes().IdealRuntimeFor(request.length)),
                static_cast<int>(decision->runtime));
          }
          if (decision->fell_back) {
            sink->RecordFallback(request, cluster.Now());
          }
        }
        picked = decision->instance;
      }
      break;
    }
    case DispatchKind::kIntraGroupLoadBalance:
      ++stats_.total;
      picked = SelectIlb(request.length);
      break;
    case DispatchKind::kInterGroupGreedy:
      ++stats_.total;
      picked = SelectIg(request.length);
      break;
  }
  if (sink) {
    sink->RecordDispatchCost(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - wall_start)
                                 .count());
  }
  return picked;
}

void ArloScheme::ObserveDispatch(int length) {
  runtime_scheduler_.ObserveRequest(length);
}

void ArloScheme::OnInstanceFailure(InstanceId instance,
                                   sim::ClusterOps& cluster) {
  SchemeBase::OnInstanceFailure(instance, cluster);
  // Graceful degradation: while the replacement provisions, the surviving
  // fleet is one GPU short — pull the next allocation solve forward so the
  // runtime mix is re-balanced for the reduced capacity at the next tick
  // instead of up to a full period later.
  if (config_.reallocate_on_failure && config_.enable_reallocation) {
    next_period_ = cluster.Now();
  }
}

void ArloScheme::MaybeReallocate(SimTime now, sim::ClusterOps& cluster) {
  if (now < next_period_) return;
  next_period_ = now + config_.runtime_scheduler.period;
  runtime_scheduler_.RollPeriod();
  if (!config_.enable_reallocation) return;
  // Defer only while a previous replacement plan is still rolling out;
  // pending scale-out launches are additive and do not conflict.
  if (RollingOut() || ReadyInstances().empty()) return;

  const int gpus = static_cast<int>(ReadyInstances().size());
  const auto solve_start = std::chrono::steady_clock::now();
  solver::AllocationResult allocation;
  if (config_.runtime_scheduler.max_replacement_moves > 0) {
    std::vector<int> deployed(Runtimes().Size(), 0);
    for (const auto& [id, rt] : ReadyInstances()) ++deployed[rt];
    allocation =
        runtime_scheduler_.ComputeAllocationIncremental(gpus, deployed);
  } else {
    allocation = runtime_scheduler_.ComputeAllocation(gpus);
  }
  const int moves =
      Enqueue(runtime_scheduler_.PlanFor(SnapshotDeployment(), allocation));
  if (telemetry::TelemetrySink* sink = Telemetry()) {
    const auto solve_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - solve_start)
                              .count();
    sink->RecordAllocationSolve(now, solve_ns, gpus, moves);
  }
  allocation_history_.emplace_back(now, allocation.gpus_per_runtime);
  // Begin rolling out immediately; remaining batches drain one per tick.
  RollOutNextBatch(cluster);
}

bool ArloScheme::ApplyExternalAllocation(const std::vector<int>& allocation,
                                         sim::ClusterOps& cluster) {
  if (allocation.size() != Runtimes().Size()) return false;
  int total = 0;
  for (int v : allocation) {
    if (v < 0) return false;
    total += v;
  }
  if (allocation.back() < 1) return false;  // Eq. 7
  // The target must cover exactly the ready fleet, with no rollout or
  // provisioning launch in flight: replacement conserves instances, and a
  // mid-rollout apply would double-move workers.  The controller sees the
  // same fleet through /statusz, so a mismatch means its scrape is stale —
  // reject and let it re-plan from fresh state.
  if (total != static_cast<int>(ReadyInstances().size())) return false;
  if (RollingOut() || PendingLaunches() > 0) return false;

  solver::AllocationResult target;
  target.feasible = true;
  target.gpus_per_runtime = allocation;
  const int moves =
      Enqueue(runtime_scheduler_.PlanFor(SnapshotDeployment(), target));
  allocation_history_.emplace_back(cluster.Now(), allocation);
  // Push the local solve out a full period so a locally-enabled scheduler
  // does not immediately fight the external controller's decision.
  next_period_ = cluster.Now() + config_.runtime_scheduler.period;
  if (telemetry::TelemetrySink* sink = Telemetry()) {
    sink->RecordAllocationSolve(cluster.Now(), /*solve_ns=*/0, total, moves);
  }
  RollOutNextBatch(cluster);
  return true;
}

void ArloScheme::OnTick(SimTime now, sim::ClusterOps& cluster) {
  EnforceEq7(cluster);
  // At most one replacement batch per tick (§4).
  RollOutNextBatch(cluster);
  // Re-allocation before autoscaling: the allocation fixes *distribution*
  // mismatch, which scaling out more max-length workers cannot.
  MaybeReallocate(now, cluster);
  RunAutoscaler(now, cluster);
}

void ArloScheme::WriteStatusJson(std::ostream& os, SimTime now) const {
  json::Writer w(os);
  w.BeginObject().Field("name", Name()).Key("allocation");
  if (!allocation_history_.empty()) {
    const auto& [when, alloc] = allocation_history_.back();
    w.NumberArray(alloc).Field("last_realloc_s", ToSeconds(when));
    w.Field("since_realloc_s", ToSeconds(now - when));
  } else {
    w.BeginArray().EndArray();
    w.Key("last_realloc_s").Null().Key("since_realloc_s").Null();
  }
  WriteFleetJson(w);
  w.Key("dispatch").BeginObject().Field("total", stats_.total);
  w.Field("demoted", stats_.demoted).Field("fallbacks", stats_.fallbacks);
  w.EndObject().EndObject();
}

}  // namespace arlo::core
