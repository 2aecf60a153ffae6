#include "baselines/infaas_scheme.h"

#include <algorithm>

#include "common/check.h"

namespace arlo::baselines {

InfaasScheme::InfaasScheme(
    std::shared_ptr<const runtime::RuntimeSet> runtimes, InfaasConfig config)
    : SchemeBase(runtimes, config.base, config.base.slo),
      config_(config),
      tracker_(runtimes->LargestMaxLength(), /*decay=*/0.5) {
  ARLO_CHECK(config_.period > 0);
}

std::vector<int> InfaasScheme::InitialAllocation() const {
  if (!config_.initial_demand.empty()) {
    ARLO_CHECK(config_.initial_demand.size() == Runtimes().Size());
    std::vector<double> work = config_.initial_demand;
    for (std::size_t i = 0; i < work.size(); ++i) {
      work[i] *= static_cast<double>(Profiles()[i].compute_time);
    }
    return CountProportional(config_.base.initial_gpus, work);
  }
  // Cold start: everything on the universal (largest) variant, like Arlo's
  // bootstrap — INFaaS, too, knows nothing before observing traffic.
  std::vector<int> alloc(Runtimes().Size(), 0);
  alloc.back() = config_.base.initial_gpus;
  return alloc;
}

void InfaasScheme::ObserveDispatch(int length) { tracker_.Observe(length); }

InstanceId InfaasScheme::SelectInstance(const Request& request,
                                        sim::ClusterOps& cluster) {
  (void)cluster;
  const auto candidates = Runtimes().CandidatesFor(request.length);
  ARLO_CHECK(!candidates.empty());

  // Pack: among variants that satisfy the length requirement (ascending,
  // cheapest first), the most-loaded instance still below the packing
  // limit.
  for (const RuntimeId level : candidates) {
    const auto fit = Queue().BestFitBelow(level, config_.pack_limit);
    if (fit) return fit->id;
  }

  // Spill: the least-loaded instance across all candidate variants —
  // length-satisfying but blind to the padding cost of larger variants and
  // to impending longer requests (§2.3's critique of INFaaS dispatching).
  InstanceId best = kInvalidInstance;
  int best_load = std::numeric_limits<int>::max();
  for (const RuntimeId level : candidates) {
    const auto head = Queue().Head(level);
    if (head && head->outstanding < best_load) {
      best_load = head->outstanding;
      best = head->id;
    }
  }
  return best;
}

std::vector<int> InfaasScheme::CountProportional(
    int gpus, const std::vector<double>& counts) const {
  const std::size_t n = Runtimes().Size();
  double total = 0.0;
  for (double c : counts) total += c;
  std::vector<int> alloc(n, 0);
  if (total <= 0.0) {
    alloc.back() = gpus;
    return alloc;
  }
  int assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alloc[i] = static_cast<int>(counts[i] / total * gpus);
    assigned += alloc[i];
  }
  // Remainder to the largest fractional shares.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return counts[a] / total * gpus - alloc[a] >
           counts[b] / total * gpus - alloc[b];
  });
  for (std::size_t k = 0; assigned < gpus; ++k) {
    ++alloc[order[k % n]];
    ++assigned;
  }
  // A variant for the longest requests must always exist.
  if (alloc.back() == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (alloc[i] > 0) {
        --alloc[i];
        ++alloc.back();
        break;
      }
    }
  }
  return alloc;
}

void InfaasScheme::OnTick(SimTime now, sim::ClusterOps& cluster) {
  SchemeBase::OnTick(now, cluster);
  RollOutNextBatch(cluster);
  if (now < next_period_) return;
  next_period_ = now + config_.period;
  tracker_.RollPeriod(ToSeconds(config_.period));
  // Defer only while a previous plan is rolling out; additive scale-out
  // launches do not conflict with variant rebalancing.
  if (RollingOut() || ReadyInstances().empty()) return;

  std::vector<double> counts = tracker_.DemandPerSlo(
      Runtimes().BinUpperBounds(), ToSeconds(config_.base.slo));
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return;  // nothing observed yet

  // INFaaS reacts to the *load* each variant observes (QPS x service time),
  // so allocation follows per-bin work — without Arlo's SLO capacity
  // floors (Eq. 3), latency objective, or demotion-cascade planning.
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] *= static_cast<double>(Profiles()[i].compute_time);
  }

  const int gpus = static_cast<int>(ReadyInstances().size());
  const std::vector<int> target = CountProportional(gpus, counts);
  Enqueue(core::PlanReplacement(SnapshotDeployment(), target,
                                config_.replacement_batch_size));
  RollOutNextBatch(cluster);  // start rolling out immediately
}

std::unique_ptr<InfaasScheme> MakeInfaasScheme(
    runtime::SimulatedCompiler& compiler, const runtime::ModelSpec& model,
    InfaasConfig config) {
  auto set = std::make_shared<runtime::RuntimeSet>(
      runtime::MakeArloRuntimeSet(compiler, model));
  return std::make_unique<InfaasScheme>(std::move(set), std::move(config));
}

}  // namespace arlo::baselines
