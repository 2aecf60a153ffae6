// The INFaaS-like baseline (§2.3, §5): multi-variant runtimes like Arlo,
// but (a) resource allocation across variants follows request *counts*
// only — load-driven vertical scaling, blind to the latency/padding cost of
// each length bin — and (b) dispatch is bin-packing: pack a request onto the
// most-loaded candidate instance that still has SLO headroom, without
// Arlo's congestion-threshold demotion logic.  The instance lifecycle, the
// Eq. 7 guard, autoscaling and the replacement rollout are
// core::SchemeBase's; INFaaS only decides its re-allocation plans.
#pragma once

#include <algorithm>

#include "baselines/uniform_scheme.h"
#include "core/distribution_tracker.h"

namespace arlo::baselines {

struct InfaasConfig {
  BaselineConfig base;
  /// Variant re-allocation period (matches Arlo's for fairness).
  SimDuration period = Seconds(120.0);
  std::size_t replacement_batch_size = 2;
  /// Optional warm-start demand per length bin (requests per SLO window);
  /// the initial deployment is INFaaS's own work-proportional split of it.
  /// Empty = cold bootstrap on the largest variant.
  std::vector<double> initial_demand;
  /// Dispatch: bounded bin-packing (pack-then-spill).  A request is packed
  /// onto the most-loaded candidate instance whose backlog is still below
  /// `pack_limit` (cheapest variant first); when every candidate exceeds
  /// the limit it spills greedily to the least-loaded candidate — readily
  /// seizing larger variants, the behaviour §2.3 critiques.  `pack_limit`
  /// of INT_MAX reproduces literal consolidate-to-SLO packing; 1 degrades
  /// to pure least-loaded.
  int pack_limit = 2;
};

class InfaasScheme final : public core::SchemeBase {
 public:
  InfaasScheme(std::shared_ptr<const runtime::RuntimeSet> runtimes,
               InfaasConfig config);

  std::string Name() const override { return "infaas"; }
  InstanceId SelectInstance(const Request& request,
                            sim::ClusterOps& cluster) override;
  /// The base's tick (Eq. 7 guard, autoscaling), one rollout batch, then
  /// the periodic count-proportional re-allocation.
  void OnTick(SimTime now, sim::ClusterOps& cluster) override;
  SimDuration TickInterval() const override {
    return std::min(config_.period, Seconds(5.0));
  }

 private:
  std::vector<int> InitialAllocation() const override;
  void ObserveDispatch(int length) override;

  /// Count-proportional allocation (no compute weighting, no ILP).
  std::vector<int> CountProportional(int gpus,
                                     const std::vector<double>& counts) const;

  InfaasConfig config_;
  core::DistributionTracker tracker_;
  SimTime next_period_ = 0;
};

/// Builds INFaaS over the same polymorphed runtime set Arlo uses.
std::unique_ptr<InfaasScheme> MakeInfaasScheme(
    runtime::SimulatedCompiler& compiler, const runtime::ModelSpec& model,
    InfaasConfig config);

}  // namespace arlo::baselines
