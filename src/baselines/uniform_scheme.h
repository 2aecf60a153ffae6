// The ST and DT baselines (§5 Compared schemes).
//
// ST: a single statically-compiled runtime at the unified maximum length —
// every request is zero-padded to max_length.  DT: a single dynamically-
// compiled runtime — no padding, but dynamic-shape latency inflation.
// Both use plain load balancing for dispatch (their runtimes are uniform);
// the instance lifecycle and the optional headroom auto-scaler are
// core::SchemeBase's, shared with Arlo and INFaaS.
#pragma once

#include <memory>
#include <string>

#include "core/scheme_base.h"

namespace arlo::baselines {

/// The baselines' config: the shared fleet knobs plus the SLO their
/// profiles and auto-scaler target (INFaaS embeds it in InfaasConfig).
struct BaselineConfig : core::FleetConfig {
  SimDuration slo = Millis(150.0);
};

class UniformScheme final : public core::SchemeBase {
 public:
  /// `runtimes` must contain exactly one runtime (see MakeSingleStaticSet /
  /// MakeSingleDynamicSet); `name` is typically "st" or "dt".
  UniformScheme(std::string name,
                std::shared_ptr<const runtime::RuntimeSet> runtimes,
                BaselineConfig config);

  std::string Name() const override { return name_; }
  InstanceId SelectInstance(const Request& request,
                            sim::ClusterOps& cluster) override;

 protected:
  std::vector<int> InitialAllocation() const override;

 private:
  std::string name_;
};

/// Convenience factories matching the paper's scheme names.
std::unique_ptr<UniformScheme> MakeStScheme(
    runtime::SimulatedCompiler& compiler, const runtime::ModelSpec& model,
    BaselineConfig config);
std::unique_ptr<UniformScheme> MakeDtScheme(
    runtime::SimulatedCompiler& compiler, const runtime::ModelSpec& model,
    BaselineConfig config);

}  // namespace arlo::baselines
