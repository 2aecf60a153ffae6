#include "baselines/uniform_scheme.h"

#include "common/check.h"

namespace arlo::baselines {

UniformScheme::UniformScheme(
    std::string name, std::shared_ptr<const runtime::RuntimeSet> runtimes,
    BaselineConfig config)
    : SchemeBase(std::move(runtimes), config, config.slo),
      name_(std::move(name)) {
  ARLO_CHECK_MSG(Runtimes().Size() == 1,
                 "UniformScheme requires a single-runtime set");
}

std::vector<int> UniformScheme::InitialAllocation() const {
  return {Fleet().initial_gpus};
}

InstanceId UniformScheme::SelectInstance(const Request& request,
                                         sim::ClusterOps& cluster) {
  (void)cluster;
  ARLO_CHECK_MSG(Runtimes().Runtime(0).Accepts(request.length),
                 "request exceeds the runtime's max_length");
  const auto head = Queue().Head(0);
  return head ? head->id : kInvalidInstance;
}

std::unique_ptr<UniformScheme> MakeStScheme(
    runtime::SimulatedCompiler& compiler, const runtime::ModelSpec& model,
    BaselineConfig config) {
  auto set = std::make_shared<runtime::RuntimeSet>(
      runtime::MakeSingleStaticSet(compiler, model));
  return std::make_unique<UniformScheme>("st", std::move(set), config);
}

std::unique_ptr<UniformScheme> MakeDtScheme(
    runtime::SimulatedCompiler& compiler, const runtime::ModelSpec& model,
    BaselineConfig config) {
  auto set = std::make_shared<runtime::RuntimeSet>(
      runtime::MakeSingleDynamicSet(compiler, model));
  return std::make_unique<UniformScheme>("dt", std::move(set), config);
}

}  // namespace arlo::baselines
