#include "timed_layers.h"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

}  // namespace

TimedScheme::TimedScheme(std::unique_ptr<arlo::sim::Scheme> inner)
    : inner_(std::move(inner)) {}

std::string TimedScheme::Name() const { return inner_->Name(); }

void TimedScheme::Setup(arlo::sim::ClusterOps& cluster) {
  inner_->SetTelemetry(Telemetry());
  inner_->Setup(cluster);
}

arlo::InstanceId TimedScheme::SelectInstance(const arlo::Request& request,
                                             arlo::sim::ClusterOps& cluster) {
  const auto start = Clock::now();
  const arlo::InstanceId id = inner_->SelectInstance(request, cluster);
  const double ns = ElapsedNs(start);
  samples_.select_ns.push_back(ns);
  samples_.total_ns += ns;
  if (id == arlo::kInvalidInstance) ++samples_.select_buffered;
  return id;
}

void TimedScheme::OnDispatched(const arlo::Request& request,
                               arlo::InstanceId instance) {
  const auto start = Clock::now();
  inner_->OnDispatched(request, instance);
  samples_.total_ns += ElapsedNs(start);
}

void TimedScheme::OnComplete(const arlo::RequestRecord& record,
                             arlo::sim::ClusterOps& cluster) {
  const auto start = Clock::now();
  inner_->OnComplete(record, cluster);
  const double ns = ElapsedNs(start);
  samples_.complete_ns.push_back(ns);
  samples_.total_ns += ns;
}

void TimedScheme::OnInstanceReady(arlo::InstanceId instance,
                                  arlo::RuntimeId runtime) {
  const auto start = Clock::now();
  inner_->OnInstanceReady(instance, runtime);
  samples_.total_ns += ElapsedNs(start);
}

void TimedScheme::OnInstanceRetired(arlo::InstanceId instance) {
  const auto start = Clock::now();
  inner_->OnInstanceRetired(instance);
  samples_.total_ns += ElapsedNs(start);
}

void TimedScheme::OnInstanceFailure(arlo::InstanceId instance,
                                    arlo::sim::ClusterOps& cluster) {
  const auto start = Clock::now();
  inner_->OnInstanceFailure(instance, cluster);
  samples_.total_ns += ElapsedNs(start);
}

void TimedScheme::OnTick(arlo::SimTime now, arlo::sim::ClusterOps& cluster) {
  const auto start = Clock::now();
  inner_->OnTick(now, cluster);
  const double ns = ElapsedNs(start);
  samples_.tick_ns.push_back(ns);
  samples_.total_ns += ns;
}

bool TimedScheme::ApplyExternalAllocation(const std::vector<int>& allocation,
                                          arlo::sim::ClusterOps& cluster) {
  const auto start = Clock::now();
  const bool applied = inner_->ApplyExternalAllocation(allocation, cluster);
  samples_.total_ns += ElapsedNs(start);
  return applied;
}

arlo::SimDuration TimedScheme::TickInterval() const {
  return inner_->TickInterval();
}

void TimedScheme::WriteStatusJson(std::ostream& os, arlo::SimTime now) const {
  inner_->WriteStatusJson(os, now);
}

TimedBatchPolicy::TimedBatchPolicy(
    std::unique_ptr<arlo::batch::BatchPolicy> inner)
    : inner_(std::move(inner)) {}

std::string TimedBatchPolicy::Name() const { return inner_->Name(); }

arlo::batch::BatchDecision TimedBatchPolicy::Decide(
    const std::deque<arlo::batch::Item>& queue,
    const arlo::runtime::CompiledRuntime& rt,
    const arlo::batch::BatchContext& ctx) const {
  const auto start = Clock::now();
  arlo::batch::BatchDecision decision = inner_->Decide(queue, rt, ctx);
  const double ns = ElapsedNs(start);
  std::lock_guard lock(mu_);
  samples_.decide_ns.push_back(ns);
  if (decision.take.empty()) {
    ++samples_.wait_decisions;
  } else {
    samples_.batch_sizes.push_back(static_cast<double>(decision.take.size()));
  }
  return decision;
}

TimedBatchPolicy::Samples TimedBatchPolicy::GetSamples() const {
  std::lock_guard lock(mu_);
  return samples_;
}

}  // namespace perfbench
