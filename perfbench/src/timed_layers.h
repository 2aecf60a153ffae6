// Timing decorators around the two policy interfaces the executors call on
// their hot path: sim::Scheme (the `core` layer) and batch::BatchPolicy (the
// `batch` layer).  They measure from outside, so no library file changes.
//
// Both are transparent: every virtual forwards to the wrapped object with
// the same arguments and result, and the telemetry sink the executor injects
// into the wrapper reaches the wrapped scheme before its Setup (SetTelemetry
// is non-virtual, so the executor can only hand it to the outer object).
// A seeded simulation through the wrappers yields the records of the
// unwrapped run; the benchmark's tests pin that down.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "batch/policy.h"
#include "sim/scheme.h"

namespace perfbench {

/// Times every Scheme call.  Executors serialize scheme calls (the engine
/// is single-threaded; the testbed holds its dispatch mutex), so the sample
/// vectors need no lock of their own.  Read them after the run has ended.
class TimedScheme final : public arlo::sim::Scheme {
 public:
  struct Samples {
    std::vector<double> select_ns;
    std::vector<double> complete_ns;
    std::vector<double> tick_ns;
    std::uint64_t select_buffered = 0;  ///< kInvalidInstance returns
    /// Wall time inside every forwarded call but Setup, which runs while
    /// the executor starts, before any request.
    double total_ns = 0.0;
  };

  explicit TimedScheme(std::unique_ptr<arlo::sim::Scheme> inner);

  std::string Name() const override;
  void Setup(arlo::sim::ClusterOps& cluster) override;
  arlo::InstanceId SelectInstance(const arlo::Request& request,
                                  arlo::sim::ClusterOps& cluster) override;
  void OnDispatched(const arlo::Request& request,
                    arlo::InstanceId instance) override;
  void OnComplete(const arlo::RequestRecord& record,
                  arlo::sim::ClusterOps& cluster) override;
  void OnInstanceReady(arlo::InstanceId instance,
                       arlo::RuntimeId runtime) override;
  void OnInstanceRetired(arlo::InstanceId instance) override;
  void OnInstanceFailure(arlo::InstanceId instance,
                         arlo::sim::ClusterOps& cluster) override;
  void OnTick(arlo::SimTime now, arlo::sim::ClusterOps& cluster) override;
  bool ApplyExternalAllocation(const std::vector<int>& allocation,
                               arlo::sim::ClusterOps& cluster) override;
  arlo::SimDuration TickInterval() const override;
  void WriteStatusJson(std::ostream& os, arlo::SimTime now) const override;

  const arlo::sim::Scheme& Inner() const { return *inner_; }
  const Samples& GetSamples() const { return samples_; }

 private:
  std::unique_ptr<arlo::sim::Scheme> inner_;
  Samples samples_;
};

/// Times every Decide call.  Decide runs concurrently on testbed workers, so
/// samples are appended under a mutex (outside the timed region).
class TimedBatchPolicy final : public arlo::batch::BatchPolicy {
 public:
  struct Samples {
    std::vector<double> decide_ns;
    std::vector<double> batch_sizes;  ///< |take| of every non-waiting decision
    std::uint64_t wait_decisions = 0;  ///< decisions that took nothing
  };

  explicit TimedBatchPolicy(std::unique_ptr<arlo::batch::BatchPolicy> inner);

  std::string Name() const override;
  arlo::batch::BatchDecision Decide(
      const std::deque<arlo::batch::Item>& queue,
      const arlo::runtime::CompiledRuntime& rt,
      const arlo::batch::BatchContext& ctx) const override;

  Samples GetSamples() const;

 private:
  std::unique_ptr<arlo::batch::BatchPolicy> inner_;
  mutable std::mutex mu_;
  mutable Samples samples_;  // guarded by mu_
};

}  // namespace perfbench
