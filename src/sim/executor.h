// The executor core: the one implementation of request execution that both
// substrates share — the discrete-event simulator (sim::Engine) and the
// threaded testbed (serving::LiveTestbed).
//
// The core owns the instance table (runtime, queue or generative batcher,
// in-flight batch, lifecycle flags, hang/slowdown windows), the central
// tenant::DispatchQueue buffer, the HealthTracker, the fault RNG, and every
// counter the substrates report.  It implements ClusterOps for the scheme and
// makes every scheme and telemetry call on the execution paths: arrival with
// transient-error retry, dispatch, batch formation and pricing (one-shot
// batches and generative iterations), completion and record building,
// retirement, crash + requeue, hangs, slowdowns, hang reaping and deadline
// shedding.
//
// A substrate is the clock.  Both drive the core through one EventShell
// (below): it calls MarkReady when a launched instance has provisioned,
// StartNext when an instance may run, and Complete when the service time
// StartNext priced has elapsed, each as an event on an EventQueue.  The
// simulator runs that queue on simulated time; the testbed on the wall clock
// from one executor thread, under one mutex.  The core itself is
// single-threaded: the caller serializes every call.
//
// Invariant, checked after every public mutation:
//   arrived == completed + shed + outstanding + buffered + deferred retries
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "batch/continuous.h"
#include "batch/policy.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "sim/event_queue.h"
#include "sim/scheme.h"
#include "sim/timeline.h"
#include "tenant/class_table.h"
#include "tenant/dispatch_queue.h"

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::sim {

/// Execution knobs both substrates share: the base of EngineConfig and
/// serving::TestbedConfig.
struct ExecutorConfig {
  /// Added to every request's service time: network + host-device transfer
  /// (0.8 ms, the value the paper calibrates in §5.2.1).
  SimDuration per_request_overhead = Millis(0.8);

  /// Opportunistic dynamic batching (§6 extension): an idle instance takes
  /// up to this many queued requests and executes them as one padded batch
  /// via CompiledRuntime::BatchComputeTime.  1 = the paper's batch-1 serving.
  int max_batch = 1;
  /// Batch formation policy (not owned; must outlive the run).  Null means
  /// batch::GreedyBatcher — take whatever is queued, immediately, which is
  /// the historical behaviour.  Policies that wait (e.g. "slo") re-poll at
  /// their deadline; arrivals, faults and retirement re-poll sooner.  See
  /// docs/BATCHING.md.
  const batch::BatchPolicy* batch_policy = nullptr;

  /// Generative (autoregressive) serving (not owned; must outlive the run).
  /// Null keeps the one-shot path.  When set, every instance owns a
  /// batch::ContinuousBatcher and executes prefill/decode iterations priced
  /// by the runtime's two-phase cost model; `max_batch`/`batch_policy` are
  /// ignored.  See docs/GENERATIVE.md.
  const batch::GenerativeConfig* generative = nullptr;

  /// Optional telemetry sink (not owned; must outlive the run).  Injected
  /// into the scheme via Scheme::SetTelemetry; records the request
  /// lifecycle and cluster churn.  The testbed records from several threads,
  /// so construct it with Concurrency::kMultiThreaded there.  Null disables
  /// telemetry at zero cost.
  telemetry::TelemetrySink* telemetry = nullptr;

  /// Declarative fault injection (not owned; must outlive the run).  Its
  /// `seed` seeds the fault RNG; scheduled crash/hang/slowdown events fire at
  /// their plan times (simulated time on both substrates, so one plan drives
  /// both); transient dispatch errors are drawn per dispatch attempt and
  /// retried per `resilience`; `random_crash_mtbf_s` drives background
  /// crashes.  See docs/FAULTS.md.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Recovery behaviour when a plan is attached: retry backoff, hang
  /// detection, deadline shedding.  Defaults keep hang detection and
  /// shedding off.  Shedding is simulator-only: the testbed ignores
  /// `shed_deadline` — its wall-clock equivalent is the net frontend's
  /// admission controller (src/net/admission.h).
  fault::ResiliencePolicy resilience;

  /// Optional tenant class table (not owned; must outlive the run).  When
  /// set, the central buffer dispatches weighted-deficit round-robin across
  /// per-class queues with a slack-aware tie-break (docs/TENANTS.md); null
  /// keeps the historical FIFO.
  const tenant::TenantClassTable* tenants = nullptr;
};

/// Counters both substrates report: the base of EngineResult and
/// serving::TestbedResult.
struct ExecutorCounters {
  int injected_failures = 0;         ///< crashes, random and reaped hangs
  std::uint64_t faults_injected = 0;  ///< crash/hang/slow activations
  std::uint64_t retries = 0;          ///< transient dispatch errors retried
  std::uint64_t requeues = 0;         ///< requests drained off dead instances
  std::uint64_t batches_formed = 0;   ///< batches launched (size 1 included)
  std::uint64_t batch_timeouts = 0;   ///< batches launched on budget expiry
  std::uint64_t gen_prefill_iterations = 0;  ///< generative prefill cohorts
  std::uint64_t gen_decode_iterations = 0;   ///< generative decode steps
  std::uint64_t gen_preemptions = 0;         ///< KV evictions (recompute)
};

class EventShell;

class ExecutorCore final : public ClusterOps {
 public:
  /// How the substrates differ.
  struct Options {
    /// Per-second time series (simulator only; not owned).
    TimelineRecorder* timeline = nullptr;
    /// Refuse dispatch to an instance holding this many requests, so the
    /// excess waits in the class-aware central buffer.  0 = unbounded.
    int max_worker_queue = 0;
    /// Track readiness/progress without a fault plan too (the testbed's
    /// /healthz and /statusz read it).
    bool always_track_health = false;
    /// The simulator's pre-FaultPlan knobs; a plan supersedes both.
    double legacy_mtbf_s = 0.0;
    std::uint64_t legacy_fault_seed = 1;
  };

  struct Instance {
    RuntimeId runtime = kInvalidRuntime;
    std::shared_ptr<const runtime::CompiledRuntime> rt;
    std::deque<batch::Item> queue;           ///< one-shot: not yet started
    std::vector<batch::Item> current_batch;  ///< one-shot: in flight
    /// Generative mode: waiting and resident sequences live here instead.
    std::unique_ptr<batch::ContinuousBatcher> gen;
    int executing = 0;  ///< in-flight batch/iteration size (0 = idle)
    SimTime current_start = 0;
    bool ready = false;
    bool retiring = false;
    bool gone = false;
    bool crashed = false;      ///< gone by crash or hang reap
    SimTime hung_until = 0;    ///< frozen (no starts/completions) until then
    SimTime slow_until = 0;    ///< service times scaled until then
    double slow_factor = 1.0;  ///< multiplier while slow_until is in force

    bool Serving() const { return ready && !retiring && !gone; }
  };

  /// StartNext's verdict.
  struct Start {
    enum class Kind {
      kIdle,  ///< nothing to start; a Wake will come when that changes
      kWait,  ///< the batch policy waits: call StartNext again at `until`
      kRun,   ///< a batch/iteration started: call Complete at `until`
    };
    Kind kind = Kind::kIdle;
    SimTime until = 0;
    /// kRun, one-shot: how long the batch's head request queued.
    SimDuration formation_wait = 0;
  };

  /// Extra tallies the simulator reports.
  struct Tally : ExecutorCounters {
    std::uint64_t buffered = 0;  ///< arrivals that could not dispatch at once
    std::uint64_t sheds = 0;
    std::uint64_t gen_tokens = 0;
    int peak_instances = 0;
    double busy_ns = 0.0;      ///< priced service time, summed
    double gpu_ns = 0.0;       ///< integral of the instance count over time
  };

  ExecutorCore(Scheme& scheme, const ExecutorConfig& config,
               EventShell& host, const Options& options);

  // ClusterOps (the scheme's view).  NumInstances is also safe to call
  // without the caller's serialization (a relaxed read).
  InstanceId LaunchInstance(RuntimeId runtime,
                            std::shared_ptr<const runtime::CompiledRuntime> rt,
                            SimDuration ready_delay) override;
  void RetireInstance(InstanceId id) override;
  int NumInstances() const override {
    return active_.load(std::memory_order_relaxed);
  }
  int OutstandingOn(InstanceId id) const override;
  SimTime Now() const override;

  /// Injects telemetry into the scheme and deploys its initial instances.
  void Setup();
  /// Schedules the fault plan's events, random crashes (plan or legacy
  /// knobs) and periodic health checks through EventShell::At.
  void ArmFaults();
  /// A new request enters (its first dispatch attempt).
  void Arrive(const Request& request);
  /// Dispatches buffered requests until the scheme refuses one.
  void RetryBuffered();
  /// A launched instance finished provisioning.  False if it was retired
  /// meanwhile (its runner should exit).
  bool MarkReady(InstanceId id);
  /// Forms the next batch or iteration on `id` and prices it.
  Start StartNext(InstanceId id);
  /// Completes `id`'s in-flight batch or iteration: builds the records,
  /// notifies the scheme, finalizes a drained retirement, retries the
  /// buffer.  Returns 0, or the end of a hang window that freezes the
  /// completion (call again then).  A no-op on a crashed instance.
  SimTime Complete(InstanceId id);
  /// Instances holding work with no progress past the hang timeout.
  std::vector<InstanceId> FindHung() const;
  /// Closes the GPU-time integral at the end of a run.
  void Finish();

  std::size_t Arrived() const { return arrived_; }
  /// Requests done for good: completed or shed.
  std::size_t Settled() const { return completed_ + tally_.sheds; }
  std::size_t Completed() const { return completed_; }
  int Outstanding() const { return outstanding_; }
  const tenant::DispatchQueue& Buffer() const { return buffer_; }
  const fault::HealthTracker& Health() const { return health_; }
  InstanceId NumLaunched() const {
    return static_cast<InstanceId>(instances_.size());
  }
  const Instance& At(InstanceId id) const { return instances_[id]; }
  const Tally& Counters() const { return tally_; }
  std::vector<RequestRecord> TakeShedRecords() {
    return std::move(shed_records_);
  }

 private:
  /// Kills a serving instance: the scheme drops it, its queued and
  /// in-flight requests are requeued.  False (no-op) if not serving.
  bool Crash(InstanceId id);
  /// Crashes hung instances (no progress past the hang timeout).
  void ReapHung();
  /// Sheds buffered requests older than the resilience shed deadline.
  void ShedExpired();
  void Admit(const Request& request, int attempt);
  bool TryDispatch(const Request& request);
  void Requeue(const std::vector<batch::Item>& orphans, InstanceId from);
  void Served(InstanceId id, const batch::Item& item, SimTime start,
              SimTime first_token, int batch);
  void FinalizeRetirement(InstanceId id);
  void ApplyFaultEvent(const fault::FaultEvent& event);
  void EndFaultWindow(InstanceId id, bool hang);
  void ScheduleRandomCrash();
  void ScheduleHealthCheck();
  /// `service` stretched by a slowdown window in force at `now`.
  static SimDuration Scaled(const Instance& inst, SimTime now,
                            SimDuration service);
  bool TrackHealth() const;
  void AccumulateGpuTime();
  void UpdateClusterGauges();
  void UpdateGenGauges();
  void CheckConserved() const;

  Scheme& scheme_;
  ExecutorConfig config_;
  EventShell& host_;
  Options options_;
  std::unique_ptr<batch::BatchPolicy> owned_policy_;  ///< default greedy
  const batch::BatchPolicy* policy_ = nullptr;

  // deque, not vector: scheme callbacks (OnComplete, OnInstanceFailure) may
  // launch instances while the core holds a reference to an existing one.
  std::deque<Instance> instances_;
  tenant::DispatchQueue buffer_;
  fault::HealthTracker health_;
  Rng fault_rng_;
  std::vector<RequestRecord> shed_records_;
  Tally tally_;

  std::size_t arrived_ = 0;
  std::size_t completed_ = 0;
  std::size_t deferred_ = 0;  ///< transient-error retries awaiting backoff
  int outstanding_ = 0;       ///< dispatched to an instance, not completed
  std::atomic<int> active_{0};
  SimTime last_count_change_ = 0;
};

/// The event-queue shell around the core, shared by both substrates: a
/// launch becomes a MarkReady event, a Wake starts the instance's next batch
/// at once, a priced service time becomes a completion event (re-armed while
/// a hang freezes it), a waiting batch policy a re-poll event, and ticks and
/// snapshots recur.  A substrate supplies the clock, keeps the records and
/// runs the queue's events when their time comes.
class EventShell {
 public:
  virtual ~EventShell() = default;
  virtual SimTime Now() const = 0;
  /// A request was served.  `batch` is the size of the one-shot batch it
  /// shared (1 for a generative sequence).
  virtual void OnServed(const RequestRecord& record, int batch) = 0;

  // Called by the core.
  /// Instance `id` was launched: MarkReady after `ready_delay`.
  void OnLaunched(InstanceId id, SimDuration ready_delay);
  /// Instance `id` may have work to start, or has just gone away: starts it.
  void Wake(InstanceId id);
  /// Runs `fn` (a deferred retry, a fault event or window end, a health
  /// check) at time `at`.
  void At(SimTime at, std::function<void()> fn) {
    events_.Schedule(at, std::move(fn));
  }

 protected:
  EventShell(Scheme& scheme, const ExecutorConfig& config,
             const ExecutorCore::Options& options);
  /// Schedules the recurring scheme tick, the fault plan and, with a
  /// telemetry sink, the recurring snapshot.  Call once, after Setup.
  void ArmRecurring();
  /// A batch or iteration started: `start` is StartNext's kRun verdict.
  virtual void OnStarted(const ExecutorCore::Start& /*start*/) {}

  EventQueue events_;
  ExecutorCore core_;
  Scheme& scheme_;

 private:
  void ScheduleBatchTimer(InstanceId id, SimTime at);
  void CompleteAt(InstanceId id, SimTime at);
  /// Runs `fn(t)` at t = `at`, `at` + `period`, ...: an exact grid, however
  /// late a wall-clock event ran.
  void Every(SimTime at, SimDuration period, std::function<void(SimTime)> fn);

  telemetry::TelemetrySink* telemetry_;
  /// Per instance: the pending batch-formation re-poll (0 = none).  Any
  /// launch or an earlier timer supersedes a later one.
  std::vector<SimTime> batch_timer_at_;
};

}  // namespace arlo::sim
