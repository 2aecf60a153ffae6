#include "serving/live_testbed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "fault/health.h"
#include "telemetry/sink.h"
#include "tenant/dispatch_queue.h"

namespace arlo::serving {
namespace {

using Clock = std::chrono::steady_clock;

/// Sleeps until `deadline`, busy-spinning the final `spin` nanoseconds for
/// sub-scheduler-quantum precision.
void PreciseWaitUntil(Clock::time_point deadline,
                      std::chrono::nanoseconds spin) {
  const auto sleep_until = deadline - spin;
  if (Clock::now() < sleep_until) std::this_thread::sleep_until(sleep_until);
  while (Clock::now() < deadline) {
    // spin
  }
}

/// PreciseWaitUntil, but abandoned (returning true) as soon as `stop`
/// becomes set — the sleep happens in bounded slices so a Finish() never
/// waits out a whole tick/snapshot interval.  Used by the background loops,
/// whose wake-up precision only matters when they actually run the tick.
bool PreciseWaitUntilOrStopped(Clock::time_point deadline,
                               std::chrono::nanoseconds spin,
                               const std::atomic<bool>& stop) {
  constexpr auto kSlice = std::chrono::milliseconds(50);
  auto sleep_until = deadline - spin;
  while (Clock::now() < sleep_until) {
    if (stop.load(std::memory_order_relaxed)) return true;
    std::this_thread::sleep_until(std::min(sleep_until, Clock::now() + kSlice));
  }
  while (Clock::now() < deadline) {
    if (stop.load(std::memory_order_relaxed)) return true;
  }
  return stop.load(std::memory_order_relaxed);
}

}  // namespace

struct LiveTestbed::Impl final : public sim::ClusterOps {
 public:
  Impl(sim::Scheme& scheme, const TestbedConfig& config)
      : scheme_(scheme),
        config_(config),
        buffer_(config.tenants),
        health_(config.resilience.hang_timeout) {
    if (config_.tenants != nullptr && !config_.tenants->Empty()) {
      class_completed_.assign(
          static_cast<std::size_t>(config_.tenants->Size()), 0);
    }
    if (!config_.mix_bounds.empty()) {
      mix_counts_.assign(config_.mix_bounds.size(), 0);
    }
    ARLO_CHECK(config_.time_scale > 0.0);
    if (config_.batch_policy) {
      policy_ = config_.batch_policy;
    } else {
      owned_policy_ = batch::MakeBatchPolicy("greedy");
      policy_ = owned_policy_.get();
    }
  }

  void Start();
  void Submit(const Request& request, CompletionFn done);
  bool ApplyAllocation(const std::vector<int>& allocation);
  TestbedHealth Health();
  void WriteStatusJson(std::ostream& os);
  void Drain();
  TestbedResult Finish();
  SimDuration EstimatedQueueDelay() const;
  bool Running() const { return started_ && !finished_; }
  const TestbedConfig& Config() const { return config_; }

  // ClusterOps (called with dispatch_mu_ held by the scheme's caller):
  InstanceId LaunchInstance(RuntimeId runtime,
                            std::shared_ptr<const runtime::CompiledRuntime> rt,
                            SimDuration ready_delay) override;
  void RetireInstance(InstanceId id) override;
  int NumInstances() const override { return live_workers_; }
  int OutstandingOn(InstanceId id) const override;
  SimTime Now() const override { return WallToSim(Clock::now()); }

  // Lock-free mirrors for frontend threads (admission estimates).
  int LiveWorkersRelaxed() const {
    return live_rel_.load(std::memory_order_relaxed);
  }
  int InSystemRelaxed() const {
    return static_cast<int>(
        submitted_rel_.load(std::memory_order_relaxed) -
        completed_rel_.load(std::memory_order_relaxed));
  }

 private:
  struct Worker {
    std::thread thread;
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<batch::Item> queue;
    int executing = 0;  // in-flight batch size (0 = idle)
    bool ready = false;
    bool retiring = false;
    bool gone = false;
    // Fault state (all under mu).  `killed` is a crash: the worker dies with
    // its queue stolen and its in-flight request requeued by its own thread.
    bool killed = false;
    SimTime hung_until = 0;    ///< frozen: completions slide past the window
    SimTime slow_until = 0;    ///< service times scaled until then
    double slow_factor = 1.0;
    RuntimeId runtime = kInvalidRuntime;
    std::shared_ptr<const runtime::CompiledRuntime> rt;
    SimDuration ready_delay = 0;
    /// Generative mode only (under mu): `queue` stays empty; waiting and
    /// resident sequences live in the iteration-level batcher instead.
    std::unique_ptr<batch::ContinuousBatcher> gen;
  };

  /// A transiently-errored dispatch waiting out its backoff (fault_mu_).
  struct PendingRetry {
    SimTime release = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal release times
    Request request;
    int attempt = 0;
  };
  struct RetryLater {
    bool operator()(const PendingRetry& a, const PendingRetry& b) const {
      return a.release != b.release ? a.release > b.release : a.seq > b.seq;
    }
  };

  SimTime WallToSim(Clock::time_point t) const {
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - start_)
            .count();
    return static_cast<SimTime>(static_cast<double>(wall_ns) /
                                config_.time_scale);
  }
  Clock::time_point SimToWall(SimTime t) const {
    return start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(t) * config_.time_scale));
  }

  void WorkerLoop(InstanceId id, Worker& w);
  void GenWorkerRun(InstanceId id, Worker& w);
  void HandleArrivalLocked(const Request& request, int attempt = 0);
  bool TryDispatchLocked(const Request& request);
  void RetryBufferedLocked();
  void FinalizeRetirementLocked(InstanceId id);
  void TickLoop();
  void SnapshotLoop();
  void UpdateClusterGaugesLocked();
  void UpdateGenGaugesLocked();

  // Fault supervisor (all *Locked variants require dispatch_mu_ held).
  void FaultLoop();
  void ApplyPlanEventLocked(const fault::FaultEvent& event);
  bool KillWorkerLocked(InstanceId id);
  void RunHealthCheckLocked();
  std::vector<InstanceId> FindHungLocked(SimTime now);

  sim::Scheme& scheme_;
  TestbedConfig config_;
  std::unique_ptr<batch::BatchPolicy> owned_policy_;  ///< default greedy
  const batch::BatchPolicy* policy_ = nullptr;
  Clock::time_point start_;
  bool started_ = false;
  bool finished_ = false;

  std::mutex dispatch_mu_;
  std::condition_variable all_done_cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  tenant::DispatchQueue buffer_;
  /// Completion order.  A deque never moves what it holds, so appending
  /// under dispatch_mu_ stays O(1) at any run length; Finish copies it out.
  std::deque<RequestRecord> records_;
  /// Per-class completion counts (dispatch_mu_); empty unless a tenant
  /// class table is configured.
  std::vector<std::uint64_t> class_completed_;
  /// Cumulative submitted-length histogram over config_.mix_bounds
  /// (dispatch_mu_); empty unless bounds were configured.  The cluster
  /// scheduler diffs successive /statusz scrapes to window it.
  std::vector<std::uint64_t> mix_counts_;
  /// External POST /realloc applies (dispatch_mu_).
  std::uint64_t reallocs_applied_ = 0;
  std::uint64_t reallocs_rejected_ = 0;
  SimTime last_realloc_ = -1;
  std::unordered_map<RequestId, CompletionFn> callbacks_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  int live_workers_ = 0;
  int peak_workers_ = 0;
  int outstanding_ = 0;  // dispatched, not yet completed (dispatch_mu_)
  std::atomic<bool> stopping_{false};

  // Relaxed mirrors of the counters above, so frontend/admission threads can
  // estimate load without touching dispatch_mu_.
  std::atomic<std::int64_t> submitted_rel_{0};
  std::atomic<std::int64_t> completed_rel_{0};
  std::atomic<int> live_rel_{0};
  /// EWMA of observed per-request service times (ns, alpha = 1/8); 0 until
  /// the first completion.  Feeds EstimatedQueueDelay.
  std::atomic<std::int64_t> ewma_service_ns_{0};
  /// EWMA of batch-formation waits — the head request's queue time when its
  /// batch launched (ns, alpha = 1/8).  Adds the wait-for-k delay component
  /// to EstimatedQueueDelay so admission estimates track waiting policies.
  std::atomic<std::int64_t> ewma_form_ns_{0};
  std::atomic<std::uint64_t> batches_formed_{0};
  std::atomic<std::uint64_t> batch_timeouts_{0};
  std::atomic<std::uint64_t> gen_prefill_iters_{0};
  std::atomic<std::uint64_t> gen_decode_iters_{0};
  std::atomic<std::uint64_t> gen_preemptions_{0};

  std::thread ticker_;
  std::thread snapshotter_;
  std::thread fault_supervisor_;

  // Fault state.  Counters and dispatch_rng_ are guarded by dispatch_mu_;
  // the retry heap by fault_mu_ (lock order: dispatch_mu_ -> fault_mu_,
  // never the reverse — FaultLoop drains the heap before taking
  // dispatch_mu_).
  Rng dispatch_rng_{1};
  int injected_failures_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t requeues_ = 0;

  // Liveness view (fault::HealthTracker) behind its own leaf-ish mutex.
  // Lock order: dispatch_mu_ -> health_mu_ -> w.mu.  Worker threads update
  // health only with no w.mu held, so the FindHung scan (which reads
  // per-worker outstanding under w.mu while holding health_mu_) cannot
  // invert against them.
  mutable std::mutex health_mu_;
  fault::HealthTracker health_;

  std::mutex fault_mu_;
  std::condition_variable fault_cv_;
  std::priority_queue<PendingRetry, std::vector<PendingRetry>, RetryLater>
      retry_heap_;
  std::uint64_t retry_seq_ = 0;  // under fault_mu_
};

InstanceId LiveTestbed::Impl::LaunchInstance(
    RuntimeId runtime, std::shared_ptr<const runtime::CompiledRuntime> rt,
    SimDuration ready_delay) {
  // dispatch_mu_ is held by the caller.
  const auto id = static_cast<InstanceId>(workers_.size());
  auto worker = std::make_unique<Worker>();
  worker->runtime = runtime;
  worker->rt = std::move(rt);
  worker->ready_delay = ready_delay;
  if (config_.generative) {
    worker->gen =
        std::make_unique<batch::ContinuousBatcher>(*config_.generative);
  }
  workers_.push_back(std::move(worker));
  ++live_workers_;
  live_rel_.store(live_workers_, std::memory_order_relaxed);
  peak_workers_ = std::max(peak_workers_, live_workers_);
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceLaunch(Now(), id, runtime);
    UpdateClusterGaugesLocked();
  }
  // Pass the stable Worker* so the thread never reads the (growing) vector.
  Worker* wp = workers_.back().get();
  wp->thread = std::thread([this, id, wp] { WorkerLoop(id, *wp); });
  return id;
}

void LiveTestbed::Impl::RetireInstance(InstanceId id) {
  // dispatch_mu_ held.
  ARLO_CHECK(id < workers_.size());
  Worker& w = *workers_[id];
  std::vector<batch::Item> orphans;
  bool idle;
  {
    std::lock_guard lk(w.mu);
    ARLO_CHECK_MSG(!w.retiring && !w.gone, "double retirement");
    w.retiring = true;
    if (w.gen) {
      // Residents keep their KV caches and decode to completion in place;
      // only the not-yet-admitted waiting queue is re-dispatched.
      orphans = w.gen->StealWaiting();
      idle = w.executing == 0 && w.gen->Idle();
    } else {
      orphans.assign(w.queue.begin(), w.queue.end());
      w.queue.clear();
      idle = w.executing == 0;
    }
  }
  for (const auto& q : orphans) HandleArrivalLocked(q.request);
  if (idle) {
    FinalizeRetirementLocked(id);
    workers_[id]->cv.notify_all();  // wake the thread so it can exit
  }
}

void LiveTestbed::Impl::FinalizeRetirementLocked(InstanceId id) {
  Worker& w = *workers_[id];
  {
    std::lock_guard lk(w.mu);
    if (w.gone) return;
    w.gone = true;
  }
  --live_workers_;
  live_rel_.store(live_workers_, std::memory_order_relaxed);
  {
    std::lock_guard h(health_mu_);
    health_.OnGone(id);
  }
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceRetired(Now(), id);
    UpdateClusterGaugesLocked();
  }
  scheme_.OnInstanceRetired(id);
  w.cv.notify_all();
}

int LiveTestbed::Impl::OutstandingOn(InstanceId id) const {
  ARLO_CHECK(id < workers_.size());
  const Worker& w = *workers_[id];
  std::lock_guard lk(w.mu);
  if (w.gen) return w.gen->WaitingCount() + w.gen->ResidentCount();
  return static_cast<int>(w.queue.size()) + w.executing;
}

void LiveTestbed::Impl::HandleArrivalLocked(const Request& request,
                                            int attempt) {
  // Transient dispatch error: the attempt fails before reaching the scheme
  // and waits out a jittered backoff on the fault supervisor's retry heap.
  // After max_attempts failures the request dispatches unconditionally.
  if (config_.fault_plan && config_.fault_plan->dispatch_error_prob > 0.0 &&
      attempt < config_.resilience.retry.max_attempts &&
      dispatch_rng_.Bernoulli(config_.fault_plan->dispatch_error_prob)) {
    ++retries_;
    const SimDuration backoff =
        config_.resilience.retry.BackoffFor(attempt, dispatch_rng_);
    const SimTime now = Now();
    if (config_.telemetry) {
      config_.telemetry->RecordRetry(request, now, attempt + 1, backoff);
    }
    {
      std::lock_guard lk(fault_mu_);
      retry_heap_.push(
          PendingRetry{now + backoff, retry_seq_++, request, attempt + 1});
    }
    fault_cv_.notify_all();
    return;
  }
  if (config_.telemetry) config_.telemetry->RecordEnqueue(request, Now());
  if (!TryDispatchLocked(request)) {
    buffer_.PushBack(request);
    if (config_.telemetry) {
      config_.telemetry->RecordBuffered(request, Now());
      UpdateClusterGaugesLocked();
    }
  }
}

bool LiveTestbed::Impl::TryDispatchLocked(const Request& request) {
  const InstanceId id = scheme_.SelectInstance(request, *this);
  if (id == kInvalidInstance) return false;
  ARLO_CHECK(id < workers_.size());
  if (config_.max_worker_queue > 0 &&
      OutstandingOn(id) >= config_.max_worker_queue) {
    return false;  // backpressure into the central (class-aware) buffer
  }
  Worker& w = *workers_[id];
  {
    std::lock_guard lk(w.mu);
    ARLO_CHECK_MSG(w.ready && !w.retiring && !w.gone,
                   "scheme selected an unavailable worker");
    if (w.gen) {
      w.gen->Enqueue(batch::Item{request, Now()});
    } else {
      w.queue.push_back(batch::Item{request, Now()});
    }
  }
  scheme_.OnDispatched(request, id);
  ++outstanding_;
  if (config_.telemetry) {
    config_.telemetry->RecordDispatch(request, Now(), id, w.runtime);
    UpdateClusterGaugesLocked();
  }
  w.cv.notify_one();
  return true;
}

void LiveTestbed::Impl::RetryBufferedLocked() {
  while (!buffer_.Empty()) {
    if (!TryDispatchLocked(buffer_.Front(Now()))) return;
    buffer_.PopFront();
  }
}

bool LiveTestbed::Impl::KillWorkerLocked(InstanceId id) {
  // dispatch_mu_ held.  A kill against a worker that is not currently
  // serving (still provisioning, retiring, or already dead) is a no-op.
  if (id >= workers_.size()) return false;
  Worker& w = *workers_[id];
  std::vector<batch::Item> orphans;
  {
    std::lock_guard lk(w.mu);
    if (!w.ready || w.retiring || w.gone) return false;
    w.killed = true;
    w.gone = true;
    if (w.gen) {
      // Crash loses the KV caches: waiting AND resident sequences (including
      // any in-flight iteration's) are re-dispatched and prefill again
      // (recompute) on whichever worker they land on next.  The worker
      // thread observes `killed` and exits without completing the iteration.
      orphans = w.gen->StealAll();
    } else {
      orphans.assign(w.queue.begin(), w.queue.end());
      w.queue.clear();
    }
  }
  --live_workers_;
  live_rel_.store(live_workers_, std::memory_order_relaxed);
  {
    std::lock_guard h(health_mu_);
    health_.OnGone(id);
  }
  ++injected_failures_;
  ++faults_injected_;
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceFailure(Now(), id);
    UpdateClusterGaugesLocked();
  }
  // The scheme drops the worker first (and may launch a replacement), so
  // requeued orphans can only be dispatched to surviving workers.
  scheme_.OnInstanceFailure(id, *this);
  for (const auto& q : orphans) {
    --outstanding_;
    ++requeues_;
    if (config_.telemetry) {
      config_.telemetry->RecordRequeue(q.request, Now(), id);
    }
    HandleArrivalLocked(q.request);
  }
  // An in-flight request (w.executing) is requeued by the worker thread
  // itself when its service wait ends and it observes `killed`.
  w.cv.notify_all();
  RetryBufferedLocked();
  return true;
}

void LiveTestbed::Impl::ApplyPlanEventLocked(const fault::FaultEvent& event) {
  // dispatch_mu_ held.
  switch (event.kind) {
    case fault::FaultKind::kCrash:
      KillWorkerLocked(event.instance);
      break;
    case fault::FaultKind::kHang: {
      if (event.instance >= workers_.size() || event.duration <= 0) return;
      Worker& w = *workers_[event.instance];
      std::lock_guard lk(w.mu);
      if (!w.ready || w.retiring || w.gone) return;
      w.hung_until = std::max(w.hung_until, Now() + event.duration);
      ++faults_injected_;
      if (config_.telemetry) {
        config_.telemetry->RecordFaultHang(Now(), event.instance,
                                           event.duration);
      }
      break;
    }
    case fault::FaultKind::kSlowdown: {
      if (event.instance >= workers_.size() || event.duration <= 0 ||
          event.factor <= 0.0) {
        return;
      }
      Worker& w = *workers_[event.instance];
      std::lock_guard lk(w.mu);
      if (!w.ready || w.retiring || w.gone) return;
      w.slow_until = std::max(w.slow_until, Now() + event.duration);
      w.slow_factor = event.factor;
      ++faults_injected_;
      if (config_.telemetry) {
        config_.telemetry->RecordFaultSlowdown(Now(), event.instance,
                                               event.duration, event.factor);
      }
      break;
    }
  }
}

std::vector<InstanceId> LiveTestbed::Impl::FindHungLocked(SimTime now) {
  // dispatch_mu_ held (workers_ indexing).  The tracker decides "held work,
  // no progress past the timeout"; the callback supplies live outstanding,
  // reporting 0 for provisioning/retiring/dead workers so only servable
  // hangs are reaped.
  std::lock_guard h(health_mu_);
  return health_.FindHung(now, [this](InstanceId id) {
    if (id >= workers_.size()) return 0;
    const Worker& w = *workers_[id];
    std::lock_guard lk(w.mu);
    if (!w.ready || w.retiring || w.gone) return 0;
    if (w.gen) return w.gen->WaitingCount() + w.gen->ResidentCount();
    return static_cast<int>(w.queue.size()) + w.executing;
  });
}

void LiveTestbed::Impl::RunHealthCheckLocked() {
  // dispatch_mu_ held.  Reap workers holding work with no pick/completion
  // for longer than the timeout — exactly the crash path, so recovery
  // (scheme replacement + requeue) is identical.
  for (const InstanceId id : FindHungLocked(Now())) KillWorkerLocked(id);
}

void LiveTestbed::Impl::FaultLoop() {
  constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  const fault::FaultPlan& plan = *config_.fault_plan;
  const std::vector<fault::FaultEvent> events = plan.Sorted();
  std::size_t next_event = 0;
  // Distinct stream from dispatch_rng_ (which draws transient errors and
  // jitter under dispatch_mu_): gaps and victims for random crashes.
  Rng crash_rng(plan.seed + 1);
  SimTime next_crash = kNever;
  if (plan.random_crash_mtbf_s > 0.0) {
    next_crash = Seconds(crash_rng.Exponential(1.0 / plan.random_crash_mtbf_s));
  }
  const bool health = config_.resilience.hang_timeout > 0;
  SimTime next_health = health ? config_.resilience.health_check_period : kNever;

  for (;;) {
    SimTime due = kNever;
    if (next_event < events.size()) due = std::min(due, events[next_event].at);
    due = std::min(due, next_crash);
    due = std::min(due, next_health);
    {
      std::unique_lock lk(fault_mu_);
      if (!retry_heap_.empty()) due = std::min(due, retry_heap_.top().release);
      const auto woken = [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               (!retry_heap_.empty() && retry_heap_.top().release < due);
      };
      if (due == kNever) {
        fault_cv_.wait(lk, woken);
      } else {
        fault_cv_.wait_until(lk, SimToWall(due), woken);
      }
      if (stopping_.load(std::memory_order_relaxed)) return;
    }

    const SimTime now = Now();
    std::vector<PendingRetry> due_retries;
    {
      std::lock_guard lk(fault_mu_);
      while (!retry_heap_.empty() && retry_heap_.top().release <= now) {
        due_retries.push_back(retry_heap_.top());
        retry_heap_.pop();
      }
    }
    std::lock_guard global(dispatch_mu_);
    for (const PendingRetry& r : due_retries) {
      HandleArrivalLocked(r.request, r.attempt);
    }
    while (next_event < events.size() && events[next_event].at <= now) {
      ApplyPlanEventLocked(events[next_event]);
      ++next_event;
    }
    if (next_crash <= now) {
      // Random background crash: uniform victim among live workers.
      std::vector<InstanceId> live;
      for (InstanceId id = 0; id < workers_.size(); ++id) {
        const Worker& w = *workers_[id];
        std::lock_guard lk(w.mu);
        if (w.ready && !w.retiring && !w.gone) live.push_back(id);
      }
      if (!live.empty()) {
        KillWorkerLocked(live[static_cast<std::size_t>(crash_rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1))]);
      }
      next_crash =
          now + Seconds(crash_rng.Exponential(1.0 / plan.random_crash_mtbf_s));
    }
    if (next_health <= now) {
      RunHealthCheckLocked();
      while (next_health <= now) {
        next_health += config_.resilience.health_check_period;
      }
    }
  }
}

void LiveTestbed::Impl::WorkerLoop(InstanceId id, Worker& w) {
  // Provisioning delay, then announce readiness.
  if (w.ready_delay > 0) {
    PreciseWaitUntil(
        Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(
                           static_cast<double>(w.ready_delay) *
                           config_.time_scale)),
        std::chrono::nanoseconds(config_.spin_threshold));
  }
  {
    std::lock_guard global(dispatch_mu_);
    bool was_retired;
    {
      std::lock_guard lk(w.mu);
      was_retired = w.gone || w.retiring;
      if (!was_retired) w.ready = true;
    }
    if (was_retired) return;
    {
      std::lock_guard h(health_mu_);
      health_.OnReady(id, Now());
    }
    scheme_.OnInstanceReady(id, w.runtime);
    RetryBufferedLocked();
  }

  if (w.gen) {
    GenWorkerRun(id, w);
    return;
  }

  for (;;) {
    std::vector<batch::Item> items;
    bool timed_out = false;
    double slow_factor = 1.0;
    {
      std::unique_lock lk(w.mu);
      // Batch formation: ask the policy what to run; an empty take means
      // "wait for the batch to fill", implemented as a timed cv wait so new
      // arrivals, kills, and retirement interrupt the wait immediately.
      for (;;) {
        w.cv.wait(lk, [&] {
          return !w.queue.empty() || w.gone || w.retiring;
        });
        if (w.gone && w.queue.empty()) return;  // killed or retired-drained
        if (w.queue.empty()) return;            // retiring and drained
        batch::BatchContext ctx;
        ctx.now = Now();
        ctx.max_batch = config_.max_batch;
        ctx.per_request_overhead = config_.per_request_overhead;
        ctx.draining = w.retiring || w.killed;
        const batch::BatchDecision d = policy_->Decide(w.queue, *w.rt, ctx);
        if (!d.take.empty()) {
          std::size_t prev_idx = 0;
          for (std::size_t k = 0; k < d.take.size(); ++k) {
            const std::size_t idx = d.take[k];
            ARLO_CHECK_MSG(idx < w.queue.size() && (k == 0 || idx > prev_idx),
                           "batch policy returned invalid take indices");
            prev_idx = idx;
            items.push_back(w.queue[idx]);
          }
          for (auto it = d.take.rbegin(); it != d.take.rend(); ++it) {
            w.queue.erase(w.queue.begin() + static_cast<std::ptrdiff_t>(*it));
          }
          timed_out = d.timed_out;
          w.executing = static_cast<int>(items.size());
          if (Now() < w.slow_until) slow_factor = w.slow_factor;
          break;
        }
        ARLO_CHECK_MSG(d.wait > 0,
                       "batch policy must take requests or wait a positive "
                       "time");
        // Sleep out the budget, but re-decide early when the queue changes
        // (a deeper queue may fill the batch before the deadline).
        const std::size_t depth = w.queue.size();
        w.cv.wait_until(lk, SimToWall(Now() + d.wait), [&] {
          return w.gone || w.retiring || w.killed || w.queue.size() != depth;
        });
      }
    }
    // Progress marks go to the health tracker with no worker lock held
    // (lock order: health_mu_ is taken before w.mu only by the hang scan).
    {
      std::lock_guard h(health_mu_);
      health_.OnProgress(id, Now());
    }

    int max_len = 1;
    int sum_len = 0;
    for (const batch::Item& item : items) {
      max_len = std::max(max_len, item.request.length);
      sum_len += item.request.length;
    }
    const int n = static_cast<int>(items.size());
    const SimTime start_sim = Now();
    const SimDuration service = static_cast<SimDuration>(
        static_cast<double>(
            static_cast<SimDuration>(n) * config_.per_request_overhead +
            w.rt->BatchComputeTime(n, max_len)) *
        slow_factor);
    const SimDuration oldest_wait = start_sim - items.front().queued_at;
    batches_formed_.fetch_add(1, std::memory_order_relaxed);
    if (timed_out) batch_timeouts_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t prev_form =
        ewma_form_ns_.load(std::memory_order_relaxed);
    ewma_form_ns_.store(prev_form == 0
                            ? oldest_wait
                            : prev_form - prev_form / 8 + oldest_wait / 8,
                        std::memory_order_relaxed);
    if (config_.telemetry) {
      const batch::PaddingTokens tokens =
          batch::BatchPaddingTokens(*w.rt, n, sum_len, max_len);
      config_.telemetry->RecordBatchFormed(start_sim, id, n, tokens.useful,
                                           tokens.computed, oldest_wait,
                                           timed_out);
    }
    PreciseWaitUntil(SimToWall(start_sim + service),
                     std::chrono::nanoseconds(config_.spin_threshold));

    // A hang freezes the worker: an in-flight completion slides past the
    // window's end.  Waits on the worker cv (not PreciseWaitUntil) so a
    // kill — e.g. the health check reaping this very hang — interrupts the
    // freeze immediately instead of sleeping out the whole window; the
    // predicate re-reads hung_until because a hang may extend mid-wait.
    bool recovered_from_hang = false;
    {
      std::unique_lock lk(w.mu);
      while (!w.killed && Now() < w.hung_until) {
        recovered_from_hang = true;
        w.cv.wait_until(lk, SimToWall(w.hung_until),
                        [&] { return w.killed; });
      }
      if (recovered_from_hang && !w.killed && config_.telemetry) {
        config_.telemetry->RecordFaultRecover(Now(), id);
      }
    }

    {
      std::lock_guard global(dispatch_mu_);
      bool was_killed;
      {
        std::lock_guard lk(w.mu);
        was_killed = w.killed;
      }
      if (was_killed) {
        // Crashed mid-service: the in-flight batch is requeued with its
        // original arrival times; no completions are recorded.  The scheme
        // was already detached from this worker by KillWorkerLocked.
        for (const batch::Item& item : items) {
          --outstanding_;
          ++requeues_;
          if (config_.telemetry) {
            config_.telemetry->RecordRequeue(item.request, Now(), id);
          }
          HandleArrivalLocked(item.request);
        }
        RetryBufferedLocked();
        return;
      }
      const SimTime completion = Now();
      for (const batch::Item& item : items) {
        RequestRecord record;
        record.id = item.request.id;
        record.arrival = item.request.arrival;
        record.dispatch = item.queued_at;
        record.start = start_sim;
        record.completion = completion;
        record.length = item.request.length;
        record.stream = item.request.stream;
        record.tenant_class = item.request.tenant_class;
        record.runtime = w.runtime;
        record.instance = id;
        records_.push_back(record);
        ++completed_;
        if (!class_completed_.empty()) {
          ++class_completed_[static_cast<std::size_t>(
              config_.tenants->Clamp(record.tenant_class))];
        }
        completed_rel_.fetch_add(1, std::memory_order_relaxed);
        --outstanding_;
        // Per-request share of the batch's service time, so the admission
        // estimate stays a per-request quantity under batching.
        const std::int64_t observed = record.ServiceTime() / n;
        const std::int64_t prev =
            ewma_service_ns_.load(std::memory_order_relaxed);
        ewma_service_ns_.store(
            prev == 0 ? observed : prev - prev / 8 + observed / 8,
            std::memory_order_relaxed);
        if (config_.telemetry) {
          config_.telemetry->RecordComplete(record);
          UpdateClusterGaugesLocked();
        }
        scheme_.OnComplete(record, *this);
        if (auto it = callbacks_.find(record.id); it != callbacks_.end()) {
          CompletionFn done = std::move(it->second);
          callbacks_.erase(it);
          if (done) done(record);
        }
      }

      bool drained;
      {
        std::lock_guard lk(w.mu);
        w.executing = 0;
        drained = w.retiring && w.queue.empty();
      }
      {
        std::lock_guard h(health_mu_);
        health_.OnProgress(id, Now());
      }
      if (drained) FinalizeRetirementLocked(id);
      RetryBufferedLocked();
      if (completed_ >= submitted_) all_done_cv_.notify_all();
      if (drained) return;
    }
  }
}

void LiveTestbed::Impl::GenWorkerRun(InstanceId id, Worker& w) {
  // Iteration loop: plan (under w.mu), sleep out the modeled iteration
  // time with no locks held, then complete under the dispatch lock —
  // mirroring the one-shot WorkerLoop's structure so kills, hangs, and
  // retirement compose identically.
  for (;;) {
    batch::IterationPlan plan;
    double slow_factor = 1.0;
    SimTime start_sim = 0;
    {
      std::unique_lock lk(w.mu);
      for (;;) {
        w.cv.wait(lk, [&] { return w.gone || w.retiring || !w.gen->Idle(); });
        if (w.gone) return;  // killed (StealAll already requeued everything)
        if (w.retiring && w.gen->Idle()) return;  // drained shutdown
        start_sim = Now();
        plan = w.gen->BeginIteration(start_sim);
        if (plan.kind != batch::IterationPlan::Kind::kNone) break;
      }
      w.executing = plan.batch;
      if (start_sim < w.slow_until) slow_factor = w.slow_factor;
    }
    {
      std::lock_guard h(health_mu_);
      health_.OnProgress(id, Now());
    }

    SimDuration service;
    if (plan.kind == batch::IterationPlan::Kind::kPrefill) {
      service = static_cast<SimDuration>(plan.batch) *
                    config_.per_request_overhead +
                w.rt->BatchComputeTime(plan.batch, plan.max_len);
    } else {
      service = w.rt->DecodeStepTime(plan.billed_batch, plan.max_len);
    }
    service = static_cast<SimDuration>(static_cast<double>(service) *
                                       slow_factor);
    gen_preemptions_.fetch_add(static_cast<std::uint64_t>(plan.preempted),
                               std::memory_order_relaxed);
    if (plan.kind == batch::IterationPlan::Kind::kPrefill) {
      batches_formed_.fetch_add(1, std::memory_order_relaxed);
      gen_prefill_iters_.fetch_add(1, std::memory_order_relaxed);
      if (config_.telemetry) {
        config_.telemetry->RecordGenPrefill(start_sim, id, plan.batch,
                                            plan.preempted, service);
      }
    } else {
      gen_decode_iters_.fetch_add(1, std::memory_order_relaxed);
    }
    PreciseWaitUntil(SimToWall(start_sim + service),
                     std::chrono::nanoseconds(config_.spin_threshold));

    // Hang freeze: the iteration's completion slides past the window, same
    // as the one-shot path; a kill interrupts the freeze immediately.
    bool recovered_from_hang = false;
    {
      std::unique_lock lk(w.mu);
      while (!w.killed && Now() < w.hung_until) {
        recovered_from_hang = true;
        w.cv.wait_until(lk, SimToWall(w.hung_until), [&] { return w.killed; });
      }
      if (recovered_from_hang && !w.killed && config_.telemetry) {
        config_.telemetry->RecordFaultRecover(Now(), id);
      }
    }

    {
      std::lock_guard global(dispatch_mu_);
      batch::ContinuousBatcher::IterationResult result;
      bool was_killed;
      {
        std::lock_guard lk(w.mu);
        was_killed = w.killed;
        if (!was_killed) {
          result = w.gen->CompleteIteration(Now());
          w.executing = 0;
        }
      }
      if (was_killed) {
        // KillWorkerLocked stole and requeued every sequence (the KV caches
        // are gone); nothing to complete here.
        return;
      }
      const SimTime completion = Now();
      if (config_.telemetry) {
        if (result.plan.kind == batch::IterationPlan::Kind::kDecode) {
          config_.telemetry->RecordGenDecodeStep(
              completion, id, result.plan.batch, completion - start_sim);
        }
        for (const batch::Item& item : result.first_tokens) {
          config_.telemetry->RecordGenFirstToken(
              item.request, completion, completion - item.request.arrival);
        }
      }
      for (batch::GenSequence& seq : result.finished) {
        RequestRecord record;
        record.id = seq.item.request.id;
        record.arrival = seq.item.request.arrival;
        record.dispatch = seq.item.queued_at;
        record.start = seq.prefill_start;
        record.first_token = seq.first_token;
        record.completion = completion;
        record.length = seq.item.request.length;
        record.decode_len = seq.item.request.decode_len;
        record.stream = seq.item.request.stream;
        record.tenant_class = seq.item.request.tenant_class;
        record.runtime = w.runtime;
        record.instance = id;
        records_.push_back(record);
        ++completed_;
        if (!class_completed_.empty()) {
          ++class_completed_[static_cast<std::size_t>(
              config_.tenants->Clamp(record.tenant_class))];
        }
        completed_rel_.fetch_add(1, std::memory_order_relaxed);
        --outstanding_;
        const std::int64_t observed = record.ServiceTime();
        const std::int64_t prev =
            ewma_service_ns_.load(std::memory_order_relaxed);
        ewma_service_ns_.store(
            prev == 0 ? observed : prev - prev / 8 + observed / 8,
            std::memory_order_relaxed);
        if (config_.telemetry) {
          config_.telemetry->RecordComplete(record);
          UpdateClusterGaugesLocked();
        }
        scheme_.OnComplete(record, *this);
        if (auto it = callbacks_.find(record.id); it != callbacks_.end()) {
          CompletionFn done = std::move(it->second);
          callbacks_.erase(it);
          if (done) done(record);
        }
      }
      UpdateGenGaugesLocked();

      bool drained;
      {
        std::lock_guard lk(w.mu);
        drained = w.retiring && w.gen->Idle();
      }
      {
        std::lock_guard h(health_mu_);
        health_.OnProgress(id, Now());
      }
      if (drained) FinalizeRetirementLocked(id);
      RetryBufferedLocked();
      if (completed_ >= submitted_) all_done_cv_.notify_all();
      if (drained) return;
    }
  }
}

void LiveTestbed::Impl::UpdateGenGaugesLocked() {
  if (!config_.telemetry || !config_.generative) return;
  std::int64_t resident = 0;
  std::int64_t capacity = 0;
  for (const auto& worker : workers_) {
    const Worker& w = *worker;
    std::lock_guard lk(w.mu);
    if (w.gone || !w.gen) continue;
    resident += w.gen->ResidentCount();
    capacity += w.gen->KvCapacity();
  }
  config_.telemetry->SetGenKvGauges(resident, capacity);
}

void LiveTestbed::Impl::UpdateClusterGaugesLocked() {
  config_.telemetry->SetClusterGauges(
      live_workers_, outstanding_, static_cast<std::int64_t>(buffer_.Size()));
}

void LiveTestbed::Impl::SnapshotLoop() {
  const SimDuration period = config_.telemetry->SnapshotPeriod();
  ARLO_CHECK(period > 0);
  SimTime next = period;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (PreciseWaitUntilOrStopped(SimToWall(next),
                                  std::chrono::nanoseconds(
                                      config_.spin_threshold),
                                  stopping_)) {
      return;
    }
    // Stamp the scheduled grid time, not the jittery wake time: the sim
    // engine snapshots at exact multiples of the period on virtual time, so
    // stamping `next` keeps testbed CSV rows on the same monotonic grid
    // (one clock convention for the series).  The final row, taken in
    // Finish(), is stamped Now() — matching the engine's end-of-run row.
    config_.telemetry->Snapshot(next);
    next += period;
  }
}

void LiveTestbed::Impl::TickLoop() {
  const SimDuration interval = scheme_.TickInterval();
  SimTime next = interval;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (PreciseWaitUntilOrStopped(SimToWall(next),
                                  std::chrono::nanoseconds(
                                      config_.spin_threshold),
                                  stopping_)) {
      return;
    }
    std::lock_guard global(dispatch_mu_);
    scheme_.OnTick(Now(), *this);
    RetryBufferedLocked();
    next += interval;
  }
}

void LiveTestbed::Impl::Start() {
  ARLO_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  start_ = Clock::now();
  scheme_.SetTelemetry(config_.telemetry);
  if (config_.fault_plan) dispatch_rng_ = Rng(config_.fault_plan->seed);
  {
    std::lock_guard global(dispatch_mu_);
    scheme_.Setup(*this);
  }
  ticker_ = std::thread([this] { TickLoop(); });
  if (config_.telemetry) {
    snapshotter_ = std::thread([this] { SnapshotLoop(); });
  }
  if (config_.fault_plan) {
    fault_supervisor_ = std::thread([this] { FaultLoop(); });
  }
}

void LiveTestbed::Impl::Submit(const Request& request, CompletionFn done) {
  submitted_rel_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard global(dispatch_mu_);
  ++submitted_;
  if (!mix_counts_.empty()) {
    // First bin whose upper bound covers the length; overflow lands in the
    // last bin so the histogram total always matches `submitted`.
    std::size_t bin = 0;
    while (bin + 1 < mix_counts_.size() &&
           request.length > config_.mix_bounds[bin]) {
      ++bin;
    }
    ++mix_counts_[bin];
  }
  if (done) callbacks_.emplace(request.id, std::move(done));
  HandleArrivalLocked(request);
}

bool LiveTestbed::Impl::ApplyAllocation(const std::vector<int>& allocation) {
  std::lock_guard global(dispatch_mu_);
  const bool ok = scheme_.ApplyExternalAllocation(allocation, *this);
  if (ok) {
    ++reallocs_applied_;
    last_realloc_ = Now();
    // The new target may have retired workers and requeued their work;
    // give the buffer a chance to land on survivors immediately.
    RetryBufferedLocked();
  } else {
    ++reallocs_rejected_;
  }
  return ok;
}

TestbedHealth LiveTestbed::Impl::Health() {
  std::lock_guard global(dispatch_mu_);
  TestbedHealth h;
  h.live_workers = live_workers_;
  h.outstanding = outstanding_;
  {
    std::lock_guard hl(health_mu_);
    h.tracked = health_.NumTracked();
  }
  h.hung = FindHungLocked(Now());
  h.ok = live_workers_ > 0 && h.hung.empty();
  return h;
}

void LiveTestbed::Impl::WriteStatusJson(std::ostream& os) {
  std::lock_guard global(dispatch_mu_);
  const SimTime now = Now();
  os << "{\"time_s\":" << ToSeconds(now) << ",\"submitted\":" << submitted_
     << ",\"completed\":" << completed_ << ",\"inflight\":" << outstanding_
     << ",\"buffered\":" << buffer_.Size()
     << ",\"live_workers\":" << live_workers_
     << ",\"peak_workers\":" << peak_workers_
     // The admission estimate, exported so a router tier can steer on
     // backend queue pressure without a second estimator.
     << ",\"est_queue_delay_ns\":" << EstimatedQueueDelay();
  os << ",\"batches\":{\"formed\":"
     << batches_formed_.load(std::memory_order_relaxed) << ",\"timeouts\":"
     << batch_timeouts_.load(std::memory_order_relaxed) << "}";
  if (!mix_counts_.empty()) {
    // Cumulative submitted-length histogram; the cluster Runtime Scheduler
    // diffs successive scrapes into a windowed demand observation.
    os << ",\"length_mix\":{\"bounds\":[";
    for (std::size_t i = 0; i < config_.mix_bounds.size(); ++i) {
      if (i > 0) os << ",";
      os << config_.mix_bounds[i];
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < mix_counts_.size(); ++i) {
      if (i > 0) os << ",";
      os << mix_counts_[i];
    }
    os << "]}";
  }
  os << ",\"reallocs\":{\"applied\":" << reallocs_applied_
     << ",\"rejected\":" << reallocs_rejected_;
  if (last_realloc_ >= 0) {
    os << ",\"last_s\":" << ToSeconds(last_realloc_);
  }
  os << "}";
  if (config_.tenants != nullptr && !config_.tenants->Empty()) {
    os << ",\"tenants\":[";
    for (int c = 0; c < config_.tenants->Size(); ++c) {
      const tenant::TenantClass& klass = config_.tenants->Class(c);
      if (c > 0) os << ",";
      os << "{\"class\":" << c << ",\"name\":\"" << klass.name
         << "\",\"weight\":" << klass.weight
         << ",\"slo_ms\":" << ToSeconds(klass.slo) * 1e3
         << ",\"buffered\":" << buffer_.ClassDepth(c)
         << ",\"completed\":" << class_completed_[static_cast<std::size_t>(c)];
      // Head-of-line queueing delay: how long the class's oldest buffered
      // request has waited.  Zero when nothing is buffered.
      const SimTime head = buffer_.ClassHeadArrival(c);
      os << ",\"queue_delay_ns\":" << (head >= 0 ? now - head : 0) << "}";
    }
    os << "]";
  }
  os << ",\"workers\":[";
  for (InstanceId id = 0; id < workers_.size(); ++id) {
    const Worker& w = *workers_[id];
    int queued;
    int executing;
    const char* state;
    RuntimeId runtime;
    int max_length;
    {
      std::lock_guard lk(w.mu);
      queued = w.gen ? w.gen->WaitingCount() + w.gen->ResidentCount()
                     : static_cast<int>(w.queue.size());
      executing = w.executing;
      state = w.gone ? (w.killed ? "killed" : "gone")
                     : (w.retiring ? "retiring"
                                   : (w.ready ? "ready" : "provisioning"));
      runtime = w.runtime;
      max_length = w.rt ? w.rt->MaxLength() : 0;
    }
    SimTime last_progress;
    {
      std::lock_guard h(health_mu_);
      last_progress = health_.LastProgress(id);
    }
    if (id > 0) os << ",";
    os << "{\"id\":" << id << ",\"runtime\":"
       << static_cast<std::int64_t>(runtime) << ",\"state\":\"" << state
       << "\",\"max_length\":" << max_length << ",\"queued\":" << queued
       << ",\"executing\":" << executing;
    if (last_progress >= 0) {
      os << ",\"idle_s\":" << ToSeconds(now - last_progress);
    }
    os << "}";
  }
  os << "]";
  // Per-stage latency summary, present only once stage metrics are enabled
  // (a net::Server with tracing wired up) so plain testbeds keep emitting
  // the exact statusz bytes they always have.
  if (config_.telemetry != nullptr && config_.telemetry->StageMetricsEnabled()) {
    os << ",\"stages\":";
    config_.telemetry->WriteStageSummaryJson(os);
  }
  os << ",\"scheme\":";
  scheme_.WriteStatusJson(os, now);
  os << "}";
}

SimDuration LiveTestbed::Impl::EstimatedQueueDelay() const {
  const std::int64_t service = ewma_service_ns_.load(std::memory_order_relaxed);
  const int workers = std::max(1, live_rel_.load(std::memory_order_relaxed));
  const std::int64_t in_system =
      std::max<std::int64_t>(0, submitted_rel_.load(std::memory_order_relaxed) -
                                    completed_rel_.load(
                                        std::memory_order_relaxed));
  // Formation wait: a waiting batch policy (e.g. "slo") holds requests in
  // the worker queue past their dispatch, which per-request service EWMAs
  // cannot see.  Its own EWMA adds that delay so admission keeps tracking.
  const std::int64_t form = ewma_form_ns_.load(std::memory_order_relaxed);
  return static_cast<SimDuration>(service * in_system / workers + form);
}

void LiveTestbed::Impl::Drain() {
  std::unique_lock global(dispatch_mu_);
  all_done_cv_.wait(global, [&] { return completed_ >= submitted_; });
}

TestbedResult LiveTestbed::Impl::Finish() {
  ARLO_CHECK_MSG(started_ && !finished_, "Finish without Start, or twice");
  finished_ = true;
  Drain();
  stopping_.store(true, std::memory_order_relaxed);
  ticker_.join();
  if (fault_supervisor_.joinable()) {
    {
      std::lock_guard lk(fault_mu_);  // pairs with the fault_cv_ wait
    }
    fault_cv_.notify_all();
    fault_supervisor_.join();
  }
  if (snapshotter_.joinable()) snapshotter_.join();
  if (config_.telemetry) config_.telemetry->Snapshot(Now());  // final row

  // Shut down workers: mark retired so loops exit, then join.
  {
    std::lock_guard global(dispatch_mu_);
    for (auto& w : workers_) {
      std::lock_guard lk(w->mu);
      w->retiring = true;
    }
  }
  for (auto& w : workers_) w->cv.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }

  TestbedResult out;
  out.records.assign(std::make_move_iterator(records_.begin()),
                     std::make_move_iterator(records_.end()));
  records_.clear();
  out.peak_workers = peak_workers_;
  out.injected_failures = injected_failures_;
  out.faults_injected = faults_injected_;
  out.retries = retries_;
  out.requeues = requeues_;
  out.batches_formed = batches_formed_.load(std::memory_order_relaxed);
  out.batch_timeouts = batch_timeouts_.load(std::memory_order_relaxed);
  out.gen_prefill_iterations =
      gen_prefill_iters_.load(std::memory_order_relaxed);
  out.gen_decode_iterations =
      gen_decode_iters_.load(std::memory_order_relaxed);
  out.gen_preemptions = gen_preemptions_.load(std::memory_order_relaxed);
  SimTime end = 0;
  for (const auto& r : out.records) end = std::max(end, r.completion);
  out.end_time = end;
  return out;
}

LiveTestbed::LiveTestbed(sim::Scheme& scheme, const TestbedConfig& config)
    : impl_(std::make_unique<Impl>(scheme, config)) {}

LiveTestbed::~LiveTestbed() {
  if (impl_ && impl_->Running()) (void)impl_->Finish();
}

void LiveTestbed::Start() { impl_->Start(); }

SimTime LiveTestbed::Now() const { return impl_->Now(); }

const TestbedConfig& LiveTestbed::Config() const { return impl_->Config(); }

void LiveTestbed::Submit(const Request& request, CompletionFn done) {
  impl_->Submit(request, std::move(done));
}

bool LiveTestbed::ApplyAllocation(const std::vector<int>& allocation) {
  return impl_->ApplyAllocation(allocation);
}

int LiveTestbed::Outstanding() const { return impl_->InSystemRelaxed(); }

int LiveTestbed::NumWorkers() const { return impl_->LiveWorkersRelaxed(); }

SimDuration LiveTestbed::EstimatedQueueDelay() const {
  return impl_->EstimatedQueueDelay();
}

TestbedHealth LiveTestbed::Health() { return impl_->Health(); }

void LiveTestbed::WriteStatusJson(std::ostream& os) {
  impl_->WriteStatusJson(os);
}

void LiveTestbed::Drain() { impl_->Drain(); }

TestbedResult LiveTestbed::Finish() { return impl_->Finish(); }

namespace {

/// Waits until `deadline` in <= 50 ms slices, returning early (true) when
/// `cancel` fires — the trace replay loop's interruptible arrival wait.
bool CancellableWaitUntil(Clock::time_point deadline,
                          std::chrono::nanoseconds spin,
                          const std::atomic<bool>* cancel) {
  constexpr auto kSlice = std::chrono::milliseconds(50);
  for (;;) {
    if (cancel && cancel->load(std::memory_order_relaxed)) return true;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    if (deadline - now > kSlice) {
      std::this_thread::sleep_for(kSlice);
      continue;
    }
    PreciseWaitUntil(deadline, spin);
    return false;
  }
}

}  // namespace

TestbedResult RunTestbed(const trace::Trace& trace, sim::Scheme& scheme,
                         const TestbedConfig& config) {
  LiveTestbed testbed(scheme, config);
  testbed.Start();
  // Replay arrivals at their scaled wall-clock times: request r is due when
  // Now() reaches r.arrival.  The wait is sliced so config.cancel (SIGINT
  // in examples/live_serving) interrupts the replay promptly; submitted
  // requests still drain through Finish().
  for (const Request& r : trace.Requests()) {
    if (config.cancel && config.cancel->load(std::memory_order_relaxed)) break;
    const SimTime now = testbed.Now();
    if (r.arrival > now) {
      const auto deadline =
          Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(
                             static_cast<double>(r.arrival - now) *
                             config.time_scale));
      if (CancellableWaitUntil(deadline,
                               std::chrono::nanoseconds(config.spin_threshold),
                               config.cancel)) {
        break;
      }
    }
    testbed.Submit(r);
  }
  return testbed.Finish();
}

}  // namespace arlo::serving
