#include "sim/executor.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/sink.h"

namespace arlo::sim {

ExecutorCore::ExecutorCore(Scheme& scheme, const ExecutorConfig& config,
                           EventShell& host, const Options& options)
    : scheme_(scheme),
      config_(config),
      host_(host),
      options_(options),
      buffer_(config.tenants),
      health_(config.resilience.hang_timeout),
      fault_rng_(config.fault_plan ? config.fault_plan->seed
                                   : options.legacy_fault_seed) {
  if (config_.batch_policy) {
    policy_ = config_.batch_policy;
  } else {
    owned_policy_ = batch::MakeBatchPolicy("greedy");
    policy_ = owned_policy_.get();
  }
  if (config_.telemetry) config_.telemetry->EnableServingMetrics();
}

SimTime ExecutorCore::Now() const { return host_.Now(); }

bool ExecutorCore::TrackHealth() const {
  return config_.fault_plan != nullptr || options_.always_track_health;
}

void ExecutorCore::AccumulateGpuTime() {
  const SimTime now = Now();
  const int active = NumInstances();
  tally_.gpu_ns += static_cast<double>(now - last_count_change_) *
                   static_cast<double>(active);
  last_count_change_ = now;
  if (options_.timeline) options_.timeline->RecordGpuCount(now, active);
}

void ExecutorCore::Finish() {
  AccumulateGpuTime();
  if (config_.telemetry) UpdateClusterGauges();
}

void ExecutorCore::CheckConserved() const {
  ARLO_CHECK_MSG(arrived_ == completed_ + tally_.sheds +
                                 static_cast<std::size_t>(outstanding_) +
                                 buffer_.Size() + deferred_,
                 "request conservation violated");
}

InstanceId ExecutorCore::LaunchInstance(
    RuntimeId runtime, std::shared_ptr<const runtime::CompiledRuntime> rt,
    SimDuration ready_delay) {
  ARLO_CHECK(rt != nullptr);
  ARLO_CHECK(ready_delay >= 0);
  AccumulateGpuTime();
  const auto id = static_cast<InstanceId>(instances_.size());
  Instance& inst = instances_.emplace_back();
  inst.runtime = runtime;
  inst.rt = std::move(rt);
  if (config_.generative) {
    inst.gen = std::make_unique<batch::ContinuousBatcher>(*config_.generative);
  }
  const int active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  tally_.peak_instances = std::max(tally_.peak_instances, active);
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceLaunch(Now(), id, runtime);
    UpdateClusterGauges();
  }
  host_.OnLaunched(id, ready_delay);
  return id;
}

bool ExecutorCore::MarkReady(InstanceId id) {
  Instance& inst = instances_[id];
  if (inst.gone) return false;  // retired before it became ready
  inst.ready = true;
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceReady(Now(), id, inst.runtime);
  }
  if (TrackHealth()) health_.OnReady(id, Now());
  scheme_.OnInstanceReady(id, inst.runtime);
  RetryBuffered();
  host_.Wake(id);
  return true;
}

void ExecutorCore::RetireInstance(InstanceId id) {
  ARLO_CHECK(id < instances_.size());
  Instance& inst = instances_[id];
  ARLO_CHECK_MSG(!inst.gone && !inst.retiring, "double retirement");
  inst.retiring = true;
  // Re-dispatch queued (not yet executing) requests through the scheme.
  // Generative instances keep their residents: in-flight and resident
  // sequences decode to completion in place, then retirement finalizes.
  std::vector<batch::Item> orphans;
  if (inst.gen) {
    orphans = inst.gen->StealWaiting();
  } else {
    orphans.assign(inst.queue.begin(), inst.queue.end());
    inst.queue.clear();
  }
  for (const batch::Item& q : orphans) {
    --outstanding_;  // TryDispatch re-counts it wherever it lands
    Admit(q.request, 0);
  }
  if (inst.executing == 0 && (!inst.gen || inst.gen->Idle())) {
    FinalizeRetirement(id);
  }
  CheckConserved();
}

void ExecutorCore::FinalizeRetirement(InstanceId id) {
  Instance& inst = instances_[id];
  if (inst.gone) return;  // a scheme may retire from inside OnComplete
  ARLO_CHECK(inst.retiring && inst.executing == 0 && inst.queue.empty() &&
             (!inst.gen || inst.gen->Idle()));
  AccumulateGpuTime();
  inst.gone = true;
  inst.rt.reset();
  inst.gen.reset();
  active_.fetch_sub(1, std::memory_order_relaxed);
  health_.OnGone(id);
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceRetired(Now(), id);
    UpdateClusterGauges();
  }
  scheme_.OnInstanceRetired(id);
  host_.Wake(id);
}

int ExecutorCore::OutstandingOn(InstanceId id) const {
  ARLO_CHECK(id < instances_.size());
  const Instance& inst = instances_[id];
  if (inst.gen) return inst.gen->WaitingCount() + inst.gen->ResidentCount();
  return static_cast<int>(inst.queue.size() + inst.current_batch.size());
}

void ExecutorCore::Setup() {
  scheme_.SetTelemetry(config_.telemetry);
  scheme_.Setup(*this);
}

void ExecutorCore::Arrive(const Request& request) {
  ++arrived_;
  Admit(request, 0);
  CheckConserved();
}

void ExecutorCore::Admit(const Request& request, int attempt) {
  // Transient dispatch error: the attempt fails before touching the
  // scheduler and is retried with jittered exponential backoff.  After
  // max_attempts failures the request dispatches normally — the fault layer
  // must never turn a transient error into a lost request.
  const fault::FaultPlan* plan = config_.fault_plan;
  if (plan && plan->dispatch_error_prob > 0.0 &&
      attempt < config_.resilience.retry.max_attempts &&
      fault_rng_.Bernoulli(plan->dispatch_error_prob)) {
    ++tally_.retries;
    ++deferred_;
    const SimDuration backoff =
        config_.resilience.retry.BackoffFor(attempt, fault_rng_);
    if (config_.telemetry) {
      config_.telemetry->RecordRetry(request, Now(), attempt + 1, backoff);
    }
    host_.At(Now() + backoff, [this, request, attempt] {
      --deferred_;
      Admit(request, attempt + 1);
      CheckConserved();
    });
    return;
  }
  if (options_.timeline) options_.timeline->RecordArrival(Now());
  if (config_.telemetry) config_.telemetry->RecordEnqueue(request, Now());
  if (!TryDispatch(request)) {
    buffer_.PushBack(request);
    ++tally_.buffered;
    if (config_.telemetry) {
      config_.telemetry->RecordBuffered(request, Now());
      UpdateClusterGauges();
    }
  }
}

bool ExecutorCore::TryDispatch(const Request& request) {
  const InstanceId id = scheme_.SelectInstance(request, *this);
  if (id == kInvalidInstance) return false;
  ARLO_CHECK(id < instances_.size());
  if (options_.max_worker_queue > 0 &&
      OutstandingOn(id) >= options_.max_worker_queue) {
    return false;  // backpressure into the central (class-aware) buffer
  }
  Instance& inst = instances_[id];
  ARLO_CHECK_MSG(inst.Serving(), "scheme selected an unavailable instance");
  ARLO_CHECK_MSG(inst.rt->Accepts(request.length),
                 "scheme selected a runtime that cannot serve this length");
  const SimTime now = Now();
  if (inst.gen) {
    inst.gen->Enqueue(batch::Item{request, now});
  } else {
    inst.queue.push_back(batch::Item{request, now});
  }
  scheme_.OnDispatched(request, id);
  ++outstanding_;
  if (config_.telemetry) {
    config_.telemetry->RecordDispatch(request, now, id, inst.runtime);
    UpdateClusterGauges();
  }
  if (options_.timeline) {
    options_.timeline->RecordOutstanding(
        now, outstanding_ + static_cast<int>(buffer_.Size()));
  }
  host_.Wake(id);
  return true;
}

void ExecutorCore::RetryBuffered() {
  while (!buffer_.Empty()) {
    if (!TryDispatch(buffer_.Front(Now()))) break;
    buffer_.PopFront();
  }
  CheckConserved();
}

SimDuration ExecutorCore::Scaled(const Instance& inst, SimTime now,
                                 SimDuration service) {
  if (now >= inst.slow_until) return service;
  return static_cast<SimDuration>(static_cast<double>(service) *
                                  inst.slow_factor);
}

ExecutorCore::Start ExecutorCore::StartNext(InstanceId id) {
  Instance& inst = instances_[id];
  Start start;
  if (inst.gone || inst.executing > 0 || !inst.ready) return start;
  const SimTime now = Now();
  if (inst.hung_until > now) return start;  // frozen; recovery re-wakes

  SimDuration service = 0;
  if (inst.gen) {
    const batch::IterationPlan plan = inst.gen->BeginIteration(now);
    if (plan.kind == batch::IterationPlan::Kind::kNone) return start;
    if (plan.kind == batch::IterationPlan::Kind::kPrefill) {
      // A prefill cohort is priced like a one-shot batch: per-request
      // overhead plus the padded batched forward pass over the prompts.
      service = Scaled(inst, now,
                       static_cast<SimDuration>(plan.batch) *
                               config_.per_request_overhead +
                           inst.rt->BatchComputeTime(plan.batch, plan.max_len));
      ++tally_.batches_formed;
      ++tally_.gen_prefill_iterations;
      if (config_.telemetry) {
        config_.telemetry->RecordGenPrefill(now, id, plan.batch,
                                            plan.preempted, service);
      }
    } else {
      // One token for every resident sequence, billed at the batcher's
      // bucket (static mode keeps the cohort's launch shape until it
      // drains).
      service = Scaled(inst, now, inst.rt->DecodeStepTime(plan.billed_batch,
                                                          plan.max_len));
      ++tally_.gen_decode_iterations;
    }
    inst.executing = plan.batch;
    tally_.gen_preemptions += static_cast<std::uint64_t>(plan.preempted);
    UpdateGenGauges();
  } else {
    if (inst.queue.empty()) return start;
    // Ask the batch policy what to run.  An empty take means "wait for the
    // batch to fill" until the policy's deadline; arrivals and fault
    // recoveries re-poll sooner.
    batch::BatchContext ctx;
    ctx.now = now;
    ctx.max_batch = config_.max_batch;
    ctx.per_request_overhead = config_.per_request_overhead;
    const batch::BatchDecision decision =
        policy_->Decide(inst.queue, *inst.rt, ctx);
    if (decision.take.empty()) {
      ARLO_CHECK_MSG(decision.wait > 0,
                     "batch policy must take requests or wait a positive time");
      start.kind = Start::Kind::kWait;
      start.until = now + decision.wait;
      return start;
    }
    inst.current_batch.clear();
    int max_len = 1;
    int sum_len = 0;
    std::size_t prev_idx = 0;
    for (std::size_t k = 0; k < decision.take.size(); ++k) {
      const std::size_t idx = decision.take[k];
      ARLO_CHECK_MSG(idx < inst.queue.size() && (k == 0 || idx > prev_idx),
                     "batch policy returned invalid take indices");
      prev_idx = idx;
      inst.current_batch.push_back(inst.queue[idx]);
      max_len = std::max(max_len, inst.queue[idx].request.length);
      sum_len += inst.queue[idx].request.length;
    }
    for (auto it = decision.take.rbegin(); it != decision.take.rend(); ++it) {
      inst.queue.erase(inst.queue.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    const int n = static_cast<int>(inst.current_batch.size());
    service = Scaled(
        inst, now,
        static_cast<SimDuration>(n) * config_.per_request_overhead +
            inst.rt->BatchComputeTime(n, max_len));
    inst.executing = n;
    start.formation_wait = now - inst.current_batch.front().queued_at;
    ++tally_.batches_formed;
    if (decision.timed_out) ++tally_.batch_timeouts;
    if (config_.telemetry) {
      const batch::PaddingTokens tokens =
          batch::BatchPaddingTokens(*inst.rt, n, sum_len, max_len);
      config_.telemetry->RecordBatchFormed(now, id, n, tokens.useful,
                                           tokens.computed,
                                           start.formation_wait,
                                           decision.timed_out);
    }
  }
  inst.current_start = now;
  tally_.busy_ns += static_cast<double>(service);
  if (TrackHealth()) health_.OnProgress(id, now);
  start.kind = Start::Kind::kRun;
  start.until = now + service;
  return start;
}

void ExecutorCore::Served(InstanceId id, const batch::Item& item,
                          SimTime start, SimTime first_token, int batch) {
  const Instance& inst = instances_[id];
  RequestRecord record;
  record.id = item.request.id;
  record.arrival = item.request.arrival;
  record.dispatch = item.queued_at;
  record.start = start;
  record.first_token = first_token;
  record.completion = Now();
  record.length = item.request.length;
  if (config_.generative) record.decode_len = item.request.decode_len;
  record.stream = item.request.stream;
  record.tenant_class = item.request.tenant_class;
  record.runtime = inst.runtime;
  record.instance = id;
  ++completed_;
  --outstanding_;
  if (options_.timeline) options_.timeline->RecordCompletion(record);
  if (config_.telemetry) {
    config_.telemetry->RecordComplete(record);
    UpdateClusterGauges();
  }
  scheme_.OnComplete(record, *this);
  host_.OnServed(record, batch);
}

SimTime ExecutorCore::Complete(InstanceId id) {
  Instance& inst = instances_[id];
  if (inst.gone) return 0;  // lost to a crash
  const SimTime now = Now();
  // Frozen mid-batch: the completion is released when the hang window ends
  // (or never, if hang detection reaps the instance first).
  if (inst.hung_until > now) return inst.hung_until;
  ARLO_CHECK(inst.executing > 0);
  inst.executing = 0;
  if (TrackHealth()) health_.OnProgress(id, now);

  if (inst.gen) {
    batch::ContinuousBatcher::IterationResult result =
        inst.gen->CompleteIteration(now);
    tally_.gen_tokens += static_cast<std::uint64_t>(result.tokens);
    if (config_.telemetry) {
      if (result.plan.kind == batch::IterationPlan::Kind::kDecode) {
        config_.telemetry->RecordGenDecodeStep(now, id, result.plan.batch,
                                               now - inst.current_start);
      }
      for (const batch::Item& item : result.first_tokens) {
        config_.telemetry->RecordGenFirstToken(item.request, now,
                                               now - item.request.arrival);
      }
    }
    for (const batch::GenSequence& seq : result.finished) {
      Served(id, seq.item, seq.prefill_start, seq.first_token, 1);
    }
    UpdateGenGauges();
  } else {
    const std::vector<batch::Item> finished = std::move(inst.current_batch);
    inst.current_batch.clear();
    const SimTime start = inst.current_start;
    const int n = static_cast<int>(finished.size());
    for (const batch::Item& item : finished) Served(id, item, start, 0, n);
  }

  if (inst.retiring && inst.queue.empty() && (!inst.gen || inst.gen->Idle())) {
    FinalizeRetirement(id);
  } else if (!inst.retiring || inst.gen) {
    host_.Wake(id);
  }
  RetryBuffered();
  return 0;
}

void ExecutorCore::Requeue(const std::vector<batch::Item>& orphans,
                           InstanceId from) {
  for (const batch::Item& q : orphans) {
    --outstanding_;  // TryDispatch re-counts it wherever it lands
    ++tally_.requeues;
    if (config_.telemetry) {
      config_.telemetry->RecordRequeue(q.request, Now(), from);
    }
    Admit(q.request, 0);
  }
}

bool ExecutorCore::Crash(InstanceId id) {
  // Plan events and hang reaps target instances that may have retired or
  // crashed already — a fault against a non-serving instance is a no-op.
  if (id >= instances_.size() || !instances_[id].Serving()) return false;

  // The scheme drops the instance from its structures first (and may
  // launch replacement capacity), so requeued work lands on survivors.
  scheme_.OnInstanceFailure(id, *this);

  // Vanish instantly: lose nothing — queued and in-flight requests are
  // re-dispatched with their original arrival times.  A generative instance
  // additionally loses its KV caches: resident sequences restart from
  // prefill (recompute) on whichever instance they land on next.
  Instance& inst = instances_[id];
  std::vector<batch::Item> orphans;
  if (inst.gen) {
    orphans = inst.gen->StealAll();
    inst.gen.reset();
  } else {
    orphans.assign(inst.queue.begin(), inst.queue.end());
    inst.queue.clear();
    orphans.insert(orphans.end(), inst.current_batch.begin(),
                   inst.current_batch.end());
    inst.current_batch.clear();
  }
  inst.executing = 0;  // the substrate's pending Complete becomes a no-op
  AccumulateGpuTime();
  inst.gone = true;
  inst.crashed = true;
  inst.rt.reset();
  active_.fetch_sub(1, std::memory_order_relaxed);
  ++tally_.injected_failures;
  ++tally_.faults_injected;
  health_.OnGone(id);
  if (config_.telemetry) {
    config_.telemetry->RecordInstanceFailure(Now(), id);
    UpdateClusterGauges();
  }
  Requeue(orphans, id);
  host_.Wake(id);
  CheckConserved();
  return true;
}

std::vector<InstanceId> ExecutorCore::FindHung() const {
  // Only serving instances can be reaped; the rest report no work.
  return health_.FindHung(Now(), [this](InstanceId id) {
    return id < instances_.size() && instances_[id].Serving()
               ? OutstandingOn(id)
               : 0;
  });
}

void ExecutorCore::ReapHung() {
  // Reap exactly like a crash: the scheme launches replacement capacity and
  // the hung instance's work is requeued.
  for (const InstanceId id : FindHung()) Crash(id);
}

void ExecutorCore::ShedExpired() {
  const SimDuration deadline = config_.resilience.shed_deadline;
  if (deadline <= 0) return;
  const SimTime now = Now();
  bool shed_any = false;
  buffer_.RemoveIf([&](const Request& request) {
    if (now - request.arrival <= deadline) return false;
    RequestRecord record;
    record.id = request.id;
    record.arrival = request.arrival;
    record.dispatch = now;
    record.start = now;
    record.completion = now;
    record.length = request.length;
    record.stream = request.stream;
    record.tenant_class = request.tenant_class;
    shed_records_.push_back(record);
    ++tally_.sheds;  // terminal: the run does not wait for a shed request
    shed_any = true;
    if (config_.telemetry) config_.telemetry->RecordShed(request, now);
    return true;
  });
  if (shed_any && config_.telemetry) UpdateClusterGauges();
  CheckConserved();
}

void ExecutorCore::ArmFaults() {
  ScheduleRandomCrash();
  const fault::FaultPlan* plan = config_.fault_plan;
  if (plan == nullptr) return;
  for (const fault::FaultEvent& ev : plan->Sorted()) {
    host_.At(ev.at, [this, ev] { ApplyFaultEvent(ev); });
  }
  if (config_.resilience.hang_timeout > 0 ||
      config_.resilience.shed_deadline > 0) {
    ScheduleHealthCheck();
  }
}

void ExecutorCore::ScheduleRandomCrash() {
  const fault::FaultPlan* plan = config_.fault_plan;
  const double mtbf_s = plan ? plan->random_crash_mtbf_s
                             : options_.legacy_mtbf_s;
  if (mtbf_s <= 0.0) return;
  const SimDuration gap = Seconds(fault_rng_.Exponential(1.0 / mtbf_s));
  host_.At(Now() + gap, [this] {
    // Uniform victim among the serving instances.
    std::vector<InstanceId> live;
    for (InstanceId id = 0; id < instances_.size(); ++id) {
      if (instances_[id].Serving()) live.push_back(id);
    }
    if (!live.empty()) {
      Crash(live[static_cast<std::size_t>(fault_rng_.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1))]);
    }
    ScheduleRandomCrash();
  });
}

void ExecutorCore::ScheduleHealthCheck() {
  const SimDuration period = config_.resilience.health_check_period;
  ARLO_CHECK(period > 0);
  host_.At(Now() + period, [this] {
    ReapHung();
    ShedExpired();
    ScheduleHealthCheck();
  });
}

void ExecutorCore::ApplyFaultEvent(const fault::FaultEvent& event) {
  if (event.kind == fault::FaultKind::kCrash) {
    Crash(event.instance);
    return;
  }
  const bool hang = event.kind == fault::FaultKind::kHang;
  if (event.instance >= instances_.size() || event.duration <= 0 ||
      (!hang && event.factor <= 0.0)) {
    return;
  }
  Instance& inst = instances_[event.instance];
  if (!inst.Serving()) return;
  const SimTime now = Now();
  ++tally_.faults_injected;
  SimTime until;
  if (hang) {
    // Overlapping hangs extend the window; the instance starts nothing and
    // completes nothing until it passes (its in-flight batch slides to the
    // window's end), unless hang detection reaps it first.
    until = inst.hung_until = std::max(inst.hung_until, now + event.duration);
    if (config_.telemetry) {
      config_.telemetry->RecordFaultHang(now, event.instance, event.duration);
    }
  } else {
    until = inst.slow_until = std::max(inst.slow_until, now + event.duration);
    inst.slow_factor = event.factor;
    if (config_.telemetry) {
      config_.telemetry->RecordFaultSlowdown(now, event.instance,
                                             event.duration, event.factor);
    }
  }
  host_.At(until, [this, id = event.instance, hang] {
    EndFaultWindow(id, hang);
  });
}

void ExecutorCore::EndFaultWindow(InstanceId id, bool hang) {
  const Instance& inst = instances_[id];
  const SimTime now = Now();
  if (inst.gone || (hang ? inst.hung_until : inst.slow_until) > now) {
    return;  // reaped, or the window was extended
  }
  if (config_.telemetry) config_.telemetry->RecordFaultRecover(now, id);
  if (!hang) return;
  host_.Wake(id);
  RetryBuffered();
}

void ExecutorCore::UpdateClusterGauges() {
  config_.telemetry->SetClusterGauges(
      NumInstances(), outstanding_, static_cast<std::int64_t>(buffer_.Size()));
}

void ExecutorCore::UpdateGenGauges() {
  if (!config_.telemetry || !config_.generative) return;
  std::int64_t resident = 0;
  std::int64_t capacity = 0;
  for (const Instance& inst : instances_) {
    if (inst.gone || !inst.gen) continue;
    resident += inst.gen->ResidentCount();
    capacity += inst.gen->KvCapacity();
  }
  config_.telemetry->SetGenKvGauges(resident, capacity);
}

EventShell::EventShell(Scheme& scheme, const ExecutorConfig& config,
                       const ExecutorCore::Options& options)
    : core_(scheme, config, *this, options),
      scheme_(scheme),
      telemetry_(config.telemetry) {}

void EventShell::OnLaunched(InstanceId id, SimDuration ready_delay) {
  batch_timer_at_.push_back(0);
  events_.Schedule(Now() + ready_delay, [this, id] { core_.MarkReady(id); });
}

void EventShell::Wake(InstanceId id) {
  const ExecutorCore::Start start = core_.StartNext(id);
  switch (start.kind) {
    case ExecutorCore::Start::Kind::kIdle:
      break;
    case ExecutorCore::Start::Kind::kWait:
      ScheduleBatchTimer(id, start.until);
      break;
    case ExecutorCore::Start::Kind::kRun:
      batch_timer_at_[id] = 0;
      OnStarted(start);
      CompleteAt(id, start.until);
      break;
  }
}

void EventShell::CompleteAt(InstanceId id, SimTime at) {
  events_.Schedule(at, [this, id] {
    const SimTime frozen_until = core_.Complete(id);
    if (frozen_until > 0) CompleteAt(id, frozen_until);
  });
}

void EventShell::ScheduleBatchTimer(InstanceId id, SimTime at) {
  // An earlier pending timer already covers this re-poll.
  if (batch_timer_at_[id] != 0 && batch_timer_at_[id] <= at) return;
  batch_timer_at_[id] = at;
  events_.Schedule(at, [this, id, at] {
    if (batch_timer_at_[id] != at) return;  // superseded
    batch_timer_at_[id] = 0;
    Wake(id);
  });
}

void EventShell::ArmRecurring() {
  const SimDuration interval = scheme_.TickInterval();
  ARLO_CHECK(interval > 0);
  Every(interval, interval, [this](SimTime) {
    scheme_.OnTick(Now(), core_);
    core_.RetryBuffered();
  });
  core_.ArmFaults();
  if (telemetry_ == nullptr) return;
  const SimDuration period = telemetry_->SnapshotPeriod();
  ARLO_CHECK(period > 0);
  // Stamped with the scheduled time, so a late wake on the wall clock
  // leaves the series on exact multiples of the period.
  Every(period, period, [this](SimTime at) { telemetry_->Snapshot(at); });
}

void EventShell::Every(SimTime at, SimDuration period,
                       std::function<void(SimTime)> fn) {
  events_.Schedule(at, [this, at, period, fn = std::move(fn)]() mutable {
    fn(at);
    Every(at + period, period, std::move(fn));
  });
}

}  // namespace arlo::sim
