#include "serving/live_testbed.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "serving/statusz.h"
#include "telemetry/sink.h"

namespace arlo::serving {
namespace {

using Clock = std::chrono::steady_clock;

/// The trace replay's arrival wait: sleeps toward `deadline` in <= 50 ms
/// slices, returning true early once `cancel` fires, then busy-spins the
/// final `spin` nanoseconds for sub-scheduler-quantum precision.
bool CancellableWaitUntil(Clock::time_point deadline,
                          std::chrono::nanoseconds spin,
                          const std::atomic<bool>* cancel) {
  constexpr auto kSlice = std::chrono::milliseconds(50);
  const auto sleep_until = deadline - spin;
  for (auto now = Clock::now(); now < sleep_until; now = Clock::now()) {
    if (cancel && cancel->load(std::memory_order_relaxed)) return true;
    std::this_thread::sleep_until(std::min(sleep_until, now + kSlice));
  }
  while (Clock::now() < deadline) {
    // spin
  }
  return false;
}

/// alpha = 1/8 moving average; 0 means "no sample yet".
void UpdateEwma(std::atomic<std::int64_t>& avg, std::int64_t sample) {
  const std::int64_t prev = avg.load(std::memory_order_relaxed);
  avg.store(prev == 0 ? sample : prev - prev / 8 + sample / 8,
            std::memory_order_relaxed);
}

}  // namespace

/// The executor's event-queue shell on the wall clock: one executor thread
/// runs each event when its scaled time comes; everything else runs on the
/// calling thread.  Every core call happens under dispatch_mu_.
struct LiveTestbed::Impl final : public sim::EventShell {
 public:
  Impl(sim::Scheme& scheme, const TestbedConfig& config)
      : EventShell(scheme, CoreConfig(config), CoreOptions(config)),
        config_(config) {
    ARLO_CHECK(config_.time_scale > 0.0);
    if (config_.tenants != nullptr && !config_.tenants->Empty()) {
      class_completed_.assign(
          static_cast<std::size_t>(config_.tenants->Size()), 0);
    }
    if (!config_.mix_bounds.empty()) {
      mix_counts_.assign(config_.mix_bounds.size(), 0);
    }
  }

  void Start();
  void Submit(Submission* batch, std::size_t n);
  bool ApplyAllocation(const std::vector<int>& allocation);
  TestbedHealth Health();
  Statusz Status();
  void Drain();
  TestbedResult Finish();
  SimDuration EstimatedQueueDelay() const;
  bool Running() const { return started_ && !finished_; }
  const TestbedConfig& Config() const { return config_; }
  int LiveWorkersRelaxed() const { return core_.NumInstances(); }
  int InSystemRelaxed() const {
    return static_cast<int>(
        submitted_rel_.load(std::memory_order_relaxed) -
        completed_rel_.load(std::memory_order_relaxed));
  }

  // Now() is safe from any thread; the core calls OnServed with
  // dispatch_mu_ held.
  SimTime Now() const override { return WallToSim(Clock::now()); }
  void OnServed(const RequestRecord& record, int batch) override;

 private:
  static sim::ExecutorConfig CoreConfig(const TestbedConfig& config) {
    sim::ExecutorConfig core = config;
    core.resilience.shed_deadline = 0;  // shedding is simulator-only
    return core;
  }
  static sim::ExecutorCore::Options CoreOptions(const TestbedConfig& config) {
    sim::ExecutorCore::Options options;
    options.max_worker_queue = config.max_worker_queue;
    options.always_track_health = true;  // /healthz and /statusz idle_s
    return options;
  }

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

  void OnStarted(const sim::ExecutorCore::Start& start) override {
    if (!config_.generative) UpdateEwma(ewma_form_ns_, start.formation_wait);
  }
  /// Runs `fn` under dispatch_mu_ from a thread other than the executor's,
  /// and wakes the executor when `fn` scheduled an event earlier than every
  /// event it was waiting for.
  template <typename Fn>
  void Locked(Fn&& fn) {
    std::unique_lock lk(dispatch_mu_);
    const SimTime earliest = events_.NextTime();
    fn();
    if (events_.NextTime() >= earliest) return;
    kicked_ = true;
    lk.unlock();
    loop_cv_.notify_one();
  }
  /// The executor thread.
  void Loop();

  TestbedConfig config_;
  Clock::time_point start_;
  bool started_ = false;
  bool finished_ = false;

  std::mutex dispatch_mu_;  // guards everything below that is not atomic
  std::condition_variable all_done_cv_;
  std::condition_variable loop_cv_;  ///< the executor thread waits here
  bool stopping_ = false;
  /// Set under dispatch_mu_ when the earliest event moves earlier (or on
  /// stop); read unlocked by the executor thread's final spin.
  std::atomic<bool> kicked_{false};
  /// Completion order.  A deque never moves what it holds, so appending
  /// stays O(1) at any run length; Finish copies it out.
  std::deque<RequestRecord> records_;
  /// Per-class completion counts; empty unless a tenant class table is
  /// configured.
  std::vector<std::uint64_t> class_completed_;
  /// Cumulative submitted-length histogram over config_.mix_bounds; empty
  /// unless bounds were configured.  The cluster scheduler diffs successive
  /// /statusz scrapes to window it.
  std::vector<std::uint64_t> mix_counts_;
  /// External POST /realloc applies.
  std::uint64_t reallocs_applied_ = 0;
  std::uint64_t reallocs_rejected_ = 0;
  SimTime last_realloc_ = -1;
  std::unordered_map<RequestId, CompletionFn> callbacks_;

  // Relaxed mirrors, so frontend/admission threads can estimate load
  // without touching dispatch_mu_.
  std::atomic<std::int64_t> submitted_rel_{0};
  std::atomic<std::int64_t> completed_rel_{0};
  /// EWMA of observed per-request service times (ns); 0 until the first
  /// completion.  Feeds EstimatedQueueDelay.
  std::atomic<std::int64_t> ewma_service_ns_{0};
  /// EWMA of batch-formation waits — the head request's queue time when its
  /// batch launched (ns).  Adds the wait-for-k delay component to
  /// EstimatedQueueDelay so admission estimates track waiting policies.
  std::atomic<std::int64_t> ewma_form_ns_{0};

  std::thread executor_;
};

void LiveTestbed::Impl::OnServed(const RequestRecord& record, int batch) {
  records_.push_back(record);
  if (!class_completed_.empty()) {
    ++class_completed_[static_cast<std::size_t>(
        config_.tenants->Clamp(record.tenant_class))];
  }
  completed_rel_.fetch_add(1, std::memory_order_relaxed);
  // Per-request share of the batch's service time, so the admission
  // estimate stays a per-request quantity under batching.
  UpdateEwma(ewma_service_ns_, record.ServiceTime() / batch);
  if (auto it = callbacks_.find(record.id); it != callbacks_.end()) {
    CompletionFn done = std::move(it->second);
    callbacks_.erase(it);
    if (done) done(record);
  }
}

void LiveTestbed::Impl::Loop() {
  const std::chrono::nanoseconds spin(config_.spin_threshold);
  std::unique_lock lk(dispatch_mu_);
  while (!stopping_) {
    bool ran = false;
    while (!events_.Empty() &&
           SimToWall(events_.NextTime()) <= Clock::now()) {
      events_.RunNext();
      ran = true;
    }
    if (ran && core_.Settled() >= core_.Arrived()) all_done_cv_.notify_all();
    kicked_ = false;
    if (events_.Empty()) {
      loop_cv_.wait(lk);
      continue;
    }
    const Clock::time_point due = SimToWall(events_.NextTime());
    if (Clock::now() < due - spin) {
      loop_cv_.wait_until(lk, due - spin);
      continue;
    }
    // Spin out the last stretch unlocked, so submitters are not held up; an
    // earlier event they schedule (or Finish) cuts the spin short.
    lk.unlock();
    while (Clock::now() < due && !kicked_) {
    }
    lk.lock();
  }
}

void LiveTestbed::Impl::Start() {
  ARLO_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  start_ = Clock::now();
  {
    std::lock_guard global(dispatch_mu_);
    core_.Setup();
    ArmRecurring();
  }
  executor_ = std::thread([this] { Loop(); });
}

void LiveTestbed::Impl::Submit(Submission* batch, std::size_t n) {
  submitted_rel_.fetch_add(static_cast<std::int64_t>(n),
                           std::memory_order_relaxed);
  Locked([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const Request& request = batch[i].request;
      if (!mix_counts_.empty()) {
        // First bin whose upper bound covers the length; overflow lands in
        // the last bin so the histogram total always matches `submitted`.
        std::size_t bin = 0;
        while (bin + 1 < mix_counts_.size() &&
               request.length > config_.mix_bounds[bin]) {
          ++bin;
        }
        ++mix_counts_[bin];
      }
      if (batch[i].done) {
        callbacks_.emplace(request.id, std::move(batch[i].done));
      }
      core_.Arrive(request);
    }
  });
}

bool LiveTestbed::Impl::ApplyAllocation(const std::vector<int>& allocation) {
  bool ok = false;
  Locked([&] {
    ok = scheme_.ApplyExternalAllocation(allocation, core_);
    if (ok) {
      ++reallocs_applied_;
      last_realloc_ = Now();
      // The new target may have retired workers and requeued their work;
      // give the buffer a chance to land on survivors immediately.
      core_.RetryBuffered();
    } else {
      ++reallocs_rejected_;
    }
  });
  return ok;
}

TestbedHealth LiveTestbed::Impl::Health() {
  std::lock_guard global(dispatch_mu_);
  TestbedHealth h;
  h.live_workers = core_.NumInstances();
  h.outstanding = core_.Outstanding();
  h.tracked = core_.Health().NumTracked();
  h.hung = core_.FindHung();
  h.ok = h.live_workers > 0 && h.hung.empty();
  return h;
}

Statusz LiveTestbed::Impl::Status() {
  Statusz s;
  std::ostringstream scheme;
  {
    std::lock_guard global(dispatch_mu_);
    const SimTime now = Now();
    const sim::ExecutorCore::Tally& tally = core_.Counters();
    const tenant::DispatchQueue& buffer = core_.Buffer();
    s.time_s = ToSeconds(now);
    s.submitted = static_cast<std::int64_t>(core_.Arrived());
    s.completed = static_cast<std::int64_t>(core_.Completed());
    s.inflight = core_.Outstanding();
    s.buffered = static_cast<std::int64_t>(buffer.Size());
    s.live_workers = core_.NumInstances();
    s.peak_workers = tally.peak_instances;
    s.est_queue_delay_ns = EstimatedQueueDelay();
    s.batches_formed = static_cast<std::int64_t>(tally.batches_formed);
    s.batch_timeouts = static_cast<std::int64_t>(tally.batch_timeouts);
    if (!mix_counts_.empty()) {
      s.mix_bounds = config_.mix_bounds;
      s.mix_counts.assign(mix_counts_.begin(), mix_counts_.end());
    }
    s.reallocs_applied = static_cast<std::int64_t>(reallocs_applied_);
    s.reallocs_rejected = static_cast<std::int64_t>(reallocs_rejected_);
    if (last_realloc_ >= 0) s.last_realloc_s = ToSeconds(last_realloc_);
    if (config_.tenants != nullptr && !config_.tenants->Empty()) {
      for (int c = 0; c < config_.tenants->Size(); ++c) {
        const tenant::TenantClass& klass = config_.tenants->Class(c);
        const SimTime head = buffer.ClassHeadArrival(c);
        Statusz::Tenant& t = s.tenants.emplace_back();
        t.id = c;
        t.name = klass.name;
        t.weight = klass.weight;
        t.slo_ms = ToSeconds(klass.slo) * 1e3;
        t.buffered = static_cast<std::int64_t>(buffer.ClassDepth(c));
        t.completed = static_cast<std::int64_t>(
            class_completed_[static_cast<std::size_t>(c)]);
        t.queue_delay_ns = head >= 0 ? now - head : 0;
      }
    }
    for (InstanceId id = 0; id < core_.NumLaunched(); ++id) {
      const sim::ExecutorCore::Instance& w = core_.At(id);
      Statusz::Worker& row = s.workers.emplace_back();
      row.id = static_cast<int>(id);
      row.runtime = static_cast<std::int64_t>(w.runtime);
      row.state = w.gone       ? (w.crashed ? "killed" : "gone")
                  : w.retiring ? "retiring"
                  : w.ready    ? "ready"
                               : "provisioning";
      row.max_length = w.rt ? w.rt->MaxLength() : 0;
      row.queued = w.gen ? w.gen->WaitingCount() + w.gen->ResidentCount()
                         : static_cast<int>(w.queue.size());
      row.executing = w.executing;
      const SimTime last_progress = core_.Health().LastProgress(id);
      if (last_progress >= 0) row.idle_s = ToSeconds(now - last_progress);
    }
    scheme_.WriteStatusJson(scheme, now);
  }
  s.scheme = scheme.str();
  // Present only once stage metrics are enabled (a net::Server with
  // tracing wired up), so plain testbeds keep their statusz bytes.
  if (config_.telemetry != nullptr && config_.telemetry->StageMetricsEnabled()) {
    std::ostringstream stages;
    json::Writer w(stages);
    config_.telemetry->WriteStageSummaryJson(w);
    s.stages = stages.str();
  }
  return s;
}

SimDuration LiveTestbed::Impl::EstimatedQueueDelay() const {
  const std::int64_t service = ewma_service_ns_.load(std::memory_order_relaxed);
  const int workers = std::max(1, core_.NumInstances());
  const std::int64_t in_system = std::max<std::int64_t>(0, InSystemRelaxed());
  // Formation wait: a waiting batch policy (e.g. "slo") holds requests in
  // the worker queue past their dispatch, which per-request service EWMAs
  // cannot see.  Its own EWMA adds that delay so admission keeps tracking.
  const std::int64_t form = ewma_form_ns_.load(std::memory_order_relaxed);
  return static_cast<SimDuration>(service * in_system / workers + form);
}

void LiveTestbed::Impl::Drain() {
  std::unique_lock global(dispatch_mu_);
  all_done_cv_.wait(global,
                    [&] { return core_.Settled() >= core_.Arrived(); });
}

TestbedResult LiveTestbed::Impl::Finish() {
  ARLO_CHECK_MSG(started_ && !finished_, "Finish without Start, or twice");
  finished_ = true;
  Drain();
  {
    std::lock_guard global(dispatch_mu_);
    stopping_ = true;
    kicked_ = true;
  }
  loop_cv_.notify_one();
  executor_.join();
  if (config_.telemetry) config_.telemetry->Snapshot(Now());  // final row

  TestbedResult out;
  static_cast<sim::ExecutorCounters&>(out) = core_.Counters();
  out.records.assign(std::make_move_iterator(records_.begin()),
                     std::make_move_iterator(records_.end()));
  records_.clear();
  out.peak_workers = core_.Counters().peak_instances;
  for (const RequestRecord& r : out.records) {
    out.end_time = std::max(out.end_time, r.completion);
  }
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
  Submission one{request, std::move(done)};
  impl_->Submit(&one, 1);
}

void LiveTestbed::SubmitAll(std::vector<Submission>& batch) {
  impl_->Submit(batch.data(), batch.size());
  batch.clear();
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
  WriteStatusz(os, impl_->Status());
}

void LiveTestbed::Drain() { impl_->Drain(); }

TestbedResult LiveTestbed::Finish() { return impl_->Finish(); }

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
