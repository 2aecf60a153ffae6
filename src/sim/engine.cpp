#include "sim/engine.h"

#include "common/check.h"
#include "sim/event_queue.h"
#include "telemetry/sink.h"

namespace arlo::sim {
namespace {

/// The event-queue shell around the executor core: every core callback and
/// every priced service time becomes an event on simulated time.
class Engine final : public ExecutorHost {
 public:
  Engine(const trace::Trace& trace, Scheme& scheme, const EngineConfig& config)
      : trace_(trace),
        config_(config),
        core_(scheme, config, *this, CoreOptions(config)),
        scheme_(scheme) {
    if (config_.collect_records) records_.reserve(trace_.Size());
  }

  EngineResult Run();

  // ExecutorHost:
  SimTime Now() const override { return events_.Now(); }
  void OnLaunched(InstanceId id, SimDuration ready_delay) override {
    batch_timer_at_.push_back(0);
    events_.Schedule(Now() + ready_delay, [this, id] { core_.MarkReady(id); });
  }
  void Wake(InstanceId id) override { MaybeStartNext(id); }
  void At(SimTime at, std::function<void()> fn) override {
    events_.Schedule(at, std::move(fn));
  }
  void OnServed(const RequestRecord& record, int /*batch*/) override {
    if (config_.collect_records) records_.push_back(record);
  }

 private:
  static ExecutorCore::Options CoreOptions(const EngineConfig& config) {
    ExecutorCore::Options options;
    options.timeline = config.timeline;
    options.legacy_mtbf_s = config.mean_time_between_failures_s;
    options.legacy_fault_seed = config.fault_seed;
    return options;
  }

  void MaybeStartNext(InstanceId id);
  void ScheduleBatchTimer(InstanceId id, SimTime at);
  void CompleteAt(InstanceId id, SimTime at);
  void ScheduleNextArrival();
  void ScheduleTick();
  void ScheduleSnapshot();

  const trace::Trace& trace_;
  EngineConfig config_;
  EventQueue events_;
  ExecutorCore core_;
  Scheme& scheme_;
  std::vector<RequestRecord> records_;
  std::size_t next_arrival_ = 0;
  /// Per instance: the pending batch-formation re-poll (0 = none).  Any
  /// launch or an earlier timer supersedes a later one.
  std::vector<SimTime> batch_timer_at_;
};

void Engine::MaybeStartNext(InstanceId id) {
  const ExecutorCore::Start start = core_.StartNext(id);
  switch (start.kind) {
    case ExecutorCore::Start::Kind::kIdle:
      break;
    case ExecutorCore::Start::Kind::kWait:
      ScheduleBatchTimer(id, start.until);
      break;
    case ExecutorCore::Start::Kind::kRun:
      batch_timer_at_[id] = 0;
      CompleteAt(id, start.until);
      break;
  }
}

void Engine::CompleteAt(InstanceId id, SimTime at) {
  events_.Schedule(at, [this, id] {
    const SimTime frozen_until = core_.Complete(id);
    if (frozen_until > 0) CompleteAt(id, frozen_until);
  });
}

void Engine::ScheduleBatchTimer(InstanceId id, SimTime at) {
  // An earlier pending timer already covers this re-poll.
  if (batch_timer_at_[id] != 0 && batch_timer_at_[id] <= at) return;
  batch_timer_at_[id] = at;
  events_.Schedule(at, [this, id, at] {
    if (batch_timer_at_[id] != at) return;  // superseded
    batch_timer_at_[id] = 0;
    MaybeStartNext(id);
  });
}

void Engine::ScheduleNextArrival() {
  if (next_arrival_ >= trace_.Size()) return;
  const Request& r = trace_.Requests()[next_arrival_];
  events_.Schedule(r.arrival, [this, r] {
    ++next_arrival_;
    ScheduleNextArrival();
    core_.Arrive(r);
  });
}

void Engine::ScheduleSnapshot() {
  const SimDuration period = config_.telemetry->SnapshotPeriod();
  ARLO_CHECK(period > 0);
  events_.Schedule(Now() + period, [this] {
    config_.telemetry->Snapshot(Now());
    ScheduleSnapshot();
  });
}

void Engine::ScheduleTick() {
  const SimDuration interval = scheme_.TickInterval();
  ARLO_CHECK(interval > 0);
  events_.Schedule(Now() + interval, [this] {
    scheme_.OnTick(Now(), core_);
    core_.RetryBuffered();
    ScheduleTick();
  });
}

EngineResult Engine::Run() {
  core_.Setup();
  ScheduleNextArrival();
  ScheduleTick();
  core_.ArmFaults();
  if (config_.telemetry) ScheduleSnapshot();

  // Recurring events (ticks, snapshots, health checks, random crashes)
  // reschedule themselves forever; the run ends with the last request.
  while (core_.Settled() < trace_.Size()) {
    ARLO_CHECK_MSG(events_.RunNext(),
                   "event queue drained before all requests completed — the "
                   "scheme stopped serving");
    ARLO_CHECK_MSG(Now() <= config_.max_sim_time,
                   "simulation exceeded max_sim_time");
  }

  core_.Finish();
  if (config_.timeline) config_.timeline->Finish(Now());
  if (config_.telemetry) config_.telemetry->Snapshot(Now());  // final row
  const ExecutorCore::Tally& tally = core_.Counters();
  EngineResult out;
  static_cast<ExecutorCounters&>(out) = tally;
  out.records = std::move(records_);
  out.end_time = Now();
  out.peak_gpus = tally.peak_instances;
  out.buffered_requests = tally.buffered;
  out.sheds = tally.sheds;
  out.gen_tokens = tally.gen_tokens;
  out.shed_records = core_.TakeShedRecords();
  if (Now() > 0) {
    out.time_weighted_gpus = tally.gpu_ns / static_cast<double>(Now());
    out.gpu_busy_fraction =
        tally.gpu_ns > 0.0 ? tally.busy_ns / tally.gpu_ns : 0.0;
  }
  return out;
}

}  // namespace

EngineResult RunScenario(const trace::Trace& trace, Scheme& scheme,
                         const EngineConfig& config) {
  Engine engine(trace, scheme, config);
  return engine.Run();
}

}  // namespace arlo::sim
