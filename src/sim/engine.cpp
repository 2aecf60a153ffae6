#include "sim/engine.h"

#include "common/check.h"
#include "telemetry/sink.h"

namespace arlo::sim {
namespace {

/// The simulator: the executor's event-queue shell on simulated time, plus
/// the trace's arrivals and the run loop.
class Engine final : public EventShell {
 public:
  Engine(const trace::Trace& trace, Scheme& scheme, const EngineConfig& config)
      : EventShell(scheme, config, CoreOptions(config)),
        trace_(trace),
        config_(config) {
    if (config_.collect_records) records_.reserve(trace_.Size());
  }

  EngineResult Run();

  SimTime Now() const override { return events_.Now(); }
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

  void ScheduleNextArrival();

  const trace::Trace& trace_;
  EngineConfig config_;
  std::vector<RequestRecord> records_;
  std::size_t next_arrival_ = 0;
};

void Engine::ScheduleNextArrival() {
  if (next_arrival_ >= trace_.Size()) return;
  const Request& r = trace_.Requests()[next_arrival_];
  events_.Schedule(r.arrival, [this, r] {
    ++next_arrival_;
    ScheduleNextArrival();
    core_.Arrive(r);
  });
}

EngineResult Engine::Run() {
  core_.Setup();
  ScheduleNextArrival();
  ArmRecurring();

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
