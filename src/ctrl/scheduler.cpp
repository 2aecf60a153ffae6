#include "ctrl/scheduler.h"

#include <chrono>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "obs/http.h"
#include "obs/probe.h"
#include "solver/allocation.h"
#include "telemetry/sink.h"

namespace arlo::ctrl {
namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CtrlMetrics::CtrlMetrics(telemetry::MetricsRegistry& registry)
    : scrapes(registry.GetCounter(
          "arlo_ctrl_scrapes_total",
          "Cluster Runtime Scheduler scrape rounds completed")),
      scrape_failures(registry.GetCounter(
          "arlo_ctrl_scrape_failures_total",
          "Individual nodes unreachable during a scrape round")),
      replans(registry.GetCounter(
          "arlo_ctrl_replans_total",
          "Drift gate openings: target cluster allocation re-solved")),
      replans_skipped(registry.GetCounter(
          "arlo_ctrl_replans_skipped_total",
          "Scrape rounds where the KS gate stayed closed (mix within "
          "threshold)")),
      deltas_shipped(registry.GetCounter(
          "arlo_ctrl_deltas_shipped_total",
          "Per-node allocation deltas shipped via POST /realloc")),
      deltas_applied(registry.GetCounter("arlo_ctrl_deltas_applied_total",
                                         "Deltas the node accepted")),
      deltas_rejected(registry.GetCounter(
          "arlo_ctrl_deltas_rejected_total",
          "Deltas the node rejected with 409 (retried after the next "
          "scrape)")),
      last_ks_millionths(registry.GetGauge(
          "arlo_ctrl_last_ks_millionths",
          "Last two-sample KS drift statistic, in millionths")),
      solve_ns(registry.GetHistogram(
          "arlo_ctrl_solve_ns", "Target cluster-allocation solve wall time")),
      apply_ns(registry.GetHistogram("arlo_ctrl_apply_ns",
                                     "POST /realloc round-trip wall time")) {}

ClusterScheduler::ClusterScheduler(NodeListFn nodes,
                                   ClusterSchedulerConfig config)
    : nodes_(std::move(nodes)),
      config_(std::move(config)),
      metrics_(config_.sink ? config_.sink->Registry() : own_registry_),
      demand_(config_.profiles.size(),
              static_cast<std::int64_t>(config_.window_span_s * 1e9)),
      drift_(DriftDetectorConfig{config_.ks_threshold,
                                 config_.min_window_samples}) {
  ARLO_CHECK_MSG(nodes_ != nullptr, "ClusterScheduler needs a node list fn");
  ARLO_CHECK_MSG(!config_.profiles.empty(),
                 "ClusterScheduler needs runtime profiles");
  start_ns_ = SteadyNowNs();
}

ClusterScheduler::~ClusterScheduler() { Stop(); }

void ClusterScheduler::Start() {
  ARLO_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ClusterScheduler::Stop() {
  {
    std::lock_guard lk(wake_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ClusterScheduler::Loop() {
  const auto period = std::chrono::duration<double>(config_.scrape_period_s);
  for (;;) {
    {
      std::unique_lock lk(wake_mu_);
      if (wake_cv_.wait_for(lk, period, [this] { return stopping_; })) return;
    }
    (void)RunOnce(false);
  }
}

ClusterScheduler::RoundReport ClusterScheduler::RunOnce(bool force) {
  std::lock_guard lk(mu_);
  return RunOnceLocked(force);
}

ClusterScheduler::RoundReport ClusterScheduler::RunOnceLocked(bool force) {
  RoundReport report;
  const std::size_t bins = config_.profiles.size();

  // --- scrape ------------------------------------------------------------
  const std::vector<CtrlNode> targets = nodes_();
  std::vector<std::pair<int, std::vector<std::int64_t>>> scrapes;
  std::vector<NodeAllocation> allocations;
  std::vector<std::pair<int, std::uint16_t>> ports;  // id -> admin port
  std::int64_t pending_launches = 0;
  for (const CtrlNode& node : targets) {
    const obs::NodeProbe probe = obs::ProbeAdminEndpoint(node.admin_port);
    if (!probe.reachable) {
      ++report.nodes_failed;
      continue;
    }
    ++report.nodes_reachable;
    ports.emplace_back(node.id, node.admin_port);
    pending_launches += probe.pending_launches;
    if (probe.mix_counts.size() == bins) {
      scrapes.emplace_back(node.id, probe.mix_counts);
    }
    NodeAllocation alloc;
    alloc.node = node.id;
    alloc.per_runtime.assign(bins, 0);
    for (int rt : probe.ReadyRuntimes()) {
      if (rt >= 0 && rt < static_cast<int>(bins)) ++alloc.per_runtime[rt];
    }
    allocations.push_back(std::move(alloc));
  }
  const std::int64_t now_ns = SteadyNowNs();
  const SimTime sim_now = now_ns - start_ns_;
  demand_.Ingest(scrapes, now_ns);
  report.window_samples = demand_.WindowTotal();
  metrics_.scrapes->Add();
  metrics_.scrape_failures->Add(
      static_cast<std::uint64_t>(report.nodes_failed));

  int total_gpus = 0;
  for (const NodeAllocation& a : allocations) {
    for (int v : a.per_runtime) total_gpus += v;
  }

  // --- settle ------------------------------------------------------------
  // A scrape taken while the last plan is still rolling out sees a short
  // fleet (retiring workers have left "ready", replacements are still
  // provisioning); planning against that total would adopt a target for
  // the wrong GPU count and wedge conformance.  Hold planning until the
  // fleet settles — bounded by a grace so a genuine fleet change (node
  // death, join) eventually re-plans at the new total.
  std::int64_t incumbent_total = 0;
  for (int v : incumbent_) incumbent_total += v;
  const bool settled = incumbent_.empty() ||
                       (pending_launches == 0 && total_gpus == incumbent_total);
  if (settled) {
    unsettled_rounds_ = 0;
  } else if (++unsettled_rounds_ <= config_.settle_grace_rounds) {
    report.settle_hold = true;
    ++settle_holds_;
    report.ks = KsStatistic(drift_.Reference(), demand_.Window());
    RecordGate(sim_now, report.ks, false, 0);
    return report;
  }

  // --- gate --------------------------------------------------------------
  DriftDetector::Decision decision;
  if (force) {
    decision.drifted = true;
    decision.ks = KsStatistic(drift_.Reference(), demand_.Window());
  } else {
    decision = drift_.Observe(demand_.Window());
  }
  report.ks = decision.ks;
  // Ships one node's target allocation; returns whether the node applied
  // it (nodes answer 409 mid-rollout — retried by the conformance path).
  const auto ship = [&](const NodeDelta& delta) {
    std::uint16_t port = 0;
    for (const auto& [id, p] : ports) {
      if (id == delta.node) {
        port = p;
        break;
      }
    }
    if (port == 0) return false;
    const std::int64_t ship_start = SteadyNowNs();
    const obs::HttpResult result = obs::HttpFetch(
        port, "POST", "/realloc?alloc=" + FormatAllocation(delta.target));
    const std::int64_t apply_ns = SteadyNowNs() - ship_start;
    const bool applied = result.ok && result.status == 200;
    ++report.deltas_shipped;
    metrics_.deltas_shipped->Add();
    if (applied) {
      ++report.deltas_applied;
      metrics_.deltas_applied->Add();
    } else {
      ++report.deltas_rejected;
      metrics_.deltas_rejected->Add();
    }
    metrics_.apply_ns->Record(apply_ns);
    telemetry::TelemetrySink* sink = config_.sink;
    if (sink != nullptr && sink->Config().trace_requests) {
      sink->Tracer().Instant("ctrl_delta", "ctrl", sim_now, delta.node,
                             {{"applied", applied ? 1 : 0}});
    }
    return applied;
  };

  // The plan adopted on a drift fire was solved against a window straddling
  // the shift; once the window has refilled with purely post-adoption data,
  // re-solve against the clean mix (see `confirm` in the header comment).
  const bool confirm_due =
      confirm_pending_ && !decision.drifted &&
      demand_.WindowSeconds(now_ns) >= config_.window_span_s &&
      demand_.WindowTotal() >= config_.min_window_samples;

  const bool can_plan = (decision.drifted || confirm_due) &&
                        !allocations.empty() && total_gpus >= 1;
  if (!can_plan) {
    RecordGate(sim_now, decision.ks, false, 0);
    // Conformance: a node that answered 409 to the last plan (a rollout was
    // in flight) would otherwise keep its stale allocation forever — the
    // adopted mix no longer reads as drift.  Re-ship the incumbent to any
    // non-conforming node; PlanNodeDeltas is empty when the fleet conforms,
    // and refuses (returns nothing) while any node is still mid-rollout
    // (its ready total is short, so the cluster sums mismatch).
    if (!incumbent_.empty()) {
      for (const NodeDelta& delta : PlanNodeDeltas(allocations, incumbent_)) {
        ship(delta);
      }
    }
    return report;
  }

  // --- solve -------------------------------------------------------------
  solver::AllocationProblem problem;
  problem.gpus = total_gpus;
  problem.profiles = config_.profiles;
  problem.demand = demand_.DemandPerSlo(now_ns, config_.slo_seconds);
  for (double& q : problem.demand) q *= config_.demand_headroom;
  solver::AllocationSolveOptions options;
  options.max_nodes = config_.solver_max_nodes;
  options.budget_ms = config_.solve_budget_ms;
  options.warm_start = incumbent_;
  const solver::AllocationResult solved =
      solver::SolveAllocationExact(problem, options);
  report.replanned = true;
  report.warm_started = solved.warm_started;
  report.capped = solved.capped;
  report.solve_ms = solved.solve_seconds * 1e3;
  last_solve_ms_ = report.solve_ms;
  last_warm_started_ = solved.warm_started;
  last_capped_ = solved.capped;
  RecordGate(sim_now, decision.ks, true,
             static_cast<std::int64_t>(solved.solve_seconds * 1e9));
  if (!solved.feasible) {
    // Overload: even the largest runtime cannot absorb the mix.  Keep the
    // incumbent deployment; the window keeps accumulating and the next
    // round retries.
    return report;
  }

  // --- ship deltas -------------------------------------------------------
  std::vector<int> target = solved.gpus_per_runtime;
  if (!EnforcePerNodeFloor(target, static_cast<int>(allocations.size()))) {
    return report;  // fewer GPUs than nodes; nothing sane to ship
  }
  report.target = target;
  for (const NodeDelta& delta : PlanNodeDeltas(allocations, target)) {
    ship(delta);
  }

  // Adopt: the target becomes the warm start for the next solve, and the
  // window that triggered this plan becomes the drift reference.  A drift
  // fire always schedules a confirmation; a confirmation that changed the
  // fleet schedules another, one that stood pat closes the loop.
  confirm_pending_ = decision.drifted || target != incumbent_;
  incumbent_ = target;
  unsettled_rounds_ = 0;
  drift_.Rebase(demand_.Window());
  demand_.ResetWindow(now_ns);
  return report;
}

void ClusterScheduler::RecordGate(SimTime now, double ks, bool replanned,
                                  std::int64_t solve_ns) {
  last_ks_ = ks;
  metrics_.last_ks_millionths->Set(static_cast<std::int64_t>(ks * 1e6));
  if (replanned) {
    metrics_.replans->Add();
    metrics_.solve_ns->Record(solve_ns);
  } else {
    metrics_.replans_skipped->Add();
  }
  telemetry::TelemetrySink* sink = config_.sink;
  if (sink != nullptr && sink->Config().trace_requests) {
    sink->Tracer().Instant(
        "ctrl_gate", "ctrl", now, 0,
        {{"ks_millionths", static_cast<std::int64_t>(ks * 1e6)},
         {"replanned", replanned ? 1 : 0}});
  }
}

ClusterScheduler::Stats ClusterScheduler::StatsLocked() const {
  Stats stats;
  stats.rounds = metrics_.scrapes->Value();
  stats.scrape_failures = metrics_.scrape_failures->Value();
  stats.settle_holds = settle_holds_;
  stats.replans = metrics_.replans->Value();
  stats.deltas_shipped = metrics_.deltas_shipped->Value();
  stats.deltas_applied = metrics_.deltas_applied->Value();
  stats.deltas_rejected = metrics_.deltas_rejected->Value();
  stats.last_ks = last_ks_;
  stats.last_solve_ms = last_solve_ms_;
  stats.last_warm_started = last_warm_started_;
  stats.last_capped = last_capped_;
  stats.incumbent = incumbent_;
  return stats;
}

ClusterScheduler::Stats ClusterScheduler::GetStats() const {
  std::lock_guard lk(mu_);
  return StatsLocked();
}

void ClusterScheduler::WriteStatusJson(json::Writer& w) const {
  std::lock_guard lk(mu_);
  const Stats stats = StatsLocked();
  w.BeginObject().Field("rounds", stats.rounds);
  w.Field("scrape_failures", stats.scrape_failures);
  w.Field("settle_holds", stats.settle_holds).Field("replans", stats.replans);
  w.Key("deltas").BeginObject().Field("shipped", stats.deltas_shipped);
  w.Field("applied", stats.deltas_applied);
  w.Field("rejected", stats.deltas_rejected).EndObject();
  w.Field("last_ks", stats.last_ks);
  w.Field("last_solve_ms", stats.last_solve_ms);
  w.Field("last_warm_started", stats.last_warm_started);
  w.Field("last_capped", stats.last_capped);
  w.Field("window_samples", demand_.WindowTotal());
  w.Key("incumbent").NumberArray(stats.incumbent).EndObject();
}

}  // namespace arlo::ctrl
