// ClusterScheduler: the cluster-level Runtime Scheduler (docs/CONTROL_PLANE.md).
//
// A control loop over a fleet of backend nodes, each running a frozen (or
// periodic) local ArloScheme behind an admin plane:
//
//   scrape   every node's /statusz (obs::ProbeAdminEndpoint): length-mix
//            histograms + per-node ready-worker runtime vectors;
//   gate     the aggregated windowed mix through a two-sample KS drift test
//            against the mix adopted at the last re-plan — no drift, no
//            churn;
//   solve    the §3.3 allocation ILP for the whole fleet, warm-started with
//            the incumbent target and bounded by a wall-clock budget
//            (best-incumbent fallback);
//   settle   while a shipped plan is still rolling out (a node reports
//            pending launches, or the fleet's ready total disagrees with
//            the incumbent), planning is paused — a scrape taken
//            mid-rollout undercounts the fleet and would adopt a plan for
//            the wrong GPU total.  A grace bound keeps a genuine fleet
//            change (node death, join) from pausing the loop forever;
//   ship     per-node deltas through POST /realloc — only to nodes whose
//            allocation changes; nodes apply them with zero-loss worker
//            retire/requeue and answer 409 when a rollout is in flight;
//   conform  on no-drift rounds, any node still off the incumbent target
//            (it answered 409 earlier) gets its delta re-shipped, so the
//            fleet converges to the adopted plan without new drift;
//   confirm  a drift-triggered plan is solved against a window straddling
//            the shift, so its demand mix is part stale.  Once the fleet
//            settles and the window has refilled with post-adoption data,
//            the scheduler re-solves once against the clean mix; an
//            unchanged target ships nothing and closes the loop, a changed
//            one ships deltas and schedules another confirmation.
//
// The loop thread owns all state; RunOnce is also callable directly (tests,
// the router admin's POST /ctrl/replan) and serializes with the loop.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "ctrl/demand.h"
#include "ctrl/drift.h"
#include "ctrl/planner.h"
#include "runtime/profiler.h"

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::ctrl {

/// One scrape target: a backend node's admin plane.
struct CtrlNode {
  int id = 0;  ///< stable id (the router's pool node id)
  std::uint16_t admin_port = 0;
};

struct ClusterSchedulerConfig {
  /// Runtime profiles, ascending by max_length — the ILP's M_i / L_i.
  std::vector<arlo::runtime::RuntimeProfile> profiles;
  /// SLO period the demand vector is scaled to (Q_i = arrivals per SLO).
  double slo_seconds = 0.15;
  /// Control-loop cadence (wall clock).
  double scrape_period_s = 0.5;
  /// KS drift gate (see DriftDetectorConfig).
  double ks_threshold = 0.1;
  std::int64_t min_window_samples = 50;
  /// Sliding demand window span: the mix observation fed to the drift gate
  /// and the ILP covers at most this much wall time.  An unbounded window
  /// would dilute a fresh mix shift into everything since the last re-plan.
  double window_span_s = 5.0;
  /// Rounds the settle gate may pause planning while the scraped fleet
  /// disagrees with the incumbent; past this the disagreement is taken as
  /// a real fleet change and planning resumes at the new GPU total.
  int settle_grace_rounds = 20;
  /// ILP guard rails: wall budget with best-incumbent fallback, node cap.
  double solve_budget_ms = 50.0;
  long long solver_max_nodes = 2'000'000;
  /// Multiplies the measured demand before solving.  1.0 plans capacity =
  /// demand (the pure Eq. 1-7 problem); >1 buys queueing headroom so the
  /// plan does not run runtimes at ~100% utilization, where tails explode.
  double demand_headroom = 1.0;
  /// Optional (not owned; must outlive the scheduler).
  telemetry::TelemetrySink* sink = nullptr;
};

class ClusterScheduler {
 public:
  /// Returns the current scrape targets; called at the top of every round
  /// (nodes join, drain, and die while the loop runs).  Must be thread-safe.
  using NodeListFn = std::function<std::vector<CtrlNode>()>;

  ClusterScheduler(NodeListFn nodes, ClusterSchedulerConfig config);
  ~ClusterScheduler();  ///< Stop() if running

  ClusterScheduler(const ClusterScheduler&) = delete;
  ClusterScheduler& operator=(const ClusterScheduler&) = delete;

  /// Spawns the control-loop thread.
  void Start();
  void Stop();

  /// What one control round did.  `target` is set only when `replanned`.
  struct RoundReport {
    int nodes_reachable = 0;
    int nodes_failed = 0;
    std::int64_t window_samples = 0;
    double ks = 0.0;
    bool settle_hold = false;  ///< planning paused mid-rollout this round
    bool replanned = false;
    bool warm_started = false;  ///< incumbent seeded the B&B
    bool capped = false;        ///< budget expired; best incumbent shipped
    double solve_ms = 0.0;
    std::vector<int> target;
    int deltas_shipped = 0;
    int deltas_applied = 0;
    int deltas_rejected = 0;
  };

  /// Runs one synchronous control round; `force` bypasses the KS gate (the
  /// POST /ctrl/replan runbook verb).  Serializes with the loop thread, so
  /// it is safe to call while running.
  RoundReport RunOnce(bool force = false);

  /// Cumulative counters since construction.
  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t scrape_failures = 0;
    std::uint64_t settle_holds = 0;
    std::uint64_t replans = 0;
    std::uint64_t deltas_shipped = 0;
    std::uint64_t deltas_applied = 0;
    std::uint64_t deltas_rejected = 0;
    double last_ks = 0.0;
    double last_solve_ms = 0.0;
    bool last_warm_started = false;
    bool last_capped = false;
    std::vector<int> incumbent;  ///< current cluster target (empty pre-plan)
  };
  Stats GetStats() const;

  /// One JSON object for GET /ctrl/statusz.
  void WriteStatusJson(json::Writer& w) const;

  const ClusterSchedulerConfig& Config() const { return config_; }

 private:
  void Loop();
  RoundReport RunOnceLocked(bool force);

  NodeListFn nodes_;
  ClusterSchedulerConfig config_;

  mutable std::mutex mu_;  ///< guards everything below + RunOnce vs loop
  ClusterDemandModel demand_;
  DriftDetector drift_;
  std::vector<int> incumbent_;  ///< last shipped cluster target
  Stats stats_;
  int unsettled_rounds_ = 0;   ///< consecutive rounds the settle gate held
  bool confirm_pending_ = false;  ///< re-solve once the window is clean
  std::int64_t start_ns_ = 0;  ///< steady-clock ns at construction

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace arlo::ctrl
