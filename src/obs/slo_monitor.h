// Multi-window SLO burn-rate monitor (Google SRE-style): consumes request
// completions and sheds through the TelemetrySink observer fan-out and
// maintains, per window (default 10 s / 1 min / 5 min), the violation
// fraction and the burn rate
//
//   burn = violation_fraction / error_budget,  error_budget = 1 - target
//
// so burn 1.0 means "spending budget exactly at the sustainable rate" and
// burn >= alert_burn_rate trips an alert (with hysteresis on clear).  The
// monitor is driven purely by event/query timestamps — an injected clock:
// the simulator feeds deterministic virtual times (burn trajectories are
// reproducible per seed), the live testbed feeds scaled wall time.
// Threshold crossings are emitted as telemetry trace instants and counted
// in arlo_slo_alerts_total; current burn rates are exported as
// arlo_slo_burn_rate_pct gauges and served on the admin /slo endpoint.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "telemetry/sink.h"

namespace arlo::obs {

struct SloMonitorConfig {
  /// Latency SLO: completion latency above this is a violation.  Sheds
  /// (requests rejected under overload) always count as violations.
  SimDuration slo = Millis(150.0);
  /// Attainment target; error budget = 1 - target.
  double target = 0.99;
  /// Sliding windows, each tracked independently.
  std::vector<SimDuration> windows = {Seconds(10.0), Seconds(60.0),
                                      Seconds(300.0)};
  /// Buckets per window: the sliding window is bucketed, so expiry
  /// resolution is window / buckets.
  int buckets_per_window = 30;
  /// Alert when any window's burn rate reaches this; clears below 80 % of
  /// it (hysteresis, so a rate hovering at the threshold doesn't flap).
  double alert_burn_rate = 2.0;
  /// Windows with fewer events than this never alert (startup noise).
  std::uint64_t min_events_to_alert = 10;
  /// Optional: alert instants + alert counter + burn gauges land here.
  telemetry::TelemetrySink* sink = nullptr;
  /// Optional metric label: when non-empty, burn gauges and the alert
  /// counter carry {class="<label>"} so several monitors (one per tenant
  /// class) can share one registry without colliding.  Empty keeps the
  /// historical unlabeled names.
  std::string label;
};

struct SloWindowStats {
  SimDuration window = 0;
  std::uint64_t total = 0;
  std::uint64_t violations = 0;
  double attainment = 1.0;  ///< 1 - violation fraction over the window
  double burn_rate = 0.0;
  bool alerting = false;
};

struct SloStats {
  std::uint64_t total = 0;       ///< lifetime observations
  std::uint64_t violations = 0;  ///< lifetime violations
  double attainment = 1.0;       ///< lifetime
  std::vector<SloWindowStats> windows;
};

class SloMonitor final : public telemetry::TelemetryObserver {
 public:
  explicit SloMonitor(SloMonitorConfig config = {});

  // TelemetryObserver (called from the testbed's threads / the sim loop):
  void OnComplete(const RequestRecord& record) override;
  void OnShed(const Request& request, SimTime now) override;

  /// Record one observation directly (tests / non-sink producers).
  void Observe(SimTime now, bool violation);

  /// Stats with every window advanced to `now` (expired buckets cleared).
  SloStats Stats(SimTime now);

  /// The /slo payload: one JSON object with lifetime + per-window stats.
  void WriteJson(json::Writer& w, SimTime now);

  const SloMonitorConfig& Config() const { return config_; }

 private:
  struct Window {
    SimDuration span = 0;
    SimDuration bucket_span = 0;
    /// Ring of (total, violations); index = (bucket number) % size.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
    std::int64_t head = -1;  ///< newest bucket number seen (-1 = empty)
    bool alerting = false;
    telemetry::Gauge* burn_gauge = nullptr;
  };

  void AdvanceLocked(Window& w, SimTime now);
  SloWindowStats WindowStatsLocked(const Window& w) const;
  void UpdateAlertLocked(Window& w, SimTime now);

  SloMonitorConfig config_;
  double error_budget_;
  telemetry::Counter* alerts_total_ = nullptr;

  mutable std::mutex mu_;
  std::vector<Window> windows_;
  std::uint64_t total_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace arlo::obs
