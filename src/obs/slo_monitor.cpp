#include "obs/slo_monitor.h"

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "common/json.h"
#include "telemetry/trace_recorder.h"

namespace arlo::obs {

SloMonitor::SloMonitor(SloMonitorConfig config)
    : config_(std::move(config)),
      error_budget_(std::max(1e-9, 1.0 - config_.target)) {
  ARLO_CHECK(config_.buckets_per_window > 0);
  for (const SimDuration span : config_.windows) {
    ARLO_CHECK(span > 0);
    Window w;
    w.span = span;
    w.bucket_span = std::max<SimDuration>(1, span / config_.buckets_per_window);
    w.buckets.assign(static_cast<std::size_t>(config_.buckets_per_window),
                     {0, 0});
    if (config_.sink) {
      // One gauge per window, labeled by span in seconds (plus the class
      // label when this monitor watches one tenant class).
      const std::string extra =
          config_.label.empty() ? "" : ",class=\"" + config_.label + "\"";
      w.burn_gauge = config_.sink->Registry().GetGauge(
          "arlo_slo_burn_rate_pct{window=\"" +
              std::to_string(static_cast<long long>(ToSeconds(span))) +
              "s\"" + extra + "}",
          "SLO burn rate over the window, percent (100 = sustainable rate)");
    }
    windows_.push_back(std::move(w));
  }
  if (config_.sink) {
    const std::string suffix =
        config_.label.empty() ? "" : "{class=\"" + config_.label + "\"}";
    alerts_total_ = config_.sink->Registry().GetCounter(
        "arlo_slo_alerts_total" + suffix,
        "Burn-rate alert threshold crossings");
  }
}

void SloMonitor::OnComplete(const RequestRecord& record) {
  Observe(record.completion, record.Latency() > config_.slo);
}

void SloMonitor::OnShed(const Request& request, SimTime now) {
  (void)request;
  Observe(now, /*violation=*/true);
}

void SloMonitor::AdvanceLocked(Window& w, SimTime now) {
  const std::int64_t bucket = now / w.bucket_span;
  if (w.head < 0) {
    // First observation: the whole ring is already zeroed.
    w.head = bucket;
    return;
  }
  if (bucket <= w.head) return;  // same bucket, or a late event — keep head
  const std::int64_t steps =
      std::min<std::int64_t>(bucket - w.head,
                             static_cast<std::int64_t>(w.buckets.size()));
  for (std::int64_t i = 1; i <= steps; ++i) {
    w.buckets[static_cast<std::size_t>((w.head + i) %
                                       static_cast<std::int64_t>(
                                           w.buckets.size()))] = {0, 0};
  }
  w.head = bucket;
}

SloWindowStats SloMonitor::WindowStatsLocked(const Window& w) const {
  SloWindowStats s;
  s.window = w.span;
  for (const auto& [total, violations] : w.buckets) {
    s.total += total;
    s.violations += violations;
  }
  const double frac =
      s.total > 0 ? static_cast<double>(s.violations) /
                        static_cast<double>(s.total)
                  : 0.0;
  s.attainment = 1.0 - frac;
  s.burn_rate = frac / error_budget_;
  s.alerting = w.alerting;
  return s;
}

void SloMonitor::UpdateAlertLocked(Window& w, SimTime now) {
  const SloWindowStats s = WindowStatsLocked(w);
  if (w.burn_gauge) {
    w.burn_gauge->Set(static_cast<std::int64_t>(s.burn_rate * 100.0));
  }
  const bool enough = s.total >= config_.min_events_to_alert;
  if (!w.alerting && enough && s.burn_rate >= config_.alert_burn_rate) {
    w.alerting = true;
    if (alerts_total_) alerts_total_->Add();
    if (config_.sink) {
      config_.sink->Tracer().Instant(
          "slo_burn_alert", "slo", now, telemetry::TraceRecorder::kControlLane,
          {{"window_s", static_cast<std::int64_t>(ToSeconds(w.span))},
           {"burn_pct", static_cast<std::int64_t>(s.burn_rate * 100.0)}});
    }
  } else if (w.alerting &&
             s.burn_rate < config_.alert_burn_rate * 0.8) {
    w.alerting = false;
    if (config_.sink) {
      config_.sink->Tracer().Instant(
          "slo_burn_clear", "slo", now, telemetry::TraceRecorder::kControlLane,
          {{"window_s", static_cast<std::int64_t>(ToSeconds(w.span))},
           {"burn_pct", static_cast<std::int64_t>(s.burn_rate * 100.0)}});
    }
  }
}

void SloMonitor::Observe(SimTime now, bool violation) {
  std::lock_guard lock(mu_);
  ++total_;
  if (violation) ++violations_;
  for (Window& w : windows_) {
    AdvanceLocked(w, now);
    auto& [total, violations] =
        w.buckets[static_cast<std::size_t>(
            w.head % static_cast<std::int64_t>(w.buckets.size()))];
    ++total;
    if (violation) ++violations;
    UpdateAlertLocked(w, now);
  }
}

SloStats SloMonitor::Stats(SimTime now) {
  std::lock_guard lock(mu_);
  SloStats s;
  s.total = total_;
  s.violations = violations_;
  s.attainment =
      total_ > 0 ? 1.0 - static_cast<double>(violations_) /
                             static_cast<double>(total_)
                 : 1.0;
  for (Window& w : windows_) {
    AdvanceLocked(w, now);
    // Re-evaluate the alert at query time too: with an injected clock an
    // alert must be able to clear while no new events arrive.
    UpdateAlertLocked(w, now);
    s.windows.push_back(WindowStatsLocked(w));
  }
  return s;
}

void SloMonitor::WriteJson(json::Writer& w, SimTime now) {
  const SloStats s = Stats(now);
  w.BeginObject().Field("slo_ms", ToSeconds(config_.slo) * 1e3);
  w.Field("target", config_.target);
  w.Field("alert_burn_rate", config_.alert_burn_rate);
  w.Field("total", s.total).Field("violations", s.violations);
  w.Field("attainment", s.attainment).Key("windows").BeginArray();
  for (const SloWindowStats& window : s.windows) {
    w.BeginObject().Field("window_s", ToSeconds(window.window));
    w.Field("total", window.total).Field("violations", window.violations);
    w.Field("attainment", window.attainment);
    w.Field("burn_rate", window.burn_rate);
    w.Field("alerting", window.alerting).EndObject();
  }
  w.EndArray().EndObject();
}

}  // namespace arlo::obs
