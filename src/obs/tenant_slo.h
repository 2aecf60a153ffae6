// Per-tenant-class SLO burn-rate monitoring (docs/TENANTS.md).
//
// TenantSloSet owns one SloMonitor per class in a TenantClassTable — each
// monitor's latency SLO is that class's deadline, its metrics carry a
// {class="name"} label — and demultiplexes the TelemetrySink observer
// fan-out by the record's tenant_class.  Register it as an observer instead
// of (or alongside) a global SloMonitor; the admin /slo endpoint appends
// its per-class array when configured.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "obs/slo_monitor.h"
#include "tenant/class_table.h"

namespace arlo::obs {

class TenantSloSet final : public telemetry::TelemetryObserver {
 public:
  /// One monitor per class in `table` (which must outlive this object).
  /// `base` supplies everything but `slo` and `label`, which are taken from
  /// each class (a class with slo == 0 falls back to base.slo).
  TenantSloSet(const tenant::TenantClassTable& table, SloMonitorConfig base);

  // TelemetryObserver: route by tenant class (unknown ids -> class 0).
  void OnComplete(const RequestRecord& record) override;
  void OnShed(const Request& request, SimTime now) override;

  int Size() const { return static_cast<int>(monitors_.size()); }
  /// The class's monitor (clamped like dispatch: unknown ids -> class 0).
  SloMonitor& Monitor(int cls);

  /// JSON array of per-class objects:
  ///   [{"class":0,"name":"interactive",...,"slo":{SloMonitor::WriteJson}}]
  void WriteJson(json::Writer& w, SimTime now);

 private:
  const tenant::TenantClassTable& table_;
  std::vector<std::unique_ptr<SloMonitor>> monitors_;
};

}  // namespace arlo::obs
