// Admin HTTP server + the AdminPlane route bundle.
//
// AdminServer is a single-threaded HTTP/1.1 event loop on the src/net
// epoll poller (the one the serving frontend runs on): accept, parse
// incrementally, run the route handler, flush, close.  Handlers run on the
// admin thread at monitoring rates, so they may take serving-side locks
// (the /statusz provider takes the testbed's dispatch lock while it fills
// the status struct) — the serving hot path never blocks on the admin plane,
// and an idle admin server costs one sleeping thread.
//
// AdminPlane wires the standard endpoints:
//   GET  /            index
//   GET  /metrics     Prometheus text from the live MetricsRegistry
//   GET  /healthz     200/503 + JSON from the health provider
//   GET  /statusz     JSON cluster status from the status provider
//   GET  /slo         attainment + multi-window burn rates (SloMonitor)
//   POST /debug/dump  flight-recorder contents as Chrome trace JSON
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/http.h"

namespace arlo::telemetry {
class TelemetrySink;
}

namespace arlo::obs {

class SloMonitor;
class TenantSloSet;
class FlightRecorder;

class AdminServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back with Port()
  };

  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t bad_requests = 0;
  };

  AdminServer();  ///< Options() — ephemeral port, default poller backend
  explicit AdminServer(Options options);
  ~AdminServer();  ///< Stop() if running

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers a handler for exact (method, path).  Must be called before
  /// Start.  A path registered under a different method answers 405.
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Binds the listen socket and spawns the event-loop thread.
  void Start();
  void Stop();

  /// The bound port (valid after Start).
  std::uint16_t Port() const;

  Stats GetStats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Everything the admin plane needs from the run.  Providers are called on
/// the admin thread; null members disable their endpoint (503).
struct AdminPlaneConfig {
  std::uint16_t port = 0;
  /// /metrics (and the /slo gauges' registry).
  telemetry::TelemetrySink* sink = nullptr;
  /// /statusz: writes one JSON object (e.g. LiveTestbed::WriteStatusJson).
  std::function<void(std::ostream&)> statusz;
  /// /healthz: ok -> 200, !ok -> 503; detail_json is the response body.
  struct HealthzReport {
    bool ok = true;
    std::string detail_json = "{}";
  };
  std::function<HealthzReport()> healthz;
  /// Clock for /slo window advancement (testbed Now(); sim virtual time).
  std::function<SimTime()> now;
  SloMonitor* slo = nullptr;
  /// Optional per-tenant-class monitors; /slo nests them under "tenants"
  /// when both are set (docs/TENANTS.md).
  TenantSloSet* tenant_slo = nullptr;
  FlightRecorder* flight = nullptr;
  /// POST /realloc: applies an externally-computed GPUs-per-runtime target
  /// (normally LiveTestbed::ApplyAllocation).  The allocation arrives as
  /// `alloc=n0,n1,...` in the query string or body.  Return false when the
  /// node rejects the vector (stale fleet shape, rollout in flight) — the
  /// route answers 409 and the cluster scheduler retries after its next
  /// scrape.  Null disables the verb (503).
  std::function<bool(const std::vector<int>&)> realloc;
};

class AdminPlane {
 public:
  explicit AdminPlane(AdminPlaneConfig config);

  void Start() { server_.Start(); }
  void Stop() { server_.Stop(); }
  std::uint16_t Port() const { return server_.Port(); }
  AdminServer& Server() { return server_; }

 private:
  AdminPlaneConfig config_;
  AdminServer server_;
};

}  // namespace arlo::obs
