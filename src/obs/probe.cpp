#include "obs/probe.h"

#include "obs/http.h"

namespace arlo::obs {

NodeProbe ProbeAdminEndpoint(std::uint16_t admin_port) {
  NodeProbe probe;
  const HttpResult health = HttpFetch(admin_port, "GET", "/healthz");
  if (!health.ok) return probe;
  const HttpResult status = HttpFetch(admin_port, "GET", "/statusz");
  if (!status.ok) return probe;
  probe.reachable = true;
  probe.healthy = health.status == 200;
  if (status.status == 200 && !serving::ParseStatusz(status.body, probe)) {
    // Truncated or malformed statusz: report the whole probe as failed
    // rather than handing the caller a half-filled struct.
    probe.reachable = false;
    probe.healthy = false;
  }
  return probe;
}

}  // namespace arlo::obs
