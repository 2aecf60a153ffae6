// Admin-plane probe client: one blocking HTTP round to a node's /healthz
// and /statusz.  The statusz body is read by serving::ParseStatusz, the
// strict typed parser that owns the node /statusz format, so a probe holds
// exactly the fields the node wrote — nothing is re-declared here.
#pragma once

#include <cstdint>

#include "serving/statusz.h"

namespace arlo::obs {

/// One probe of a backend node's admin endpoint: the node's parsed
/// /statusz (valid when reachable) plus how the two fetches went.
struct NodeProbe : serving::Statusz {
  bool reachable = false;  ///< both HTTP fetches completed
  bool healthy = false;    ///< /healthz answered 200
};

/// Probes 127.0.0.1:`admin_port` (GET /healthz then GET /statusz).  Never
/// throws: unreachable or unparsable endpoints come back reachable=false —
/// including a reachable node whose /statusz body is truncated or malformed
/// (the probe is all-or-nothing; partial structs are never returned).
NodeProbe ProbeAdminEndpoint(std::uint16_t admin_port);

}  // namespace arlo::obs
