#include "sim/scheme.h"

#include <ostream>

#include "common/check.h"
#include "common/json.h"

namespace arlo::sim {

void Scheme::WriteStatusJson(std::ostream& os, SimTime now) const {
  (void)now;
  json::Writer(os).BeginObject().Field("name", Name()).EndObject();
}

void Scheme::OnInstanceFailure(InstanceId instance, ClusterOps& cluster) {
  (void)instance;
  (void)cluster;
  ARLO_CHECK_MSG(false,
                 "fault injection enabled but the scheme does not implement "
                 "OnInstanceFailure");
}

}  // namespace arlo::sim
