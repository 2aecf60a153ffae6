#include "obs/tenant_slo.h"

#include <ostream>

#include "common/check.h"
#include "common/json.h"

namespace arlo::obs {

TenantSloSet::TenantSloSet(const tenant::TenantClassTable& table,
                           SloMonitorConfig base)
    : table_(table) {
  ARLO_CHECK_MSG(!table.Empty(), "TenantSloSet needs a non-empty class table");
  for (const tenant::TenantClass& klass : table.Classes()) {
    SloMonitorConfig config = base;
    if (klass.slo > 0) config.slo = klass.slo;
    config.label = klass.name;
    monitors_.push_back(std::make_unique<SloMonitor>(config));
  }
}

void TenantSloSet::OnComplete(const RequestRecord& record) {
  monitors_[static_cast<std::size_t>(table_.Clamp(record.tenant_class))]
      ->OnComplete(record);
}

void TenantSloSet::OnShed(const Request& request, SimTime now) {
  monitors_[static_cast<std::size_t>(table_.Clamp(request.tenant_class))]
      ->OnShed(request, now);
}

SloMonitor& TenantSloSet::Monitor(int cls) {
  return *monitors_[static_cast<std::size_t>(table_.Clamp(cls))];
}

void TenantSloSet::WriteJson(json::Writer& w, SimTime now) {
  w.BeginArray();
  for (std::size_t c = 0; c < monitors_.size(); ++c) {
    const tenant::TenantClass& klass = table_.Class(static_cast<int>(c));
    w.BeginObject().Field("class", c).Field("name", klass.name);
    w.Field("weight", klass.weight);
    w.Field("shed_policy", tenant::ShedPolicyName(klass.shed)).Key("slo");
    monitors_[c]->WriteJson(w, now);
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace arlo::obs
