#include "serving/statusz.h"

#include <ostream>
#include <utility>

#include "common/json.h"

namespace arlo::serving {
namespace {

constexpr bool kRequired = true;

// Typed reads of one JSON value; false on a type mismatch.
template <typename T>
bool ReadValue(const json::Value& v, T& out) {
  return v.Get(out);
}
bool ReadValue(const json::Value& v, Statusz::Tenant& out);
bool ReadValue(const json::Value& v, Statusz::Worker& out);

template <typename T>
bool ReadValue(const json::Value& v, std::optional<T>& out) {
  return ReadValue(v, out.emplace());
}

template <typename T>
bool ReadValue(const json::Value& v, std::vector<T>& out) {
  if (v.type() != json::Value::Type::kArray) return false;
  out.resize(v.Items().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!ReadValue(v.Items()[i], out[i])) return false;
  }
  return true;
}

/// A nested object, kept for reading its own members.
bool ReadValue(const json::Value& v, const json::Value*& out) {
  out = &v;
  return v.type() == json::Value::Type::kObject;
}

/// Reads member `key` of object `obj` into `out`.  An absent member leaves
/// `out` as it is and fails only when `required`.
template <typename T>
bool Read(const json::Value& obj, std::string_view key, T& out,
          bool required = false) {
  const json::Value* v = obj.Find(key);
  return v == nullptr ? !required : ReadValue(*v, out);
}

bool ReadValue(const json::Value& v, Statusz::Tenant& out) {
  return Read(v, "class", out.id, kRequired) &&
         Read(v, "name", out.name, kRequired) &&
         Read(v, "weight", out.weight, kRequired) &&
         Read(v, "slo_ms", out.slo_ms, kRequired) &&
         Read(v, "buffered", out.buffered, kRequired) &&
         Read(v, "completed", out.completed, kRequired) &&
         Read(v, "queue_delay_ns", out.queue_delay_ns, kRequired);
}

bool ReadValue(const json::Value& v, Statusz::Worker& out) {
  return Read(v, "id", out.id, kRequired) &&
         Read(v, "runtime", out.runtime, kRequired) &&
         Read(v, "state", out.state, kRequired) &&
         Read(v, "max_length", out.max_length, kRequired) &&
         Read(v, "queued", out.queued, kRequired) &&
         Read(v, "executing", out.executing, kRequired) &&
         Read(v, "idle_s", out.idle_s);
}

}  // namespace

std::vector<int> Statusz::ReadyMaxLengths() const {
  std::vector<int> lengths;
  for (const Worker& w : workers) {
    if (w.state == "ready") lengths.push_back(w.max_length);
  }
  return lengths;
}

std::vector<int> Statusz::ReadyRuntimes() const {
  std::vector<int> runtimes;
  for (const Worker& w : workers) {
    if (w.state == "ready") runtimes.push_back(static_cast<int>(w.runtime));
  }
  return runtimes;
}

void WriteStatusz(std::ostream& os, const Statusz& s) {
  json::Writer w(os);
  w.BeginObject().Field("time_s", s.time_s).Field("submitted", s.submitted);
  w.Field("completed", s.completed).Field("inflight", s.inflight);
  w.Field("buffered", s.buffered).Field("live_workers", s.live_workers);
  w.Field("peak_workers", s.peak_workers);
  w.Field("est_queue_delay_ns", s.est_queue_delay_ns);
  w.Key("batches").BeginObject().Field("formed", s.batches_formed);
  w.Field("timeouts", s.batch_timeouts).EndObject();
  if (!s.mix_counts.empty()) {
    w.Key("length_mix").BeginObject().Key("bounds").NumberArray(s.mix_bounds);
    w.Key("counts").NumberArray(s.mix_counts).EndObject();
  }
  w.Key("reallocs").BeginObject().Field("applied", s.reallocs_applied);
  w.Field("rejected", s.reallocs_rejected);
  if (s.last_realloc_s) w.Field("last_s", *s.last_realloc_s);
  w.EndObject();
  if (!s.tenants.empty()) {
    w.Key("tenants").BeginArray();
    for (const Statusz::Tenant& t : s.tenants) {
      w.BeginObject().Field("class", t.id).Field("name", t.name);
      w.Field("weight", t.weight).Field("slo_ms", t.slo_ms);
      w.Field("buffered", t.buffered).Field("completed", t.completed);
      w.Field("queue_delay_ns", t.queue_delay_ns).EndObject();
    }
    w.EndArray();
  }
  w.Key("workers").BeginArray();
  for (const Statusz::Worker& worker : s.workers) {
    w.BeginObject().Field("id", worker.id).Field("runtime", worker.runtime);
    w.Field("state", worker.state).Field("max_length", worker.max_length);
    w.Field("queued", worker.queued).Field("executing", worker.executing);
    if (worker.idle_s) w.Field("idle_s", *worker.idle_s);
    w.EndObject();
  }
  w.EndArray();
  if (!s.stages.empty()) w.Key("stages").Raw(s.stages);
  if (!s.scheme.empty()) w.Key("scheme").Raw(s.scheme);
  w.EndObject();
}

bool ParseStatusz(std::string_view body, Statusz& out) {
  json::Value root;
  const json::Value* batches = nullptr;
  const json::Value* mix = nullptr;
  const json::Value* reallocs = nullptr;
  const json::Value* stages = nullptr;
  const json::Value* scheme = nullptr;
  Statusz s;
  // Every node statusz carries the required fields; a body missing any of
  // them is a foreign or mangled payload, not a partial answer to act on.
  const bool ok =
      json::Parse(body, root) && root.type() == json::Value::Type::kObject &&
      Read(root, "time_s", s.time_s, kRequired) &&
      Read(root, "submitted", s.submitted, kRequired) &&
      Read(root, "completed", s.completed, kRequired) &&
      Read(root, "inflight", s.inflight, kRequired) &&
      Read(root, "buffered", s.buffered, kRequired) &&
      Read(root, "live_workers", s.live_workers, kRequired) &&
      Read(root, "est_queue_delay_ns", s.est_queue_delay_ns, kRequired) &&
      Read(root, "peak_workers", s.peak_workers) &&
      Read(root, "batches", batches) && Read(root, "length_mix", mix) &&
      Read(root, "reallocs", reallocs) && Read(root, "tenants", s.tenants) &&
      Read(root, "workers", s.workers) && Read(root, "stages", stages) &&
      Read(root, "scheme", scheme) &&
      (batches == nullptr ||
       (Read(*batches, "formed", s.batches_formed) &&
        Read(*batches, "timeouts", s.batch_timeouts))) &&
      (mix == nullptr || (Read(*mix, "bounds", s.mix_bounds, kRequired) &&
                          Read(*mix, "counts", s.mix_counts, kRequired) &&
                          s.mix_bounds.size() == s.mix_counts.size())) &&
      (reallocs == nullptr ||
       (Read(*reallocs, "applied", s.reallocs_applied) &&
        Read(*reallocs, "rejected", s.reallocs_rejected) &&
        Read(*reallocs, "last_s", s.last_realloc_s))) &&
      (scheme == nullptr ||
       Read(*scheme, "pending_launches", s.pending_launches));
  if (!ok) return false;
  if (stages != nullptr) s.stages = stages->Source();
  if (scheme != nullptr) s.scheme = scheme->Source();
  out = std::move(s);
  return true;
}

}  // namespace arlo::serving
