#include "telemetry/trace_recorder.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/check.h"
#include "common/json.h"

namespace arlo::telemetry {
namespace {

/// Microsecond timestamp with fixed 3-decimal formatting ("12.345"): the
/// Chrome trace clock is microseconds, ours is nanoseconds, and snprintf
/// with a fixed precision keeps serialization deterministic.
void Micros(json::Writer& w, std::string_view key, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03d",
                static_cast<long long>(ns / 1000),
                static_cast<int>(std::llabs(ns % 1000)));
  w.Key(key).Raw(buf);
}

}  // namespace

void AppendChromeEvent(json::Writer& w, const TraceEventView& event) {
  w.BeginObject().Field("name", event.name).Field("cat", event.category);
  w.Field("ph", std::string_view(&event.phase, 1));
  Micros(w, "ts", event.ts);
  if (event.phase == 'X') Micros(w, "dur", event.dur);
  if (event.phase == 'i') w.Field("s", "t");
  w.Field("pid", 0).Field("tid", event.tid);
  if (event.num_args > 0) {
    w.Key("args").BeginObject();
    for (int i = 0; i < event.num_args; ++i) {
      w.Field(event.args[i].key, event.args[i].value);
    }
    w.EndObject();
  }
  w.EndObject();
}

void TraceRecorder::Push(Event event, std::initializer_list<TraceArg> args) {
  ARLO_CHECK(args.size() <= static_cast<std::size_t>(kMaxArgs));
  event.num_args = static_cast<int>(args.size());
  int i = 0;
  for (const TraceArg& a : args) event.args[i++] = a;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (max_events_ > 0 && events_.size() >= max_events_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(event);
  }
  if (mirror_ != nullptr) {
    TraceEventView view;
    view.name = event.name;
    view.category = event.category;
    view.phase = event.phase;
    view.ts = event.ts;
    view.dur = event.dur;
    view.tid = event.tid;
    view.num_args = event.num_args;
    view.args = event.args;
    mirror_->OnTraceEvent(view);
  }
}

void TraceRecorder::Complete(const char* name, const char* category,
                             SimTime ts, SimDuration dur, std::int64_t tid,
                             std::initializer_list<TraceArg> args) {
  Event e{};
  e.name = name;
  e.category = category;
  e.phase = 'X';
  e.ts = ts;
  e.dur = dur < 0 ? 0 : dur;
  e.tid = tid;
  Push(e, args);
}

void TraceRecorder::Instant(const char* name, const char* category,
                            SimTime ts, std::int64_t tid,
                            std::initializer_list<TraceArg> args) {
  Event e{};
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.ts = ts;
  e.tid = tid;
  Push(e, args);
}

std::size_t TraceRecorder::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceRecorder::Dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::WriteJson(std::ostream& os) const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.assign(events_.begin(), events_.end());
  }
  // Stable sort: timeline order for viewers, insertion order as tiebreak so
  // simulator runs serialize deterministically.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  json::Writer w(os);
  w.BeginObject().Key("traceEvents").BeginArray(json::Writer::Layout::kLines);
  for (const Event& e : events) {
    TraceEventView view;
    view.name = e.name;
    view.category = e.category;
    view.phase = e.phase;
    view.ts = e.ts;
    view.dur = e.dur;
    view.tid = e.tid;
    view.num_args = e.num_args;
    view.args = e.args;
    AppendChromeEvent(w, view);
  }
  w.EndArray().Field("displayTimeUnit", "ms").Key("otherData").BeginObject();
  w.Field("run_id", std::to_string(run_id_)).EndObject().EndObject();
  os << '\n';
}

}  // namespace arlo::telemetry
