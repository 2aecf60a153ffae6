#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <vector>

#include "common/json.h"

namespace arlo::obs {
namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(RoundUpPow2(capacity < 2 ? 2 : capacity)),
      slots_(new Slot[capacity_]) {}

void FlightRecorder::Record(const telemetry::TraceEventView& event) {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  // Odd = write in progress.  A lapping writer (ticket + capacity) racing
  // this one leaves the slot with the later writer's seq; readers verify
  // the exact expected seq before and after copying, so a mixed payload is
  // never emitted.  Payload stores are release so that a reader whose
  // acquire load sees one of them also sees the odd seq stored before it.
  constexpr auto kRelease = std::memory_order_release;
  slot.seq.store(2 * ticket + 1, kRelease);
  slot.name.store(event.name, kRelease);
  slot.category.store(event.category, kRelease);
  slot.phase.store(event.phase, kRelease);
  slot.ts.store(event.ts, kRelease);
  slot.dur.store(event.dur, kRelease);
  slot.tid.store(event.tid, kRelease);
  const int num_args =
      std::min(event.num_args, telemetry::TraceRecorder::kMaxArgs);
  slot.num_args.store(num_args, kRelease);
  for (int i = 0; i < num_args; ++i) {
    slot.arg_keys[i].store(event.args[i].key, kRelease);
    slot.arg_vals[i].store(event.args[i].value, kRelease);
  }
  // Publish: the release store orders every payload store above before the
  // even seq becomes visible to an acquire reader.
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

void FlightRecorder::WriteJson(std::ostream& os) const {
  struct EventCopy {
    telemetry::TraceEventView view;
    telemetry::TraceArg args[telemetry::TraceRecorder::kMaxArgs];
  };
  constexpr auto kAcquire = std::memory_order_acquire;
  const std::uint64_t total = next_.load(kAcquire);
  const std::uint64_t first = total > capacity_ ? total - capacity_ : 0;
  std::vector<EventCopy> events;
  events.reserve(static_cast<std::size_t>(total - first));
  for (std::uint64_t ticket = first; ticket < total; ++ticket) {
    const Slot& slot = slots_[ticket & (capacity_ - 1)];
    if (slot.seq.load(kAcquire) != 2 * ticket + 2) continue;
    EventCopy c;
    c.view.name = slot.name.load(kAcquire);
    c.view.category = slot.category.load(kAcquire);
    c.view.phase = slot.phase.load(kAcquire);
    c.view.ts = slot.ts.load(kAcquire);
    c.view.dur = slot.dur.load(kAcquire);
    c.view.tid = slot.tid.load(kAcquire);
    c.view.num_args = std::min(slot.num_args.load(kAcquire),
                               telemetry::TraceRecorder::kMaxArgs);
    if (c.view.num_args < 0) continue;
    for (int i = 0; i < c.view.num_args; ++i) {
      c.args[i].key = slot.arg_keys[i].load(kAcquire);
      c.args[i].value = slot.arg_vals[i].load(kAcquire);
    }
    c.view.args = nullptr;  // re-pointed after the vector stops moving
    // Validate: an overwrite that started mid-copy bumped seq (odd or a
    // later ticket).  Each payload load is acquire, so if it read a later
    // writer's value, that writer's odd seq is visible here and the re-check
    // rejects the torn copy (no standalone fence, which ThreadSanitizer
    // cannot model).
    if (slot.seq.load(std::memory_order_relaxed) != 2 * ticket + 2) continue;
    if (c.view.name == nullptr || c.view.category == nullptr) continue;
    events.push_back(c);
  }
  // Tickets are claim order, not timestamp order (threads race between
  // fetch_add and publish) — sort as TraceRecorder does.
  std::stable_sort(events.begin(), events.end(),
                   [](const EventCopy& a, const EventCopy& b) {
                     return a.view.ts < b.view.ts;
                   });

  json::Writer w(os);
  w.BeginObject().Key("traceEvents").BeginArray(json::Writer::Layout::kLines);
  for (EventCopy& e : events) {
    e.view.args = e.args;
    telemetry::AppendChromeEvent(w, e.view);
  }
  w.EndArray().Field("displayTimeUnit", "ms").Key("otherData").BeginObject();
  w.Field("source", "flight_recorder").Field("recorded", total);
  w.Field("capacity", capacity_).EndObject().EndObject();
  os << '\n';
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteJson(os);
  return static_cast<bool>(os);
}

}  // namespace arlo::obs
