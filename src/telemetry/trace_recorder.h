// Request-lifecycle tracer: records spans (enqueue → dispatch → service →
// complete) and instant events (ILP solves, demotions, instance churn,
// autoscaler decisions, fault injections) and serializes them as Chrome
// trace_event JSON — the format chrome://tracing and Perfetto load directly,
// with instances on the thread axis, so a run's scheduling behaviour is
// inspectable on a timeline instead of summarized away.
//
// Record-path design: one mutex-guarded vector append per event; event names
// and argument keys are `const char*` string literals owned by the caller,
// so an event is a flat POD and recording allocates only on vector growth.
// Timestamps are simulated nanoseconds; under the deterministic simulator
// identical seeds produce byte-identical serialized traces (the
// sim-determinism test asserts exactly this).
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace arlo::telemetry {

/// One key=value argument attached to a trace event.  Keys must be string
/// literals (or otherwise outlive the recorder).
struct TraceArg {
  const char* key;
  std::int64_t value;
};

/// A borrowed view of one trace event, handed to a TraceMirror as it is
/// recorded.  Pointers are only valid for the duration of the call.
struct TraceEventView {
  const char* name;
  const char* category;
  char phase;  // 'X' or 'i'
  SimTime ts;
  SimDuration dur;  // spans only; 0 for instants
  std::int64_t tid;
  int num_args;
  const TraceArg* args;
};

/// Receives a copy of every event the recorder accepts — the fan-out hook
/// the obs flight recorder rides on.  Called from whatever thread records
/// the event, with no recorder lock held: implementations must be
/// thread-safe and cheap (the record path is hot).
class TraceMirror {
 public:
  virtual ~TraceMirror() = default;
  virtual void OnTraceEvent(const TraceEventView& event) = 0;
};

class TraceRecorder {
 public:
  static constexpr int kMaxArgs = 4;
  /// Synthetic "thread" lane for control-plane events (scheduler decisions,
  /// autoscaling) so they don't interleave with per-instance service lanes.
  static constexpr std::int64_t kControlLane = -1;

  /// `max_events` bounds the in-memory event buffer: once full, recording a
  /// new event drops the oldest one (week-long runs cannot OOM the
  /// recorder).  0 = unbounded, the historical behavior.  A capped run
  /// whose event count never reaches the cap serializes byte-identically
  /// to an unbounded one.
  explicit TraceRecorder(std::uint64_t run_id, std::size_t max_events = 0)
      : run_id_(run_id), max_events_(max_events) {}

  /// Attaches a mirror that sees every subsequent event (null detaches).
  /// Not synchronized with recording: set it before the run starts.
  void SetMirror(TraceMirror* mirror) { mirror_ = mirror; }

  /// A completed span ("ph":"X"): [ts, ts+dur) on lane `tid`.
  void Complete(const char* name, const char* category, SimTime ts,
                SimDuration dur, std::int64_t tid,
                std::initializer_list<TraceArg> args = {});

  /// An instant event ("ph":"i") at `ts` on lane `tid`.
  void Instant(const char* name, const char* category, SimTime ts,
               std::int64_t tid, std::initializer_list<TraceArg> args = {});

  std::size_t Size() const;
  std::uint64_t RunId() const { return run_id_; }
  std::size_t MaxEvents() const { return max_events_; }
  /// Events evicted oldest-first because the buffer was at `max_events`.
  std::size_t Dropped() const;

  /// Serializes `{"traceEvents": [...], ...}` with events ordered by
  /// (timestamp, insertion order).  Timestamps are emitted in microseconds
  /// with fixed 3-decimal formatting, so output is a pure function of the
  /// recorded events.
  void WriteJson(std::ostream& os) const;

 private:
  struct Event {
    const char* name;
    const char* category;
    char phase;         // 'X' or 'i'
    SimTime ts;         // ns
    SimDuration dur;    // ns, spans only
    std::int64_t tid;
    int num_args;
    TraceArg args[kMaxArgs];
  };

  void Push(Event event, std::initializer_list<TraceArg> args);

  std::uint64_t run_id_;
  std::size_t max_events_;
  TraceMirror* mirror_ = nullptr;
  mutable std::mutex mu_;
  std::deque<Event> events_;
  std::size_t dropped_ = 0;
};

/// Writes one Chrome trace_event JSON object for `event`.  Shared between
/// TraceRecorder::WriteJson and the obs flight recorder so both emit the
/// identical format.
void AppendChromeEvent(json::Writer& w, const TraceEventView& event);

}  // namespace arlo::telemetry
