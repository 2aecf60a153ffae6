// Crash-safe flight recorder: a fixed-size lock-free ring holding the most
// recent request-lifecycle and control-plane trace events.  It plugs into
// TraceRecorder as a TraceMirror, so every event the tracer accepts is also
// written here — but where the tracer accumulates (or caps) for the
// end-of-run artifact, the ring always holds exactly the last `capacity`
// events and can be dumped at any instant: on demand (POST /debug/dump,
// SIGUSR1 in live_serving) or automatically when the fault layer detects a
// crash/shed storm.
//
// Concurrency: writers claim a ticket with one fetch_add and publish the
// slot under a per-slot sequence number (seqlock).  Payload fields are
// atomics (release stores, acquire loads), so concurrent overwrite is only
// unordered, never a data race; a reader accepts a slot only when the
// sequence matches the exact ticket before and after copying, so lapped or
// in-flight slots are skipped rather than emitted torn.  Record() is
// wait-free (one fetch_add + ~10 release stores, plain moves on x86) — safe
// on the dispatch hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "telemetry/trace_recorder.h"

namespace arlo::obs {

class FlightRecorder final : public telemetry::TraceMirror {
 public:
  /// `capacity` is rounded up to a power of two (slot mapping is a mask).
  explicit FlightRecorder(std::size_t capacity = 4096);

  void OnTraceEvent(const telemetry::TraceEventView& event) override {
    Record(event);
  }

  void Record(const telemetry::TraceEventView& event);

  std::size_t Capacity() const { return capacity_; }
  /// Total events ever recorded (recorded - capacity have been overwritten).
  std::uint64_t Recorded() const {
    return next_.load(std::memory_order_acquire);
  }

  /// Serializes the ring's current contents (oldest surviving event first,
  /// then sorted by timestamp) as Chrome trace JSON — the same format as
  /// TraceRecorder::WriteJson, loadable in chrome://tracing / Perfetto.
  /// Safe concurrently with writers; slots mid-overwrite are skipped.
  void WriteJson(std::ostream& os) const;

  /// WriteJson to `path`; returns false on I/O failure.
  bool DumpToFile(const std::string& path) const;

 private:
  struct Slot {
    /// 2*ticket+1 while writing, 2*ticket+2 when published.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> category{nullptr};
    std::atomic<char> phase{'i'};
    std::atomic<SimTime> ts{0};
    std::atomic<SimDuration> dur{0};
    std::atomic<std::int64_t> tid{0};
    std::atomic<int> num_args{0};
    std::atomic<const char*> arg_keys[telemetry::TraceRecorder::kMaxArgs];
    std::atomic<std::int64_t> arg_vals[telemetry::TraceRecorder::kMaxArgs];
  };

  std::size_t capacity_;  ///< power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

}  // namespace arlo::obs
