// Deterministic discrete-event queue.
//
// Events at equal timestamps run in scheduling (FIFO) order via a sequence
// counter, so a simulation is a pure function of (trace, scheme, config) —
// no floating-point or container-order nondeterminism.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "common/types.h"

namespace arlo::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `fn` at absolute time `when` (must be >= Now()).
  void Schedule(SimTime when, Handler fn);

  /// Runs the earliest event; returns false when the queue is empty.
  bool RunNext();

  /// Current simulation time (time of the last event started, 0 initially).
  SimTime Now() const { return now_; }

  bool Empty() const { return heap_.empty(); }
  /// Time of the earliest pending event; the largest SimTime when none is.
  SimTime NextTime() const {
    return heap_.empty() ? std::numeric_limits<SimTime>::max()
                         : heap_.top().time;
  }
  std::size_t Size() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

}  // namespace arlo::sim
