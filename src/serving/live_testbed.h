// Live (open-ended) testbed: the same wall-clock executor that RunTestbed
// drives from a trace, exposed as a submission API so an external frontend —
// the src/net TCP server, or any in-process producer — can feed requests at
// wall-clock time and observe completions through callbacks.
//
// Lifecycle: Start() deploys the scheme and starts the executor thread;
// Submit() / SubmitAll() hand requests to the dispatcher (thread-safe, any
// producer thread); Finish() waits for every submitted request to complete,
// joins the executor thread, and returns the records.
//
// Completion callbacks run on the executor thread, with the dispatch mutex
// held: they must be fast, must not block, and must not call back into the
// LiveTestbed (push to a queue and return — the src/net server hands
// replies to its event loop exactly that way).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "serving/testbed.h"

namespace arlo::serving {

/// Liveness view of a running testbed (the /healthz payload): `ok` is false
/// when a hang scan at query time finds workers holding work with no
/// progress past the resilience hang timeout, or when no workers are live.
struct TestbedHealth {
  bool ok = true;
  int live_workers = 0;
  int outstanding = 0;
  std::size_t tracked = 0;
  std::vector<InstanceId> hung;
};

class LiveTestbed {
 public:
  using CompletionFn = std::function<void(const RequestRecord&)>;

  /// One request and its completion callback, as SubmitAll takes them.
  struct Submission {
    Request request;
    CompletionFn done;
  };

  LiveTestbed(sim::Scheme& scheme, const TestbedConfig& config = {});
  /// Calls Finish() if the caller has not (discarding the result).
  ~LiveTestbed();

  LiveTestbed(const LiveTestbed&) = delete;
  LiveTestbed& operator=(const LiveTestbed&) = delete;

  /// Deploys the scheme's initial instances and starts the executor
  /// thread.  The wall clock of SimTime 0 is captured here.
  void Start();

  /// Scaled wall-clock time since Start().
  SimTime Now() const;

  /// The configuration this testbed was constructed with (time_scale etc.;
  /// the net server reads it to convert between wall and simulated time).
  const TestbedConfig& Config() const;

  /// Submits one request.  `request.id` must be unique across the run (the
  /// net server assigns sequential ids; trace replay uses trace ids).  The
  /// arrival timestamp is taken from `request.arrival` — stamp it with
  /// Now() for live traffic.  `done`, if provided, fires exactly once when
  /// the request completes (requeues and retries notwithstanding: the
  /// testbed never drops a submitted request).
  void Submit(const Request& request, CompletionFn done = nullptr);

  /// Submits a batch, in order, under one acquisition of the dispatch lock;
  /// each element behaves exactly as Submit(request, done) would.  The
  /// executor thread is notified at most once, after the lock is released,
  /// and only when the batch moved its next event earlier.
  /// The net server's event loop calls this once per loop pass with every
  /// request the pass admitted.  Consumes `batch`: the callbacks are moved
  /// out and the vector is left empty with its capacity kept for reuse.
  void SubmitAll(std::vector<Submission>& batch);

  /// Requests currently in the system (submitted, not yet completed).
  int Outstanding() const;

  /// Live (ready or provisioning) worker instances.
  int NumWorkers() const;

  /// Rough expected queueing delay for a request submitted now: EWMA of
  /// observed service times x in-system requests / live workers.  Zero
  /// until the first completion.  This is the estimate the net admission
  /// controller compares against request deadlines for early rejection.
  SimDuration EstimatedQueueDelay() const;

  /// Point-in-time liveness report (admin /healthz).  Runs a hang scan with
  /// the fault layer's HealthTracker; safe from any thread while running.
  TestbedHealth Health();

  /// Applies an externally-computed GPUs-per-runtime target (the cluster
  /// Runtime Scheduler's POST /realloc verb): hands it to the scheme under
  /// the dispatch lock, which validates it against the live fleet and rolls
  /// it out with zero-loss retire/requeue.  Returns false when the scheme
  /// rejects it (unsupported, stale fleet shape, rollout in progress) —
  /// callers map that to 409 and retry after the next scrape.  Safe from
  /// any thread while running.
  bool ApplyAllocation(const std::vector<int>& allocation);

  /// Live cluster state as one JSON object (admin /statusz, the
  /// serving::Statusz format): per-worker queue depth and state, inflight
  /// and buffered counts, batch stats, and the scheme's own WriteStatusJson
  /// section.  Safe from any thread while running.  The dispatch lock is
  /// held only while the struct is filled, not while it is formatted; still
  /// a monitoring-rate (not hot-path) operation.
  void WriteStatusJson(std::ostream& os);

  /// Blocks until every submitted request has completed.
  void Drain();

  /// Drain, stop and join the executor thread, and collect results.
  /// Submit must not be called after (or concurrently with) Finish.
  TestbedResult Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace arlo::serving
