#include "core/request_scheduler.h"

#include "common/check.h"

namespace arlo::core {

RequestScheduler::RequestScheduler(const runtime::RuntimeSet* runtimes,
                                   const MultiLevelQueue* queue,
                                   RequestSchedulerParams params)
    : runtimes_(runtimes), queue_(queue), params_(params) {
  ARLO_CHECK(runtimes_ != nullptr);
  ARLO_CHECK(queue_ != nullptr);
  ARLO_CHECK(queue_->NumLevels() == runtimes_->Size());
  ARLO_CHECK(params_.lambda > 0.0);
  ARLO_CHECK(params_.alpha > 0.0 && params_.alpha <= 1.0);
  ARLO_CHECK(params_.max_peek >= 1);
}

std::optional<DispatchDecision> RequestScheduler::Select(
    int request_length) const {
  // Line 2: candidate runtimes sorted ascending by max_length.
  const std::vector<RuntimeId> candidates =
      runtimes_->CandidatesFor(request_length);
  ARLO_CHECK_MSG(!candidates.empty(),
                 "request longer than the largest runtime's max_length");
  const RuntimeId ideal = candidates.front();

  double lambda = params_.lambda;
  DispatchDecision decision;
  // Lines 3-5: peek at most L candidates.
  const int limit =
      std::min<int>(params_.max_peek, static_cast<int>(candidates.size()));
  for (int k = 0; k < limit; ++k) {
    const RuntimeId level = candidates[static_cast<std::size_t>(k)];
    const auto head = queue_->Head(level);
    if (!head) continue;  // level currently has no instances; skip
    ++decision.levels_peeked;
    // Lines 7-9: congestion of the head instance.
    if (head->Congestion() < lambda) {  // line 10
      decision.instance = head->id;
      decision.runtime = level;
      decision.demoted = level != ideal;
      return decision;
    }
    lambda *= params_.alpha;  // line 15
  }

  // Lines 18-19: all peeked candidates congested — fall back to the top
  // candidate runtime that has any instance.
  for (const RuntimeId level : candidates) {
    const auto head = queue_->Head(level);
    if (!head) continue;
    decision.instance = head->id;
    decision.runtime = level;
    decision.fell_back = true;
    decision.demoted = level != ideal;
    return decision;
  }
  return std::nullopt;  // nothing dispatchable right now
}

}  // namespace arlo::core
