// Randomized differential test of MultiLevelQueue against a naive reference
// model: after every operation, heads, best-fits, counts, and per-instance
// loads must match a straightforward O(n)-scan implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/multi_level_queue.h"

namespace arlo::core {
namespace {

/// Naive reference: flat map scanned on every query.
class ReferenceModel {
 public:
  struct Inst {
    RuntimeId runtime;
    int outstanding;
    int capacity;
  };

  void Add(InstanceId id, RuntimeId rt, int cap, int out) {
    instances_[id] = {rt, out, cap};
  }
  void Remove(InstanceId id) { instances_.erase(id); }
  void Dispatch(InstanceId id) { ++instances_[id].outstanding; }
  void Complete(InstanceId id) {
    auto it = instances_.find(id);
    if (it != instances_.end()) --it->second.outstanding;
  }
  bool Contains(InstanceId id) const { return instances_.count(id) > 0; }

  std::optional<InstanceId> Head(RuntimeId level) const {
    std::optional<InstanceId> best;
    int best_load = 0;
    for (const auto& [id, inst] : instances_) {
      if (inst.runtime != level) continue;
      if (!best || inst.outstanding < best_load ||
          (inst.outstanding == best_load && id < *best)) {
        best = id;
        best_load = inst.outstanding;
      }
    }
    return best;
  }

  std::optional<InstanceId> BestFitBelow(RuntimeId level, int limit) const {
    std::optional<InstanceId> best;
    int best_load = -1;
    for (const auto& [id, inst] : instances_) {
      if (inst.runtime != level) continue;
      if (inst.outstanding >= limit || inst.outstanding >= inst.capacity) {
        continue;
      }
      // Ties: the set iterates ascending (outstanding, id) and BestFitBelow
      // scans backward, so among equals the *largest id* wins.
      if (inst.outstanding > best_load ||
          (inst.outstanding == best_load && id > *best)) {
        best = id;
        best_load = inst.outstanding;
      }
    }
    return best;
  }

  std::size_t Count(RuntimeId level) const {
    std::size_t n = 0;
    for (const auto& [id, inst] : instances_) {
      if (inst.runtime == level) ++n;
    }
    return n;
  }

  const std::map<InstanceId, Inst>& All() const { return instances_; }

 private:
  std::map<InstanceId, Inst> instances_;
};

class MlqFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(MlqFuzzTest, MatchesReferenceModelUnderRandomOps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL);
  constexpr std::size_t kLevels = 5;
  MultiLevelQueue queue(kLevels);
  ReferenceModel ref;
  InstanceId next_id = 0;
  std::vector<InstanceId> live;

  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op <= 2 || live.empty()) {  // add
      const auto level = static_cast<RuntimeId>(rng.UniformInt(0, 4));
      const int cap = static_cast<int>(rng.UniformInt(1, 8));
      const int out = static_cast<int>(rng.UniformInt(0, 5));
      queue.AddInstance(next_id, level, cap, out);
      ref.Add(next_id, level, cap, out);
      live.push_back(next_id++);
    } else if (op == 3 && !live.empty()) {  // remove
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      queue.RemoveInstance(live[idx]);
      ref.Remove(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op <= 6) {  // dispatch
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      queue.OnDispatch(live[idx]);
      ref.Dispatch(live[idx]);
    } else {  // complete (only when it would not underflow)
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      if (queue.Get(live[idx]).outstanding > 0) {
        queue.OnComplete(live[idx]);
        ref.Complete(live[idx]);
      }
    }

    // Full cross-check every 50 steps (and lightweight head checks always).
    for (RuntimeId level = 0; level < kLevels; ++level) {
      const auto head = queue.Head(level);
      const auto ref_head = ref.Head(level);
      ASSERT_EQ(head.has_value(), ref_head.has_value())
          << "step " << step << " level " << level;
      if (head) {
        ASSERT_EQ(head->id, *ref_head) << "step " << step;
      }
    }
    if (step % 50 == 0) {
      for (RuntimeId level = 0; level < kLevels; ++level) {
        ASSERT_EQ(queue.NumInstances(level), ref.Count(level));
        for (int limit : {1, 3, 100}) {
          const auto fit = queue.BestFitBelow(level, limit);
          const auto ref_fit = ref.BestFitBelow(level, limit);
          ASSERT_EQ(fit.has_value(), ref_fit.has_value())
              << "step " << step << " level " << level << " limit " << limit;
          if (fit) {
            ASSERT_EQ(fit->id, *ref_fit) << "step " << step;
          }
        }
      }
      for (const auto& [id, inst] : ref.All()) {
        const InstanceLoad load = queue.Get(id);
        ASSERT_EQ(load.outstanding, inst.outstanding);
        ASSERT_EQ(load.runtime, inst.runtime);
        ASSERT_EQ(load.max_capacity, inst.capacity);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlqFuzzTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace arlo::core
