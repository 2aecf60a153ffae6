// Unit tests for the fault subsystem's building blocks: FaultPlan DSL
// parsing and canonical serialization, retry backoff, and health tracking.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "fault/health.h"
#include "fault/retry.h"

namespace arlo::fault {
namespace {

TEST(FaultPlan, ParsesEveryDirective) {
  const FaultPlan plan = FaultPlan::Parse(
      "# comment-only line\n"
      "seed 42\n"
      "drop p=0.01   # trailing comment\n"
      "mtbf 5\n"
      "crash t=5 instance=3\n"
      "hang t=8 instance=1 dur=2.5\n"
      "slow t=10 instance=2 dur=5 factor=2.5\n");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.dispatch_error_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.random_crash_mtbf_s, 5.0);
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].at, Seconds(5.0));
  EXPECT_EQ(plan.events[0].instance, 3u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kHang);
  EXPECT_EQ(plan.events[1].duration, Seconds(2.5));
  EXPECT_EQ(plan.events[2].kind, FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 2.5);
  EXPECT_FALSE(plan.Empty());
}

TEST(FaultPlan, EmptyAndDefaults) {
  const FaultPlan plan = FaultPlan::Parse("\n  \n# nothing here\n");
  EXPECT_TRUE(plan.Empty());
  EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultPlan, ToStringRoundTripsExactly) {
  FaultPlan plan;
  plan.seed = 7;
  plan.dispatch_error_prob = 0.005;
  plan.random_crash_mtbf_s = 12.5;
  plan.CrashAt(Seconds(5.0), 3)
      .HangAt(Seconds(1.25), 1, Millis(750.0))
      .SlowdownAt(Seconds(10.0), 2, Seconds(5.0), 2.5);
  const std::string text = plan.ToString();
  const FaultPlan reparsed = FaultPlan::Parse(text);
  EXPECT_EQ(reparsed.ToString(), text);
  EXPECT_EQ(reparsed.seed, plan.seed);
  EXPECT_DOUBLE_EQ(reparsed.dispatch_error_prob, plan.dispatch_error_prob);
  ASSERT_EQ(reparsed.events.size(), 3u);
  // ToString emits events sorted by time; the hang (t=1.25) comes first.
  EXPECT_EQ(reparsed.events[0].kind, FaultKind::kHang);
  EXPECT_EQ(reparsed.events[0].duration, Millis(750.0));
}

TEST(FaultPlan, SortedIsStableByTime) {
  FaultPlan plan;
  plan.CrashAt(Seconds(2.0), 5).CrashAt(Seconds(1.0), 9).CrashAt(Seconds(2.0),
                                                                 6);
  const auto sorted = plan.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].instance, 9u);
  EXPECT_EQ(sorted[1].instance, 5u);  // insertion order kept for equal times
  EXPECT_EQ(sorted[2].instance, 6u);
}

TEST(FaultPlan, ErrorsNameTheOffendingLine) {
  try {
    FaultPlan::Parse("seed 1\nbogus t=1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fault plan line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
  EXPECT_THROW(FaultPlan::Parse("crash t=1"), std::invalid_argument);  // no
                                                                      // instance
  EXPECT_THROW(FaultPlan::Parse("crash t=abc instance=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("drop p=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("mtbf -1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("hang t=1 instance=0 dur=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("slow t=1 instance=0 dur=1 factor=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash t=1 instance=0 extra=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash t=1 bare-token instance=0"),
               std::invalid_argument);
  // Non-finite numbers and negative or oversized ids used to parse: NaN
  // slipped past the range checks and "-1" wrapped to the largest id.
  for (const char* text :
       {"drop p=nan", "mtbf nan", "mtbf inf", "crash t=nan instance=0",
        "crash t=1e300 instance=0", "hang t=1 instance=0 dur=inf",
        "slow t=1 instance=0 dur=1 factor=nan", "crash t=1 instance=-1",
        "crash t=1 instance=4294967296"}) {
    EXPECT_THROW(FaultPlan::Parse(text), std::invalid_argument) << text;
  }
}

TEST(RetryPolicy, BackoffGrowsAndClamps) {
  RetryPolicy policy;
  policy.initial_backoff = Millis(2.0);
  policy.multiplier = 2.0;
  policy.max_backoff = Millis(10.0);
  policy.jitter = 0.0;  // deterministic nominal values
  Rng rng(1);
  EXPECT_EQ(policy.BackoffFor(0, rng), Millis(2.0));
  EXPECT_EQ(policy.BackoffFor(1, rng), Millis(4.0));
  EXPECT_EQ(policy.BackoffFor(2, rng), Millis(8.0));
  EXPECT_EQ(policy.BackoffFor(3, rng), Millis(10.0));  // clamped
  EXPECT_EQ(policy.BackoffFor(9, rng), Millis(10.0));
}

TEST(RetryPolicy, JitterStaysInBoundsAndIsSeeded) {
  RetryPolicy policy;
  policy.initial_backoff = Millis(10.0);
  policy.jitter = 0.2;
  Rng rng_a(123), rng_b(123), rng_c(456);
  for (int i = 0; i < 200; ++i) {
    const SimDuration a = policy.BackoffFor(0, rng_a);
    EXPECT_GE(a, Millis(8.0));
    EXPECT_LE(a, Millis(12.0));
    EXPECT_EQ(a, policy.BackoffFor(0, rng_b));  // same seed, same jitter
  }
  // A different stream diverges somewhere in 200 draws.
  bool diverged = false;
  Rng rng_a2(123);
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = policy.BackoffFor(0, rng_a2) != policy.BackoffFor(0, rng_c);
  }
  EXPECT_TRUE(diverged);
}

TEST(HealthTracker, FindsOnlyStalledInstancesWithWork) {
  HealthTracker tracker(Seconds(1.0));
  tracker.OnReady(0, Seconds(0.0));
  tracker.OnReady(1, Seconds(0.0));
  tracker.OnReady(2, Seconds(0.0));
  tracker.OnProgress(1, Seconds(2.0));  // instance 1 kept working
  const auto outstanding = [](InstanceId id) { return id == 2 ? 0 : 3; };
  // t=2.5: instance 0 stalled with work; 1 progressed; 2 stalled but idle.
  const auto hung = tracker.FindHung(Seconds(2.5), outstanding);
  ASSERT_EQ(hung.size(), 1u);
  EXPECT_EQ(hung[0], 0u);
  // Progress on an untracked (gone) instance is ignored, not resurrected.
  tracker.OnGone(0);
  tracker.OnProgress(0, Seconds(3.0));
  EXPECT_FALSE(tracker.Tracks(0));
  EXPECT_EQ(tracker.NumTracked(), 2u);
  // By t=4 instance 1's progress (t=2) is stale too; gone instance 0 stays
  // out of the report.
  const auto hung_later = tracker.FindHung(Seconds(4.0), outstanding);
  ASSERT_EQ(hung_later.size(), 1u);
  EXPECT_EQ(hung_later[0], 1u);
}

TEST(HealthTracker, DisabledWithZeroTimeout) {
  HealthTracker tracker(0);
  tracker.OnReady(0, 0);
  EXPECT_TRUE(
      tracker.FindHung(Seconds(100.0), [](InstanceId) { return 5; }).empty());
}

}  // namespace
}  // namespace arlo::fault
