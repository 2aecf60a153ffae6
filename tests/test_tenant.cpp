#include "tenant/class_table.h"
#include "tenant/dispatch_queue.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace arlo::tenant {
namespace {

// ---------------------------------------------------------------------------
// TenantClassTable parsing.

std::string ParseError(const std::string& spec) {
  try {
    TenantClassTable::Parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "<no throw>";
}

constexpr const char* kGrammar =
    " (expected name:wN:sloMS[:reject|:shed], comma-separated, at most 8 "
    "classes)";

TEST(TenantClassTable, ParsesTheCanonicalThreeClassSpec) {
  const TenantClassTable table = TenantClassTable::Parse(
      "interactive:w8:slo50,batch:w2:slo500,best:w1:slo2000:shed");
  ASSERT_EQ(table.Size(), 3);
  EXPECT_FALSE(table.Empty());
  EXPECT_EQ(table.TotalWeight(), 11);

  EXPECT_EQ(table.Class(0).id, 0);
  EXPECT_EQ(table.Class(0).name, "interactive");
  EXPECT_EQ(table.Class(0).weight, 8);
  EXPECT_EQ(table.Class(0).slo, Millis(50.0));
  EXPECT_EQ(table.Class(0).shed, ShedPolicy::kReject);

  EXPECT_EQ(table.Class(1).name, "batch");
  EXPECT_EQ(table.Class(1).weight, 2);
  EXPECT_EQ(table.Class(1).slo, Millis(500.0));

  EXPECT_EQ(table.Class(2).name, "best");
  EXPECT_EQ(table.Class(2).shed, ShedPolicy::kShed);
}

TEST(TenantClassTable, DefaultTableIsEmpty) {
  const TenantClassTable table;
  EXPECT_TRUE(table.Empty());
  EXPECT_EQ(table.Size(), 0);
  EXPECT_EQ(table.TotalWeight(), 0);
}

TEST(TenantClassTable, ExplicitRejectPolicyParsesAndIsCanonicalized) {
  const TenantClassTable table = TenantClassTable::Parse("a:w1:slo10:reject");
  EXPECT_EQ(table.Class(0).shed, ShedPolicy::kReject);
  // Canonical form omits the default policy.
  EXPECT_EQ(table.ToString(), "a:w1:slo10");
}

TEST(TenantClassTable, ToStringRoundTripsThroughParse) {
  const std::string spec =
      "interactive:w8:slo50,batch:w2:slo500,best:w1:slo2000:shed";
  const TenantClassTable table = TenantClassTable::Parse(spec);
  EXPECT_EQ(table.ToString(), spec);
  EXPECT_EQ(TenantClassTable::Parse(table.ToString()).ToString(), spec);
}

TEST(TenantClassTable, FractionalSloSurvivesToString) {
  const TenantClassTable table = TenantClassTable::Parse("a:w1:slo0.5");
  EXPECT_EQ(table.Class(0).slo, Millis(0.5));
  EXPECT_EQ(table.ToString(), "a:w1:slo0.5");
}

TEST(TenantClassTable, ClampMapsUnknownIdsToClassZero) {
  const TenantClassTable table = TenantClassTable::Parse("a:w1:slo10,b:w1:slo20");
  EXPECT_EQ(table.Clamp(0), 0);
  EXPECT_EQ(table.Clamp(1), 1);
  EXPECT_EQ(table.Clamp(2), 0);
  EXPECT_EQ(table.Clamp(-1), 0);
  EXPECT_EQ(table.Class(99).name, "a");
}

TEST(TenantClassTable, FindLooksUpByName) {
  const TenantClassTable table = TenantClassTable::Parse("a:w1:slo10,b:w3:slo20");
  ASSERT_NE(table.Find("b"), nullptr);
  EXPECT_EQ(table.Find("b")->id, 1);
  EXPECT_EQ(table.Find("b")->weight, 3);
  EXPECT_EQ(table.Find("c"), nullptr);
}

TEST(TenantClassTable, EightClassesFitNineDoNot) {
  std::string spec;
  for (int i = 0; i < 8; ++i) {
    if (i > 0) spec += ',';
    spec += 'c';
    spec += std::to_string(i);
    spec += ":w1:slo10";
  }
  EXPECT_EQ(TenantClassTable::Parse(spec).Size(), 8);
  const std::string nine = spec + ",c8:w1:slo10";
  EXPECT_EQ(ParseError(nine),
            "bad --tenants '" + nine + "': more than 8 classes" + kGrammar);
}

TEST(TenantClassTable, GoldenErrorMessages) {
  EXPECT_EQ(ParseError(""),
            std::string("bad --tenants '': empty spec") + kGrammar);
  EXPECT_EQ(ParseError("a:w1:slo10,"),
            std::string("bad --tenants 'a:w1:slo10,': empty class entry") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w1"),
            std::string("bad --tenants 'a:w1': class 'a:w1' has 2 fields, "
                        "want 3 or 4") +
                kGrammar);
  EXPECT_EQ(ParseError("a$:w1:slo10"),
            std::string("bad --tenants 'a$:w1:slo10': bad class name 'a$'") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w1:slo10,a:w2:slo20"),
            std::string("bad --tenants 'a:w1:slo10,a:w2:slo20': duplicate "
                        "class name 'a'") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w0:slo10"),
            std::string("bad --tenants 'a:w0:slo10': class 'a': bad weight "
                        "field 'w0', want wN with integer N >= 1") +
                kGrammar);
  EXPECT_EQ(ParseError("a:8:slo10"),
            std::string("bad --tenants 'a:8:slo10': class 'a': bad weight "
                        "field '8', want wN with integer N >= 1") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w1.5:slo10"),
            std::string("bad --tenants 'a:w1.5:slo10': class 'a': bad weight "
                        "field 'w1.5', want wN with integer N >= 1") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w1:slo0"),
            std::string("bad --tenants 'a:w1:slo0': class 'a': bad slo field "
                        "'slo0', want sloMS with MS > 0") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w1:50"),
            std::string("bad --tenants 'a:w1:50': class 'a': bad slo field "
                        "'50', want sloMS with MS > 0") +
                kGrammar);
  EXPECT_EQ(ParseError("a:w1:slo10:drop"),
            std::string("bad --tenants 'a:w1:slo10:drop': class 'a': bad "
                        "shed policy 'drop', want reject or shed") +
                kGrammar);
}

TEST(TenantClassTable, ShedPolicyNames) {
  EXPECT_STREQ(ShedPolicyName(ShedPolicy::kReject), "reject");
  EXPECT_STREQ(ShedPolicyName(ShedPolicy::kShed), "shed");
}

// ---------------------------------------------------------------------------
// DispatchQueue.

Request Req(RequestId id, SimTime arrival, int length, int cls = 0) {
  Request r;
  r.id = id;
  r.arrival = arrival;
  r.length = length;
  r.tenant_class = cls;
  return r;
}

TEST(TenantDispatchQueue, NoTableIsPlainFifo) {
  DispatchQueue q;  // nullptr table
  EXPECT_TRUE(q.Empty());
  q.PushBack(Req(1, 0, 100));
  q.PushBack(Req(2, 0, 5, /*cls=*/3));  // class tags are ignored
  q.PushBack(Req(3, 0, 1));
  EXPECT_EQ(q.Size(), 3u);
  for (const RequestId want : {1, 2, 3}) {
    EXPECT_EQ(q.Front(/*now=*/Seconds(99.0)).id, static_cast<RequestId>(want));
    q.PopFront();
  }
  EXPECT_TRUE(q.Empty());
}

TEST(TenantDispatchQueue, EmptyTableAlsoMeansFifo) {
  const TenantClassTable empty;
  DispatchQueue q(&empty);
  EXPECT_EQ(q.Table(), nullptr);
  q.PushBack(Req(1, 0, 10, /*cls=*/5));
  q.PushBack(Req(2, 0, 10, /*cls=*/1));
  EXPECT_EQ(q.Front(0).id, 1u);
}

TEST(TenantDispatchQueue, WdrrDispatchSharesFollowWeights) {
  // Two deeply backlogged classes, equal SLOs and lengths: long-run
  // dispatch counts must converge to the 3:1 weight ratio.
  const TenantClassTable table =
      TenantClassTable::Parse("a:w3:slo100,b:w1:slo100");
  DispatchQueue q(&table);
  for (int i = 0; i < 32; ++i) {
    q.PushBack(Req(static_cast<RequestId>(100 + i), i, 128, 0));
    q.PushBack(Req(static_cast<RequestId>(200 + i), i, 128, 1));
  }
  int a = 0;
  int b = 0;
  for (int i = 0; i < 16; ++i) {
    const Request& r = q.Front(/*now=*/0);
    (r.id < 200 ? a : b)++;
    q.PopFront();
  }
  EXPECT_EQ(a, 12);
  EXPECT_EQ(b, 4);
}

TEST(TenantDispatchQueue, OnTimeHeadsGoInLeastSlackOrder) {
  // Both heads afford and can still make their SLO: the tighter deadline
  // wins regardless of class order.
  const TenantClassTable table =
      TenantClassTable::Parse("lax:w1:slo1000,tight:w1:slo10");
  DispatchQueue q(&table);
  q.PushBack(Req(1, 0, 64, 0));
  q.PushBack(Req(2, 0, 64, 1));
  EXPECT_EQ(q.Front(/*now=*/0).id, 2u);  // slack 10ms < 1000ms
  q.PopFront();
  EXPECT_EQ(q.Front(/*now=*/0).id, 1u);
}

TEST(TenantDispatchQueue, LateHeadsYieldToOnTimeHeads) {
  // A head that has already missed its SLO has no meaningful deadline; it
  // must not outrank a head that can still make its own.
  const TenantClassTable table =
      TenantClassTable::Parse("a:w1:slo50,b:w1:slo500");
  DispatchQueue q(&table);
  q.PushBack(Req(1, 0, 64, 0));            // late at now=100ms (slack -50ms)
  q.PushBack(Req(2, Millis(90.0), 64, 1));  // slack +490ms
  EXPECT_EQ(q.Front(Millis(100.0)).id, 2u);
}

TEST(TenantDispatchQueue, AllLateFallsBackToClassPriorityOrder) {
  const TenantClassTable table =
      TenantClassTable::Parse("a:w1:slo50,b:w1:slo500");
  DispatchQueue q(&table);
  q.PushBack(Req(1, 0, 64, 0));  // slack -950ms at now=1s
  q.PushBack(Req(2, 0, 64, 1));  // slack -500ms: "less late", still late
  EXPECT_EQ(q.Front(Seconds(1.0)).id, 1u);  // class 0 first
}

TEST(TenantDispatchQueue, FrontIsPinnedUntilTheQueueChanges) {
  const TenantClassTable table =
      TenantClassTable::Parse("a:w1:slo50,b:w1:slo500");
  DispatchQueue q(&table);
  q.PushBack(Req(1, 0, 64, 0));
  q.PushBack(Req(2, 0, 64, 1));
  EXPECT_EQ(q.Front(0).id, 1u);  // slack 50ms < 500ms
  // Selected once, the choice holds even as `now` moves past id 1's SLO.
  EXPECT_EQ(q.Front(Millis(100.0)).id, 1u);
  // Any mutation re-selects: id 1 is now late, so the on-time b head wins.
  q.PushBack(Req(3, Millis(100.0), 64, 1));
  EXPECT_EQ(q.Front(Millis(100.0)).id, 2u);
}

TEST(TenantDispatchQueue, UnknownClassesClampToClassZero) {
  const TenantClassTable table = TenantClassTable::Parse("a:w1:slo10");
  DispatchQueue q(&table);
  q.PushBack(Req(1, 0, 64, /*cls=*/7));
  EXPECT_EQ(q.ClassDepth(0), 1u);
  EXPECT_EQ(q.ClassDepth(7), 0u);
}

TEST(TenantDispatchQueue, ClassDepthTracksPerClassBacklog) {
  const TenantClassTable table =
      TenantClassTable::Parse("a:w1:slo100,b:w1:slo100");
  DispatchQueue q(&table);
  q.PushBack(Req(1, 0, 64, 0));
  q.PushBack(Req(2, 0, 64, 1));
  q.PushBack(Req(3, 0, 64, 1));
  EXPECT_EQ(q.ClassDepth(0), 1u);
  EXPECT_EQ(q.ClassDepth(1), 2u);
  EXPECT_EQ(q.ClassDepth(-1), 0u);
  EXPECT_EQ(q.ClassDepth(2), 0u);
  EXPECT_EQ(q.Size(), 3u);
}

TEST(TenantDispatchQueue, RemoveIfVisitsClassesInIdOrderThenFifo) {
  const TenantClassTable table =
      TenantClassTable::Parse("a:w1:slo100,b:w1:slo100");
  DispatchQueue q(&table);
  q.PushBack(Req(10, 0, 64, 1));
  q.PushBack(Req(11, 0, 64, 0));
  q.PushBack(Req(12, 1, 64, 1));
  q.PushBack(Req(13, 1, 64, 0));
  std::vector<RequestId> visited;
  q.RemoveIf([&](const Request& r) {
    visited.push_back(r.id);
    return r.id % 2 == 0;  // removes 10 and 12
  });
  EXPECT_EQ(visited, (std::vector<RequestId>{11, 13, 10, 12}));
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.ClassDepth(0), 2u);
  EXPECT_EQ(q.ClassDepth(1), 0u);
}

TEST(TenantDispatchQueue, SingleClassRemoveIfIsTheHistoricalSweep) {
  DispatchQueue q;
  for (RequestId id = 1; id <= 4; ++id) q.PushBack(Req(id, 0, 64));
  std::vector<RequestId> visited;
  q.RemoveIf([&](const Request& r) {
    visited.push_back(r.id);
    return r.id == 2;
  });
  EXPECT_EQ(visited, (std::vector<RequestId>{1, 2, 3, 4}));
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.Front(0).id, 1u);
}

}  // namespace
}  // namespace arlo::tenant
