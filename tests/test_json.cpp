#include "common/json.h"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

namespace arlo::json {
namespace {

// ------------------------------------------------------------------ Writer

TEST(JsonWriter, CommasAndNesting) {
  std::ostringstream os;
  Writer w(os);
  w.BeginObject()
      .Field("a", 1)
      .Field("b", "x")
      .Field("c", true)
      .Key("d")
      .NumberArray(std::vector<int>{1, 2, 3})
      .Key("e")
      .BeginArray()
      .BeginObject()
      .EndObject()
      .Null()
      .EndArray()
      .Key("f")
      .BeginArray()
      .EndArray()
      .EndObject();
  EXPECT_EQ(os.str(),
            "{\"a\":1,\"b\":\"x\",\"c\":true,\"d\":[1,2,3],\"e\":[{},null],"
            "\"f\":[]}");
}

TEST(JsonWriter, NumbersKeepTheStreamsFormatting) {
  std::ostringstream os;
  Writer w(os);
  w.BeginArray().Number(2.5).Number(6.0996e-05).Number(1e6).Number(
      std::int64_t{-7});
  os << std::fixed << std::setprecision(2);
  w.Number(0.5).EndArray();
  EXPECT_EQ(os.str(), "[2.5,6.0996e-05,1e+06,-7,0.50]");
}

TEST(JsonWriter, EscapesEveryControlByteOnce) {
  std::ostringstream os;
  Writer w(os);
  w.BeginObject().Field("k\"ey", std::string("q\"b\\n\nt\tr\r\x01\x1f\x7f"));
  w.EndObject();
  EXPECT_EQ(os.str(),
            "{\"k\\\"ey\":\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f\x7f\"}");
}

TEST(JsonWriter, LinesLayoutPutsMembersAndTheCloseOnOwnLines) {
  std::ostringstream os;
  Writer w(os);
  w.BeginObject().Key("events").BeginArray(Writer::Layout::kLines);
  w.BeginObject().Field("a", 1).EndObject();
  w.BeginObject().Field("a", 2).EndObject();
  w.EndArray().Field("unit", "ms").Key("empty");
  w.BeginObject(Writer::Layout::kLines).EndObject().EndObject();
  EXPECT_EQ(os.str(),
            "{\"events\":[\n{\"a\":1},\n{\"a\":2}\n],\"unit\":\"ms\","
            "\"empty\":{\n}}");
}

TEST(JsonWriter, RawSplicesAValueInPlace) {
  std::ostringstream os;
  Writer w(os);
  w.BeginObject().Key("scheme").Raw("{\"name\":\"arlo\"}").Key("n").Raw(
      "12.345");
  w.EndObject();
  EXPECT_EQ(os.str(), "{\"scheme\":{\"name\":\"arlo\"},\"n\":12.345}");
  EXPECT_EQ(OneMemberObject("error", "no node"), "{\"error\":\"no node\"}");
}

// ------------------------------------------------------------------ Reader

TEST(JsonReader, ParsesEveryTypeAndReadsTyped) {
  Value v;
  ASSERT_TRUE(Parse(
      " {\"i\":-12,\"d\":2.5e-3,\"s\":\"a\\u00e9\\ud83d\\ude00\\/\","
      "\"b\":false,\"n\":null,\"a\":[1,[2]],\"o\":{}}\r\n",
      v));
  ASSERT_EQ(v.type(), Value::Type::kObject);
  EXPECT_EQ(v.Items().size(), 7u);
  int i = 0;
  EXPECT_TRUE(v.Find("i")->Get(i));
  EXPECT_EQ(i, -12);
  double d = 0;
  EXPECT_TRUE(v.Find("d")->Get(d));
  EXPECT_DOUBLE_EQ(d, 2.5e-3);
  EXPECT_FALSE(v.Find("d")->Get(i)) << "a fraction is not an integer";
  std::string s;
  EXPECT_TRUE(v.Find("s")->Get(s));
  EXPECT_EQ(s, "a\xc3\xa9\xf0\x9f\x98\x80/");
  bool b = true;
  EXPECT_TRUE(v.Find("b")->Get(b));
  EXPECT_FALSE(b);
  EXPECT_EQ(v.Find("n")->type(), Value::Type::kNull);
  EXPECT_FALSE(v.Find("n")->Get(d));
  EXPECT_EQ(v.Find("a")->Items().size(), 2u);
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_EQ(v.Find("a")->Find("x"), nullptr) << "arrays have no members";
}

TEST(JsonReader, IntegerReadsCheckTheTargetRange) {
  Value v;
  ASSERT_TRUE(Parse("[300,-1,9223372036854775807,9223372036854775808]", v));
  std::uint8_t small = 0;
  EXPECT_FALSE(v.Items()[0].Get(small));
  unsigned u = 0;
  EXPECT_FALSE(v.Items()[1].Get(u));
  std::int64_t big = 0;
  EXPECT_TRUE(v.Items()[2].Get(big));
  EXPECT_FALSE(v.Items()[3].Get(big)) << "past int64";
  double d = 0;
  EXPECT_TRUE(v.Items()[3].Get(d)) << "still a finite number";
}

// The cases the old first-occurrence substring scanner got wrong or let
// through: a key is found only where it is, not at any depth.
TEST(JsonReader, FindLooksOnlyAtTheObjectsOwnMembers) {
  Value v;
  ASSERT_TRUE(Parse("{\"a\":1,\"nested\":{\"b\":-2.5}}", v));
  EXPECT_EQ(v.Find("b"), nullptr);
  double b = 0;
  ASSERT_TRUE(v.Find("nested")->Find("b")->Get(b));
  EXPECT_DOUBLE_EQ(b, -2.5);
  ASSERT_TRUE(Parse("{\"b\":\"str\"}", v));
  EXPECT_FALSE(v.Find("b")->Get(b));
}

TEST(JsonReader, RejectsWhatRfc8259Rejects) {
  Value v;
  for (const char* bad :
       {"", " ", "{", "}", "[1,]", "{\"a\":1,}", "{a:1}", "{\"a\" 1}",
        "[01]", "[1.]", "[.5]", "[+1]", "[1e]", "[-]", "[0x10]", "[NaN]",
        "[Infinity]", "[tru]", "[nul]", "\"unterminated", "\"tab\there\"",
        "\"bad \\x escape\"", "\"\\u12\"", "\"\\ud800\"", "\"\\udc00\"",
        "\"\\ud800\\u0041\"", "[1] [2]", "{} x", "nullx", "[\"a\"\"b\"]"}) {
    EXPECT_FALSE(Parse(bad, v)) << bad;
  }
}

TEST(JsonReader, RejectsDuplicateKeysNonFiniteNumbersAndDeepNesting) {
  Value v;
  EXPECT_FALSE(Parse("{\"a\":1,\"b\":2,\"a\":3}", v));
  EXPECT_TRUE(Parse("{\"a\":{\"a\":1}}", v)) << "same key, different objects";
  EXPECT_FALSE(Parse("[1e999]", v));
  EXPECT_FALSE(Parse("[-1e400]", v));
  EXPECT_FALSE(Parse("[1e-400]", v)) << "no double holds it";
  EXPECT_TRUE(Parse("[4.94066e-324,0e-400]", v)) << "subnormal, exact zero";

  const std::string at_limit =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_TRUE(Parse(at_limit, v));
  const std::string past_limit = "[" + at_limit + "]";
  EXPECT_FALSE(Parse(past_limit, v));
  // Far past the limit: rejected without recursing that deep.
  EXPECT_FALSE(Parse(std::string(100000, '['), v));
}

TEST(JsonReader, SourceIsTheValuesExactText) {
  Value v;
  ASSERT_TRUE(Parse(" {\"scheme\": {\"name\":\"arlo\", \"x\":6.0996e-05} ,"
                    "\"n\":-0}\n",
                    v));
  EXPECT_EQ(v.Find("scheme")->Source(),
            "{\"name\":\"arlo\", \"x\":6.0996e-05}");
  EXPECT_EQ(v.Find("n")->Source(), "-0");
  EXPECT_EQ(v.Source(), std::string_view("{\"scheme\": {\"name\":\"arlo\", "
                                         "\"x\":6.0996e-05} ,\"n\":-0}"));
}

}  // namespace
}  // namespace arlo::json
