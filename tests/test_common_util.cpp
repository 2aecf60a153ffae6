#include <gtest/gtest.h>

#include <sstream>

#include "common/cli.h"
#include "common/table.h"

namespace arlo {
namespace {

TEST(TablePrinter, AlignsColumnsAndSeparatesHeader) {
  TablePrinter t("demo");
  t.SetHeader({"a", "bbbb"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter t;
  t.SetHeader({"k", "v"});
  t.AddRow({"x", "1"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "k,v\nx,1\n");
}

TEST(TablePrinter, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Int(-5), "-5");
}

TEST(CliFlags, ParsesKeyValueAndBareFlags) {
  const char* argv[] = {"prog", "--gpus=10", "--scale=paper", "--verbose"};
  CliFlags flags(4, argv);
  EXPECT_EQ(flags.GetInt("gpus", 0), 10);
  EXPECT_EQ(flags.GetString("scale", "small"), "paper");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_TRUE(flags.Has("gpus"));
  EXPECT_FALSE(flags.Has("nope"));
}

TEST(CliFlags, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(CliFlags(2, argv), std::invalid_argument);
}

TEST(CliFlags, BoolParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=no"};
  CliFlags flags(5, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
}

TEST(CliFlags, RejectUnknownThrowsOnUnqueriedFlag) {
  const char* argv[] = {"prog", "--rate=10", "--rat=20"};
  CliFlags flags(3, argv);
  (void)flags.GetDouble("rate", 0.0);
  try {
    flags.RejectUnknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // Names the offending flag and lists the valid schema.
    EXPECT_NE(what.find("--rat"), std::string::npos) << what;
    EXPECT_NE(what.find("--rate"), std::string::npos) << what;
  }
}

TEST(CliFlags, RejectUnknownPassesWhenAllFlagsQueried) {
  const char* argv[] = {"prog", "--rate=10", "--gpus=4"};
  CliFlags flags(3, argv);
  (void)flags.GetDouble("rate", 0.0);
  (void)flags.GetInt("gpus", 0);
  EXPECT_NO_THROW(flags.RejectUnknown());
}

TEST(CliFlags, RejectUnknownMessageIsSortedAndStable) {
  // Golden message: both lists are sorted regardless of argv / query order,
  // so tools can test against the exact text.
  const char* argv[] = {"prog", "--zeta=1", "--alpha=2"};
  CliFlags flags(3, argv);
  (void)flags.GetInt("mid", 0);
  (void)flags.GetInt("aardvark", 0);
  try {
    flags.RejectUnknown();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown flag(s): --alpha, --zeta "
                 "(valid flags: --aardvark, --mid)");
  }
}

TEST(CliFlags, RejectUnknownHonorsExtraKnown) {
  const char* argv[] = {"prog", "--pattern=bursty"};
  CliFlags flags(2, argv);
  // "pattern" is only read on some code paths; extra_known covers it.
  EXPECT_THROW(flags.RejectUnknown(), std::invalid_argument);
  EXPECT_NO_THROW(flags.RejectUnknown({"pattern"}));
}

}  // namespace
}  // namespace arlo
