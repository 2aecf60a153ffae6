// Seeded mutation loops over the command-line grammars (no libFuzzer; the
// NetProtocolFuzz / StatuszFuzz pattern): a fault plan (--fault-plan), a
// tenant class table (--tenants), a decode-length distribution
// (--decode-len-dist) and a trace sample rate (--trace-sample).  Every
// mutated input either parses or throws std::invalid_argument — no other
// exception, no crash — and a grammar with a canonical form re-emits every
// text it accepted as one that parses back to the same form.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "tenant/class_table.h"
#include "trace/generative.h"

namespace arlo {
namespace {

/// 1-3 random edits of `text`: flip a byte, insert a grammar token, erase a
/// run, rewrite a digit, or truncate.
std::string Mutate(std::string text, const std::vector<std::string>& tokens,
                   Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.NextU64() % 3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.NextU64() % (text.size() + 1);
    switch (rng.NextU64() % 5) {
      case 0:
        if (pos < text.size()) {
          text[pos] ^= static_cast<char>(1 + rng.NextU64() % 255);
        }
        break;
      case 1:
        text.insert(pos, tokens[rng.NextU64() % tokens.size()]);
        break;
      case 2:
        text.erase(pos, 1 + rng.NextU64() % 6);
        break;
      case 3:
        if (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
          text[pos] = static_cast<char>('0' + rng.NextU64() % 10);
        }
        break;
      case 4:
        text.resize(pos);
        break;
    }
  }
  return text;
}

/// Runs `parse` on `trials` mutations of the seeds.  `parse` returns
/// normally on accept; std::invalid_argument is the only allowed reject.
/// Returns how many mutations were accepted.
template <typename Parse>
int FuzzGrammar(const std::vector<std::string>& seeds,
                const std::vector<std::string>& tokens, std::uint64_t seed,
                int trials, Parse parse) {
  Rng rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string text =
        Mutate(seeds[rng.NextU64() % seeds.size()], tokens, rng);
    try {
      parse(text);
      ++accepted;
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "' threw " << e.what();
    }
  }
  return accepted;
}

TEST(CliGrammarFuzz, FaultPlanParsesOrRejectsAndRoundTripsStably) {
  const std::vector<std::string> seeds = {
      "seed 9\ndrop p=0.02\nmtbf 3\ncrash t=2 instance=1\n"
      "hang t=2.5 instance=3 dur=0.6\n"
      "slow t=3 instance=4 dur=1 factor=3\n",
      "# comment\ncrash t=0.25 instance=0  # trailing\n\nseed 1\n"};
  const std::vector<std::string> tokens = {
      " ", "\n", "#", "=", "t=", "dur=", "p=", "factor=", "instance=", "seed",
      "crash", "hang", "slow", "drop", "mtbf", "-", ".", "e9", "1e400",
      "nan", "inf", "0x1p3", "99999999999999999999"};
  const int accepted = FuzzGrammar(
      seeds, tokens, 2028, 3000, [](const std::string& text) {
        const std::string canonical = fault::FaultPlan::Parse(text).ToString();
        // ToString is canonical: what it prints parses back to itself.
        EXPECT_EQ(fault::FaultPlan::Parse(canonical).ToString(), canonical)
            << "from '" << text << "'";
      });
  EXPECT_GT(accepted, 100);
}

TEST(CliGrammarFuzz, TenantTableParsesOrRejectsAndRoundTripsStably) {
  const std::vector<std::string> seeds = {
      "interactive:w8:slo50,batch:w2:slo500,best:w1:slo2000:shed",
      "a:w1:slo0.5:reject"};
  const std::vector<std::string> tokens = {
      ",", ":", "w", "slo", "shed", "reject", "_", "-", ".", "e3", "1e400",
      "nan", "inf", "0x10", "2147483648", "x:w1:slo1"};
  const int accepted = FuzzGrammar(
      seeds, tokens, 2029, 3000, [](const std::string& text) {
        const std::string canonical =
            tenant::TenantClassTable::Parse(text).ToString();
        EXPECT_EQ(tenant::TenantClassTable::Parse(canonical).ToString(),
                  canonical)
            << "from '" << text << "'";
      });
  EXPECT_GT(accepted, 100);
}

TEST(CliGrammarFuzz, DecodeLengthDistParsesOrRejects) {
  const std::vector<std::string> seeds = {
      "short", "long", "mixed", "const:64", "uniform:4:96",
      "lognormal:32:96:256"};
  const std::vector<std::string> tokens = {
      ":", "const", "uniform", "lognormal", "-", "+", " ", "0", "9", "e2",
      "2147483647", "99999999999"};
  const int accepted = FuzzGrammar(
      seeds, tokens, 2030, 3000, [](const std::string& text) {
        const auto dist = trace::ParseDecodeLengthDist(text);
        ASSERT_NE(dist, nullptr) << text;
        EXPECT_GE(dist->MaxLength(), 1) << text;
      });
  EXPECT_GT(accepted, 100);
}

TEST(CliGrammarFuzz, TraceSampleParsesOrRejects) {
  const std::vector<std::string> seeds = {"off", "0", "1", "1/64", "64",
                                          "4294967295"};
  const std::vector<std::string> tokens = {"/", "1/", "-", "+", " ", "0x",
                                           "9", "4294967296", "off"};
  const int accepted = FuzzGrammar(
      seeds, tokens, 2031, 3000,
      [](const std::string& text) { (void)ParseTraceSample(text); });
  EXPECT_GT(accepted, 100);
}

}  // namespace
}  // namespace arlo
