#include "trace/generative.h"

#include <stdexcept>
#include <vector>

namespace arlo::trace {
namespace {

std::shared_ptr<const LengthDistribution> MakeShort() {
  return std::make_shared<LognormalLength>(
      LognormalLength::FromQuantiles(32.0, 96.0, 0.98, 256));
}

std::shared_ptr<const LengthDistribution> MakeLong() {
  return std::make_shared<LognormalLength>(
      LognormalLength::FromQuantiles(128.0, 384.0, 0.98, 1024));
}

std::shared_ptr<const LengthDistribution> MakeMixed() {
  std::vector<MixtureLength::Component> parts;
  parts.push_back({0.65, MakeShort()});
  parts.push_back({0.35, MakeLong()});
  return std::make_shared<MixtureLength>(std::move(parts));
}

[[noreturn]] void Bad(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("bad --decode-len-dist '" + spec + "': " + why +
                              " (expected " + DecodeLengthDistNames() + ")");
}

/// Splits "name:a:b" into fields; validates the argument count.
std::vector<std::string> SplitFields(const std::string& spec) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  while (true) {
    const std::size_t colon = spec.find(':', begin);
    if (colon == std::string::npos) {
      fields.push_back(spec.substr(begin));
      return fields;
    }
    fields.push_back(spec.substr(begin, colon - begin));
    begin = colon + 1;
  }
}

/// Caps every argument: const and uniform allocate one probability slot per
/// token length, so an unchecked N would allocate 16 bytes per token.
constexpr int kMaxDecodeTokens = 65536;

int ParsePositiveInt(const std::string& spec, const std::string& field) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(field, &used);
    if (used != field.size() || v < 1) Bad(spec, "'" + field + "' is not a positive integer");
    if (v > kMaxDecodeTokens) {
      Bad(spec, "'" + field + "' exceeds " + std::to_string(kMaxDecodeTokens) +
                    " tokens");
    }
    return v;
  } catch (const std::invalid_argument&) {
    Bad(spec, "'" + field + "' is not a positive integer");
  } catch (const std::out_of_range&) {
    Bad(spec, "'" + field + "' is out of range");
  }
}

}  // namespace

std::string DecodeLengthDistNames() {
  return "short, long, mixed, const:N, uniform:LO:HI, lognormal:MED:P98:MAX";
}

std::shared_ptr<const LengthDistribution> ParseDecodeLengthDist(
    const std::string& spec) {
  if (spec == "short") return MakeShort();
  if (spec == "long") return MakeLong();
  if (spec == "mixed") return MakeMixed();
  const std::vector<std::string> fields = SplitFields(spec);
  if (fields[0] == "const") {
    if (fields.size() != 2) Bad(spec, "const takes exactly one argument");
    const int n = ParsePositiveInt(spec, fields[1]);
    std::vector<double> pmf(static_cast<std::size_t>(n), 0.0);
    pmf.back() = 1.0;
    return std::make_shared<EmpiricalLength>(std::move(pmf));
  }
  if (fields[0] == "uniform") {
    if (fields.size() != 3) Bad(spec, "uniform takes exactly two arguments");
    const int lo = ParsePositiveInt(spec, fields[1]);
    const int hi = ParsePositiveInt(spec, fields[2]);
    if (lo > hi) Bad(spec, "uniform bounds are inverted");
    std::vector<double> pmf(static_cast<std::size_t>(hi), 0.0);
    for (int v = lo; v <= hi; ++v) pmf[static_cast<std::size_t>(v - 1)] = 1.0;
    return std::make_shared<EmpiricalLength>(std::move(pmf));
  }
  if (fields[0] == "lognormal") {
    if (fields.size() != 4) Bad(spec, "lognormal takes exactly three arguments");
    const int median = ParsePositiveInt(spec, fields[1]);
    const int p98 = ParsePositiveInt(spec, fields[2]);
    const int max = ParsePositiveInt(spec, fields[3]);
    if (median >= p98) Bad(spec, "median must be below the p98 quantile");
    if (p98 > max) Bad(spec, "p98 must not exceed the maximum");
    return std::make_shared<LognormalLength>(LognormalLength::FromQuantiles(
        static_cast<double>(median), static_cast<double>(p98), 0.98, max));
  }
  Bad(spec, "unknown distribution '" + fields[0] + "'");
}

}  // namespace arlo::trace
