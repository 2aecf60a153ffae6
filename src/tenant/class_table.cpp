#include "tenant/class_table.h"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace arlo::tenant {
namespace {

/// Bounds an SLO so its nanosecond count, printed to six decimals of a
/// millisecond, parses back to the same count.
constexpr double kMaxSloMs = 1e9;

[[noreturn]] void Fail(const std::string& spec, const std::string& why) {
  throw std::invalid_argument(
      "bad --tenants '" + spec + "': " + why +
      " (expected name:wN:sloMS[:reject|:shed], comma-separated, at most " +
      std::to_string(kMaxTenantClasses) + " classes)");
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

/// Parses the numeric tail of a `w8` / `slo50` field; returns false on any
/// non-numeric or empty tail.
bool ParseTail(const std::string& field, std::size_t prefix, double& out) {
  if (field.size() <= prefix) return false;
  const std::string tail = field.substr(prefix);
  std::size_t used = 0;
  try {
    out = std::stod(tail, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == tail.size();
}

}  // namespace

const char* ShedPolicyName(ShedPolicy policy) {
  return policy == ShedPolicy::kShed ? "shed" : "reject";
}

TenantClassTable TenantClassTable::Parse(const std::string& spec) {
  if (spec.empty()) Fail(spec, "empty spec");
  TenantClassTable table;
  for (const std::string& part : Split(spec, ',')) {
    if (part.empty()) Fail(spec, "empty class entry");
    const std::vector<std::string> fields = Split(part, ':');
    if (fields.size() < 3 || fields.size() > 4) {
      Fail(spec, "class '" + part + "' has " + std::to_string(fields.size()) +
                     " fields, want 3 or 4");
    }
    TenantClass cls;
    cls.id = table.Size();
    cls.name = fields[0];
    if (!ValidName(cls.name)) {
      Fail(spec, "bad class name '" + fields[0] + "'");
    }
    if (table.Find(cls.name) != nullptr) {
      Fail(spec, "duplicate class name '" + cls.name + "'");
    }
    double weight = 0.0;
    if (fields[1].empty() || fields[1][0] != 'w' ||
        !ParseTail(fields[1], 1, weight) || !(weight >= 1.0) ||
        weight > std::numeric_limits<int>::max() ||
        weight != std::floor(weight)) {
      Fail(spec, "class '" + cls.name + "': bad weight field '" + fields[1] +
                     "', want wN with integer N >= 1");
    }
    cls.weight = static_cast<int>(weight);
    double slo_ms = 0.0;
    // Rounded to whole nanoseconds: an SLO that rounds to 0 ns is 0.
    if (fields[2].rfind("slo", 0) != 0 ||
        !ParseTail(fields[2], 3, slo_ms) || !(slo_ms * 1e6 >= 0.5)) {
      Fail(spec, "class '" + cls.name + "': bad slo field '" + fields[2] +
                     "', want sloMS with MS > 0");
    }
    if (slo_ms > kMaxSloMs) {
      Fail(spec, "class '" + cls.name + "': slo field '" + fields[2] +
                     "' exceeds 1e9 ms");
    }
    cls.slo = std::llround(slo_ms * 1e6);
    if (fields.size() == 4) {
      if (fields[3] == "reject") {
        cls.shed = ShedPolicy::kReject;
      } else if (fields[3] == "shed") {
        cls.shed = ShedPolicy::kShed;
      } else {
        Fail(spec, "class '" + cls.name + "': bad shed policy '" + fields[3] +
                       "', want reject or shed");
      }
    }
    if (table.Size() == kMaxTenantClasses) {
      Fail(spec, "more than " + std::to_string(kMaxTenantClasses) +
                     " classes");
    }
    table.total_weight_ += cls.weight;
    table.classes_.push_back(std::move(cls));
  }
  return table;
}

const TenantClass* TenantClassTable::Find(const std::string& name) const {
  for (const TenantClass& cls : classes_) {
    if (cls.name == name) return &cls;
  }
  return nullptr;
}

std::string TenantClassTable::ToString() const {
  std::ostringstream os;
  for (const TenantClass& cls : classes_) {
    if (cls.id > 0) os << ',';
    // The exact millisecond count: integer part, then the nanoseconds as
    // up to six decimals without trailing zeros.
    os << cls.name << ":w" << cls.weight << ":slo" << cls.slo / 1'000'000;
    if (const SimDuration frac = cls.slo % 1'000'000; frac != 0) {
      std::string digits = std::to_string(1'000'000 + frac).substr(1);
      digits.erase(digits.find_last_not_of('0') + 1);
      os << '.' << digits;
    }
    if (cls.shed != ShedPolicy::kReject) os << ':' << ShedPolicyName(cls.shed);
  }
  return os.str();
}

}  // namespace arlo::tenant
