#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace arlo::fault {
namespace {

/// Formats nanoseconds as seconds with no trailing zeros ("2.5", "0.25",
/// "10") so ToString() output is canonical and Parse(ToString()) is exact.
std::string FormatSecondsExact(SimDuration ns) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(9);
  os << (static_cast<double>(ns) / 1e9);
  std::string s = os.str();
  s.erase(s.find_last_not_of('0') + 1);
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// A finite number; NaN and infinities are malformed (NaN would slip past
/// every range check below).
double ParseFinite(const std::string& s) {
  const double v = std::stod(s);
  if (!std::isfinite(v)) throw std::invalid_argument(s);
  return v;
}

/// Seconds string -> nanoseconds, rounded (not truncated) so 9-decimal
/// canonical output round-trips bit-exactly.
SimDuration ParseSecondsExact(const std::string& s) {
  const double ns = ParseFinite(s) * 1e9;
  if (std::fabs(ns) >= 9e18) throw std::out_of_range(s);
  return static_cast<SimDuration>(std::llround(ns));
}

/// stoul alone would wrap "-1" to the largest id.
InstanceId ParseInstance(const std::string& s) {
  if (!s.empty() && s[0] == '-') throw std::invalid_argument(s);
  const unsigned long v = std::stoul(s);
  if (v > std::numeric_limits<InstanceId>::max()) throw std::out_of_range(s);
  return static_cast<InstanceId>(v);
}

std::string FormatProb(double p) {
  std::ostringstream os;
  os.precision(12);
  os << p;
  return os.str();
}

[[noreturn]] void Fail(int line_no, const std::string& line,
                       const std::string& why) {
  throw std::invalid_argument("fault plan line " + std::to_string(line_no) +
                              " (\"" + line + "\"): " + why);
}

/// Splits "key=value key=value ..." tokens into a map; bare tokens error.
std::map<std::string, std::string> KeyValues(
    const std::vector<std::string>& tokens, std::size_t first, int line_no,
    const std::string& line) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      Fail(line_no, line, "expected key=value, got \"" + tokens[i] + "\"");
    }
    kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return kv;
}

std::string Take(std::map<std::string, std::string>& kv,
                 const std::string& key, int line_no,
                 const std::string& line) {
  const auto it = kv.find(key);
  if (it == kv.end()) Fail(line_no, line, "missing " + key + "=");
  std::string value = it->second;
  kv.erase(it);
  return value;
}

void RejectLeftovers(const std::map<std::string, std::string>& kv, int line_no,
                     const std::string& line) {
  if (kv.empty()) return;
  Fail(line_no, line, "unknown key \"" + kv.begin()->first + "\"");
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kHang:
      return "hang";
    case FaultKind::kSlowdown:
      return "slow";
  }
  return "crash";
}

FaultPlan& FaultPlan::CrashAt(SimTime t, InstanceId instance) {
  events.push_back(FaultEvent{FaultKind::kCrash, t, instance, 0, 1.0});
  return *this;
}

FaultPlan& FaultPlan::HangAt(SimTime t, InstanceId instance,
                             SimDuration duration) {
  events.push_back(FaultEvent{FaultKind::kHang, t, instance, duration, 1.0});
  return *this;
}

FaultPlan& FaultPlan::SlowdownAt(SimTime t, InstanceId instance,
                                 SimDuration duration, double factor) {
  events.push_back(
      FaultEvent{FaultKind::kSlowdown, t, instance, duration, factor});
  return *this;
}

std::vector<FaultEvent> FaultPlan::Sorted() const {
  std::vector<FaultEvent> out = events;
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return out;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "seed " << seed << "\n";
  if (dispatch_error_prob > 0.0) {
    os << "drop p=" << FormatProb(dispatch_error_prob) << "\n";
  }
  if (random_crash_mtbf_s > 0.0) {
    os << "mtbf " << FormatProb(random_crash_mtbf_s) << "\n";
  }
  for (const FaultEvent& e : Sorted()) {
    os << FaultKindName(e.kind) << " t=" << FormatSecondsExact(e.at)
       << " instance=" << e.instance;
    if (e.kind == FaultKind::kHang || e.kind == FaultKind::kSlowdown) {
      os << " dur=" << FormatSecondsExact(e.duration);
    }
    if (e.kind == FaultKind::kSlowdown) {
      os << " factor=" << FormatProb(e.factor);
    }
    os << "\n";
  }
  return os.str();
}

FaultPlan FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    std::string body = hash == std::string::npos ? line : line.substr(0, hash);
    std::istringstream ls(body);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (tokens.empty()) continue;
    const std::string& kw = tokens[0];
    try {
      if (kw == "seed") {
        if (tokens.size() != 2) Fail(line_no, line, "usage: seed <n>");
        plan.seed = std::stoull(tokens[1]);
      } else if (kw == "drop") {
        auto kv = KeyValues(tokens, 1, line_no, line);
        plan.dispatch_error_prob = ParseFinite(Take(kv, "p", line_no, line));
        RejectLeftovers(kv, line_no, line);
        if (plan.dispatch_error_prob < 0.0 || plan.dispatch_error_prob > 1.0) {
          Fail(line_no, line, "p must be in [0, 1]");
        }
      } else if (kw == "mtbf") {
        if (tokens.size() != 2) Fail(line_no, line, "usage: mtbf <seconds>");
        plan.random_crash_mtbf_s = ParseFinite(tokens[1]);
        if (plan.random_crash_mtbf_s <= 0.0) {
          Fail(line_no, line, "mtbf must be > 0");
        }
      } else if (kw == "crash" || kw == "hang" || kw == "slow") {
        auto kv = KeyValues(tokens, 1, line_no, line);
        FaultEvent e;
        e.at = ParseSecondsExact(Take(kv, "t", line_no, line));
        e.instance = ParseInstance(Take(kv, "instance", line_no, line));
        if (kw == "crash") {
          e.kind = FaultKind::kCrash;
        } else {
          e.kind = kw == "hang" ? FaultKind::kHang : FaultKind::kSlowdown;
          e.duration = ParseSecondsExact(Take(kv, "dur", line_no, line));
          if (e.duration <= 0) Fail(line_no, line, "dur must be > 0");
        }
        if (kw == "slow") {
          e.factor = ParseFinite(Take(kv, "factor", line_no, line));
          if (e.factor <= 0.0) Fail(line_no, line, "factor must be > 0");
        }
        RejectLeftovers(kv, line_no, line);
        if (e.at < 0) Fail(line_no, line, "t must be >= 0");
        plan.events.push_back(e);
      } else {
        Fail(line_no, line, "unknown directive \"" + kw + "\"");
      }
    } catch (const std::invalid_argument& e) {
      // Fail() already carries the line context; bare stod/stoull failures
      // on garbage numbers get it attached here.
      if (std::string(e.what()).rfind("fault plan line", 0) == 0) throw;
      Fail(line_no, line, "malformed number");
    } catch (const std::out_of_range&) {
      Fail(line_no, line, "numeric value out of range");
    }
  }
  return plan;
}

FaultPlan FaultPlan::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fault plan: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

}  // namespace arlo::fault
