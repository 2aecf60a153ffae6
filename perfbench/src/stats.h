// The benchmark's arithmetic: one percentile definition, request accounting,
// and goodput.  Header-only so the unit tests exercise exactly what the
// workloads use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `q` of all samples are <= it (rank ceil(q * n), 1-based; q = 0
/// gives the minimum).  0 for an empty sample.
inline double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // The epsilon keeps e.g. 0.99 * 100 = 99.00000000000001 at rank 99.
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n - 1e-9);
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Median, over `chunks` consecutive equal slices of `samples` (in time
/// order), of each slice's nearest-rank q-percentile.  A stall episode lands
/// in one slice, so it cannot move the estimate the way it moves a
/// whole-run percentile.  Each slice should keep >= 10 samples beyond q.
inline double ChunkedPercentile(const std::vector<double>& samples, double q,
                                int chunks) {
  if (samples.empty() || chunks < 1) return 0.0;
  const std::size_t n = samples.size();
  const auto k = static_cast<std::size_t>(chunks);
  if (n < k) return NearestRank(samples, q);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < k; ++c) {
    per_chunk.push_back(NearestRank(
        std::vector<double>(samples.begin() + c * n / k,
                            samples.begin() + (c + 1) * n / k),
        q));
  }
  return NearestRank(per_chunk, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// What became of every request a phase sent.  A request ends in exactly one
/// of: an OK reply, a refusal (any reject/shed status), a failure (error
/// status or a broken connection), or no reply at all.
struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;

  std::uint64_t Misses() const { return refused + failed + unanswered; }
  bool Balanced() const { return ok + refused + failed + unanswered == sent; }
  double FailFrac() const {
    if (sent == 0) return 0.0;
    return static_cast<double>(Misses()) / static_cast<double>(sent);
  }
  Outcome& operator+=(const Outcome& other) {
    sent += other.sent;
    ok += other.ok;
    refused += other.refused;
    failed += other.failed;
    unanswered += other.unanswered;
    return *this;
  }
};

/// SLO goodput: OK replies whose latency is within `limit`, per second of
/// the phase.  `ok_latencies` holds only OK replies, so refused, failed and
/// unanswered requests count as misses by construction.
inline double Goodput(const std::vector<double>& ok_latencies, double limit,
                      double phase_seconds) {
  if (phase_seconds <= 0.0) return 0.0;
  std::uint64_t within = 0;
  for (double latency : ok_latencies) {
    if (latency <= limit) ++within;
  }
  return static_cast<double>(within) / phase_seconds;
}

/// Completions per second of a closed-loop phase: [skip_ns, phase_ns) (the
/// first `skip_ns` are the ramp-up) is cut into `slices` equal time slices,
/// and the result is the median of their rates, so a stall confined to one
/// slice does not move it.  `completion_ns` are offsets from the phase
/// start.
inline double SteadyRate(const std::vector<std::int64_t>& completion_ns,
                         std::int64_t phase_ns, std::int64_t skip_ns,
                         int slices) {
  if (phase_ns <= skip_ns || skip_ns < 0 || slices < 1) return 0.0;
  const double slice_ns =
      static_cast<double>(phase_ns - skip_ns) / static_cast<double>(slices);
  std::vector<double> counts(static_cast<std::size_t>(slices), 0.0);
  for (std::int64_t t : completion_ns) {
    if (t < skip_ns || t >= phase_ns) continue;
    const auto slice = static_cast<std::size_t>(
        static_cast<double>(t - skip_ns) / slice_ns);
    counts[std::min(slice, counts.size() - 1)] += 1.0;
  }
  return NearestRank(counts, 0.5) * 1e9 / slice_ns;
}

}  // namespace perfbench
