// The metrics registry: named counters, gauges, and log-linear latency
// histograms behind stable pointers, so instrumented hot paths record with a
// handful of relaxed atomic operations and never touch the registry again
// after the first lookup.
//
// Concurrency model.  The threaded testbed records from its executor thread
// and every submitting thread, the frontend records from its own, so
// counters and histograms shard their cells across cache lines and threads
// pick a shard from a per-thread token (no CAS loops, no false sharing).  The
// deterministic simulator is single-threaded; constructing the registry with
// Concurrency::kSingleThreaded collapses every metric to one shard and skips
// the thread-token load on each record.  Both modes are correct under any
// threading — the mode only tunes cost.
//
// Reads (exporters, snapshots) sum the shards; they are racy-but-atomic
// (each cell is read with memory_order_relaxed), which is the standard
// monitoring contract: a scrape sees some recent value, and after threads
// quiesce it sees exact totals.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace arlo::telemetry {

enum class Concurrency {
  kSingleThreaded,  ///< simulator: 1 shard, no thread-token lookup
  kMultiThreaded,   ///< testbed: cache-line-sharded cells
};

namespace detail {

/// One cache line holding one atomic cell; arrays of these are the shard
/// storage for counters and histogram buckets.
struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

/// Index of the calling thread's shard in [0, num_shards).  num_shards must
/// be a power of two.
unsigned ShardIndex(unsigned num_shards);

}  // namespace detail

/// Monotonic counter.
class Counter {
 public:
  explicit Counter(unsigned num_shards);

  void Add(std::uint64_t n = 1) {
    shards_[num_shards_ == 1 ? 0 : detail::ShardIndex(num_shards_)]
        .value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const;

 private:
  unsigned num_shards_;
  std::unique_ptr<detail::ShardCell[]> shards_;
};

/// Last-write-wins instantaneous value (signed: depths, instance counts).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear histogram over non-negative 64-bit values (nanosecond
/// durations).  Values below 8 get exact unit buckets; every octave
/// [2^k, 2^(k+1)) above that splits into 8 equal linear sub-buckets, i.e.
/// sub-12.5% relative resolution, out to 2^41 ns (~36 simulated minutes);
/// larger values clamp into the final bucket.  This is the HdrHistogram /
/// tcmalloc bucketing compromise: O(1) record, fixed 312-bucket footprint,
/// quantile error bounded by bucket width.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;            ///< 8 sub-buckets per octave
  static constexpr int kUnitBuckets = 8;        ///< exact buckets for 0..7
  static constexpr int kMaxOctave = 40;         ///< top octave [2^40, 2^41)
  static constexpr int kNumBuckets =
      kUnitBuckets + (kMaxOctave - kSubBits + 1) * (1 << kSubBits);

  explicit LatencyHistogram(unsigned num_shards);

  void Record(std::int64_t value);

  /// Bucket index for a value (exposed for boundary tests).
  static int BucketIndex(std::int64_t value);
  /// Inclusive upper edge of a bucket; the quantile estimate returned for
  /// samples landing in it.
  static std::int64_t BucketUpperBound(int index);

  std::uint64_t Count() const;
  std::uint64_t Sum() const;  ///< sum of recorded values (clamped at record)
  /// Merged per-bucket counts, length kNumBuckets.
  std::vector<std::uint64_t> BucketCounts() const;
  /// Upper bound of the bucket containing the q-quantile; 0 when empty.
  std::int64_t Quantile(double q) const;
  double MeanNs() const;

 private:
  unsigned num_shards_;
  /// Layout: shard s owns cells [s * kNumBuckets, (s+1) * kNumBuckets); the
  /// per-bucket cells of one shard are contiguous (not cache-line padded —
  /// different threads write different shard ranges, so lines don't ping).
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::unique_ptr<detail::ShardCell[]> sums_;
};

/// Metric kinds, for exporters.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Named metric registry.  Get-or-create is mutex-guarded and returns
/// pointers that stay valid for the registry's lifetime; the record path
/// never takes the mutex.  Names follow Prometheus conventions
/// ("arlo_requests_completed_total"), optionally with a label suffix
/// ("arlo_queue_depth{level=\"3\"}") that exporters pass through.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(Concurrency mode = Concurrency::kSingleThreaded);

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  LatencyHistogram* GetHistogram(const std::string& name,
                                 const std::string& help = "");

  Concurrency Mode() const { return mode_; }

  struct Entry {
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  /// Visits metrics in lexicographic name order (deterministic exports).
  /// The callback must not re-enter the registry.
  template <typename Fn>  // Fn(const std::string& name, const Entry&)
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : metrics_) fn(name, entry);
  }

 private:
  Entry& GetOrCreate(const std::string& name, MetricKind kind,
                     const std::string& help);

  Concurrency mode_;
  unsigned num_shards_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

}  // namespace arlo::telemetry
