// Observability: the process-wide metrics registry.
//
// The controller is "logically centralized" (§5) and must react to
// frequent security-context changes across thousands of µmboxes; nobody
// can operate, debug, or scale that without knowing where packets,
// policy transitions, and recoveries spend their time. This registry is
// the substrate: named counters, gauges, and log-linear latency
// histograms that every layer (net, sdn, dataplane, sig, control)
// publishes into, with mergeable snapshots and JSON / Prometheus-text
// export for operators.
//
// Hot-path contract:
//   * Counter::Inc and Histogram::Record are lock-free: one relaxed
//     fetch_add into a per-thread shard (threads hash onto kShards
//     cacheline-padded slots, so concurrent writers never contend on a
//     line). No locks are ever taken after a metric is registered.
//   * Gauge::Set is a single relaxed store.
//   * Registration (GetCounter/GetGauge/GetHistogram) takes a mutex and
//     may allocate; do it once at setup and keep the pointer — handles
//     are stable for the registry's lifetime.
//   * Snapshots sum the shards with relaxed loads; concurrent writers
//     keep writing, the snapshot is a consistent-enough merge (each
//     individual metric is exact up to in-flight increments).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace iotsec::obs {

/// Writer threads hash onto this many padded shards. Power of two.
inline constexpr std::size_t kShards = 8;

/// Stable per-thread shard slot (assigned on first use, round-robin so
/// up to kShards concurrent threads get private slots).
inline std::size_t ShardIndex() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

/// Monotonic counter, sharded per thread.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Last-write-wins instantaneous value (queue depth, pool occupancy).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear histogram bucket layout (HdrHistogram-style): values
/// 0..15 get unit-width buckets, then every power-of-two octave is split
/// into 16 linear sub-buckets, so relative bucket error is bounded by
/// 1/16 ≈ 6% at any magnitude. Sized for nanosecond latencies up to
/// ~2^44 ns (~4.9 hours); larger values clamp into the last bucket.
struct HistogramLayout {
  static constexpr int kSubBucketBits = 4;
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBucketBits;  // 16
  static constexpr int kMaxExponent = 44;
  static constexpr std::size_t kBucketCount =
      kSubBuckets +
      static_cast<std::size_t>(kMaxExponent - kSubBucketBits + 1) *
          kSubBuckets;

  /// Bucket index for a value (see layout above).
  static constexpr std::size_t IndexOf(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);  // v >= 16, so msb >= 4
    const int octave = msb < kMaxExponent ? msb : kMaxExponent;
    if (msb > kMaxExponent) return kBucketCount - 1;
    const std::uint64_t sub =
        (v >> (octave - kSubBucketBits)) & (kSubBuckets - 1);
    return kSubBuckets +
           static_cast<std::size_t>(octave - kSubBucketBits) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  /// Smallest value that lands in bucket `i` (inverse of IndexOf).
  static constexpr std::uint64_t LowerBound(std::size_t i) {
    if (i < kSubBuckets) return i;
    const std::size_t k = i - kSubBuckets;
    const int octave = static_cast<int>(k / kSubBuckets) + kSubBucketBits;
    const std::uint64_t sub = k % kSubBuckets;
    return (std::uint64_t{1} << octave) +
           (sub << (octave - kSubBucketBits));
  }

  /// One past the largest value in bucket `i`.
  static constexpr std::uint64_t UpperBound(std::size_t i) {
    return i + 1 >= kBucketCount ? ~std::uint64_t{0} : LowerBound(i + 1);
  }
};

/// Merged, immutable view of one histogram (see Histogram::Snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // HistogramLayout::kBucketCount

  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Nearest-rank percentile, resolved to the bucket upper bound (the
  /// conservative direction for latency reporting). p in [0,100].
  [[nodiscard]] std::uint64_t Percentile(double p) const;
};

/// Log-linear latency histogram, sharded per thread. Record() is two
/// relaxed fetch_adds (bucket + sum) plus min/max CAS-free updates.
class Histogram {
 public:
  using Layout = HistogramLayout;

  void Record(std::uint64_t v) {
    Shard& s = shards_[ShardIndex()];
    s.buckets[Layout::IndexOf(v)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    // Racy-but-monotone min/max: losing an update to a concurrent writer
    // in the same shard only ever leaves a less extreme bound, and each
    // thread owns its slot in the common case.
    if (v < s.min.load(std::memory_order_relaxed)) {
      s.min.store(v, std::memory_order_relaxed);
    }
    if (v > s.max.load(std::memory_order_relaxed)) {
      s.max.store(v, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>, Layout::kBucketCount> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    // Pad to keep the next shard's hot head off this shard's tail line.
    char pad[64] = {};
  };
  std::array<Shard, kShards> shards_{};
};

/// Point-in-time merged view of every registered metric.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Name -> metric registry. Handles are stable pointers owned by the
/// registry; re-registering a name returns the existing metric.
/// Naming convention: "<layer>.<what>[.<unit>]", e.g. "sig.scan_ns",
/// "sdn.microflow_hits", "net.pool_free".
class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem publishes into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  [[nodiscard]] RegistrySnapshot Snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count,sum,min,max,mean,p50,p90,p99}}} — bucket arrays are elided
  /// from the JSON export; use Snapshot() for raw buckets.
  [[nodiscard]] std::string ToJson() const;

  /// Prometheus text exposition format. Every byte of a metric name
  /// outside [a-zA-Z0-9_:] becomes an underscore, and a leading digit
  /// gets one prepended; histograms export _count/_sum plus quantile gauges
  /// (pre-aggregated, not cumulative le-buckets — this is a snapshot
  /// exporter, not a scrape target with staleness semantics).
  [[nodiscard]] std::string ToPrometheusText() const;

  /// Zeroes every registered metric (tests / bench epochs). Handles stay
  /// valid.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Master kill switch for the telemetry the subsystem itself adds
/// (instrumented call sites check this before touching the registry or
/// the flight recorder). Default on: the idle cost is a relaxed atomic
/// increment per event, priced by bench_obs. Benches A/B it.
void SetEnabled(bool enabled);
[[nodiscard]] bool Enabled();

namespace detail {
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

inline bool Enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

}  // namespace iotsec::obs
