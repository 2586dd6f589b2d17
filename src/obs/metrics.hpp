// MetricsRegistry: named counters, gauges, and histograms for the
// library's own execution statistics (docs/OBSERVABILITY.md).
//
// One typed registry replaces ad-hoc per-subsystem counter structs: an
// instrument is addressed by a stable dotted name
// ("algebra.kernel.chunks", "io.xml.bytes_read", "pool.queue_wait") plus
// a unit, resolved once, and then updated with relaxed atomics — safe to
// hit from operator chunks and pool workers concurrently.
//
// Two usage patterns coexist:
//  * the process-wide global() registry, fed by the always-on
//    instrumentation (io byte counts, pool queue latency) and consumed by
//    the self-profile exporter;
//  * short-lived local registries for per-run isolation — the query
//    engine records one run's kernel counters into a local registry,
//    hands its snapshot() out with the QueryResult, and absorb()s it into
//    the global one.
//
// This layer sits below cube_common (the thread pool is instrumented), so
// it depends on the standard library only.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cube::obs {

/// Unit of a registered instrument.  Mirrors the data model's three units
/// (model/metric.hpp) without depending on it — obs sits below the model.
enum class SampleUnit { Seconds, Bytes, Count };

/// Canonical lower-case spelling ("sec", "bytes", "occ"), matching
/// cube::unit_name so exported metrics carry the data model's unit names.
[[nodiscard]] std::string_view sample_unit_name(SampleUnit u) noexcept;

enum class InstrumentKind { Counter, Gauge, Histogram };

/// Monotonic event/quantity count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (thread counts, repository sizes), or — once
/// record_max() has been called — a sticky high-watermark (peak inflight,
/// peak RSS).  The mode travels with the gauge: absorb() folds a
/// watermark gauge with max instead of overwriting the level.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Raises the level to `v` if higher and marks this gauge as a
  /// high-watermark (the mark is permanent; reset() zeroes the level but
  /// keeps the mode).
  void record_max(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool high_watermark() const noexcept {
    return watermark_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> watermark_{false};
};

/// Distribution of observed values: count, sum, min, max, and fixed
/// log-spaced buckets — four sub-buckets per power of two (edges at
/// 2^(k/4)) spanning [2^-30, 2^2), i.e. ~1 ns to 4 s for durations in
/// seconds, clamped at both ends.  The edges are compile-time constants,
/// so every process buckets identically and quantile() is deterministic
/// for a given set of observations.
class Histogram {
 public:
  static constexpr std::size_t kBucketsPerOctave = 4;
  static constexpr std::size_t kOctaves = 32;
  static constexpr std::size_t kBuckets = kBucketsPerOctave * kOctaves;
  /// frexp exponent of the smallest in-range value (2^-30 = 0.5 * 2^-29).
  static constexpr int kMinExp = -29;

  /// Lower edge of bucket `i` (0 for bucket 0, which also absorbs
  /// everything below the range).  bucket_lower_bound(kBuckets) is the
  /// upper edge of the last bucket's nominal range; the last bucket also
  /// absorbs everything above it.
  [[nodiscard]] static double bucket_lower_bound(std::size_t i) noexcept;

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const noexcept;  ///< 0 when empty
  [[nodiscard]] double max() const noexcept;  ///< 0 when empty
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Quantile estimate from the bucket counts: linear interpolation
  /// within the covering bucket, clamped to [min(), max()].  q in [0, 1];
  /// 0 when empty.  Exact bucket-resolution on a quiescent histogram; a
  /// racing observe() can skew a concurrent estimate by at most its own
  /// observation.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// The accumulating fields (everything except min/max), copyable as a
  /// plain struct so callers can difference two snapshots of the same
  /// histogram into a window (obs/window.hpp).
  struct Cells {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint64_t buckets[kBuckets] = {};
  };
  [[nodiscard]] Cells cells() const noexcept;
  /// Adds `c` into this histogram.  min/max are seeded from the occupied
  /// bucket edges when this histogram was empty (the true extremes of a
  /// differenced window are not recoverable from cumulative snapshots).
  void add_cells(const Cells& c) noexcept;

  void merge(const Histogram& other) noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  ///< valid only when count_ > 0
  std::atomic<double> max_{0.0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// One instrument's state, copied out by snapshot().
struct MetricSample {
  std::string name;
  InstrumentKind kind = InstrumentKind::Counter;
  SampleUnit unit = SampleUnit::Count;
  /// Counter value, gauge level, or histogram sum.
  double value = 0.0;
  /// Histogram observation count (0 for counters and gauges).
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  /// Histogram quantile estimates (0 for counters and gauges).
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Registry of named instruments.  Registration (the first counter() /
/// gauge() / histogram() call per name) takes a mutex; the returned
/// references stay valid for the registry's lifetime — including across
/// reset(), which zeroes values but never removes instruments — so hot
/// paths resolve once and update lock-free.  Re-registering a name with a
/// different kind or unit throws std::runtime_error (stable dotted names
/// are part of the contract; see docs/OBSERVABILITY.md).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name,
                   SampleUnit unit = SampleUnit::Count);
  Gauge& gauge(std::string_view name, SampleUnit unit = SampleUnit::Count);
  Histogram& histogram(std::string_view name,
                       SampleUnit unit = SampleUnit::Seconds);

  /// All instruments, sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// One registered instrument, by reference.  The pointers stay valid
  /// for the registry's lifetime (instruments are never removed), so
  /// consumers like RegistryWindow can re-read them lock-free.
  struct InstrumentRef {
    std::string name;
    InstrumentKind kind = InstrumentKind::Counter;
    SampleUnit unit = SampleUnit::Count;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  /// All instruments as live references, sorted by name.
  [[nodiscard]] std::vector<InstrumentRef> instruments() const;

  /// Adds `other`'s state into this registry: counters and histograms
  /// accumulate, gauges take the other's level if it was ever set.
  void absorb(const MetricsRegistry& other);

  /// Zeroes every instrument; references handed out stay valid.
  void reset();

  [[nodiscard]] std::size_t size() const;

  /// The process-wide registry the built-in instrumentation feeds.
  static MetricsRegistry& global();

 private:
  struct Instrument {
    InstrumentKind kind;
    SampleUnit unit;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Instrument& resolve(std::string_view name, InstrumentKind kind,
                      SampleUnit unit);

  mutable std::mutex mutex_;
  /// Ordered map: snapshot order == name order, deterministically.
  std::map<std::string, std::unique_ptr<Instrument>, std::less<>> entries_;
};

/// The value of counter `name` in a snapshot(); 0 if it was never
/// registered.
[[nodiscard]] std::uint64_t counter_value(
    const std::vector<MetricSample>& samples, std::string_view name);

/// Writes a plain-text table of every instrument (the metrics half of the
/// --stats report).
void write_metrics_report(std::ostream& out, const MetricsRegistry& registry);

}  // namespace cube::obs
