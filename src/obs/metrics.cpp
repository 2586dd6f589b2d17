#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace cube::obs {

namespace {

/// Relaxed atomic add for doubles (atomic<double>::fetch_add is C++20 but
/// not universally lowered; the CAS loop is portable and uncontended here).
void atomic_add(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Sub-bucket edges within one octave: frexp mantissas (in [0.5, 1)) at
/// 2^(k/4) spacing, written out as literals so the edges are identical on
/// every platform — no runtime pow/log whose last bit could differ.
constexpr double kSubEdge1 = 0.5946035575013605;  // 2^0.25 / 2
constexpr double kSubEdge2 = 0.7071067811865476;  // 2^0.50 / 2
constexpr double kSubEdge3 = 0.8408964152537145;  // 2^0.75 / 2

std::size_t bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const std::size_t sub = m < kSubEdge1 ? 0 : m < kSubEdge2 ? 1
                          : m < kSubEdge3 ? 2 : 3;
  const long octave = static_cast<long>(exp) - Histogram::kMinExp;
  if (octave < 0) return 0;
  const long index =
      octave * static_cast<long>(Histogram::kBucketsPerOctave) +
      static_cast<long>(sub);
  if (index >= static_cast<long>(Histogram::kBuckets)) {
    return Histogram::kBuckets - 1;
  }
  return static_cast<std::size_t>(index);
}

}  // namespace

double Histogram::bucket_lower_bound(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  constexpr double kSubLower[kBucketsPerOctave] = {0.5, kSubEdge1, kSubEdge2,
                                                   kSubEdge3};
  // ldexp is exact, so each edge is the literal mantissa scaled by a
  // power of two — bit-identical everywhere.
  return std::ldexp(kSubLower[i % kBucketsPerOctave],
                    kMinExp + static_cast<int>(i / kBucketsPerOctave));
}

std::string_view sample_unit_name(SampleUnit u) noexcept {
  switch (u) {
    case SampleUnit::Seconds:
      return "sec";
    case SampleUnit::Bytes:
      return "bytes";
    case SampleUnit::Count:
      return "occ";
  }
  return "occ";
}

void Gauge::record_max(double v) noexcept {
  watermark_.store(true, std::memory_order_relaxed);
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double v) noexcept {
  const std::uint64_t seen = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (seen == 0) {
    // First observation seeds min/max; racing observers fix it up below.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  } else {
    atomic_min(min_, v);
    atomic_max(max_, v);
  }
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const noexcept {
  // Work from one pass over the bucket array; the total is the bucket sum
  // (not count_) so a racing observe() that has bumped count_ but not yet
  // its bucket cannot push the target rank past the recorded mass.
  std::uint64_t cells[kBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cells[i] = buckets_[i].load(std::memory_order_relaxed);
    total += cells[i];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (cells[i] == 0) continue;
    const std::uint64_t next = cum + cells[i];
    if (static_cast<double>(next) >= target) {
      const double lo = bucket_lower_bound(i);
      const double hi = bucket_lower_bound(i + 1);
      const double within =
          (target - static_cast<double>(cum)) / static_cast<double>(cells[i]);
      double v = lo + within * (hi - lo);
      // The recorded extremes are exact; the bucket edges are not.  Clamp
      // so a quantile never reports outside the observed range.
      const double observed_min = min();
      const double observed_max = max();
      if (v < observed_min) v = observed_min;
      if (v > observed_max) v = observed_max;
      return v;
    }
    cum = next;
  }
  return max();
}

Histogram::Cells Histogram::cells() const noexcept {
  Cells out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::add_cells(const Cells& c) noexcept {
  if (c.count == 0) return;
  std::size_t first = kBuckets;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (c.buckets[i] == 0) continue;
    if (first == kBuckets) first = i;
    last = i;
    buckets_[i].fetch_add(c.buckets[i], std::memory_order_relaxed);
  }
  const std::uint64_t seen = count_.fetch_add(c.count,
                                              std::memory_order_relaxed);
  atomic_add(sum_, c.sum);
  if (first != kBuckets) {
    const double lo = bucket_lower_bound(first);
    const double hi = bucket_lower_bound(last + 1);
    if (seen == 0) {
      min_.store(lo, std::memory_order_relaxed);
      max_.store(hi, std::memory_order_relaxed);
    } else {
      atomic_min(min_, lo);
      atomic_max(max_, hi);
    }
  }
}

void Histogram::merge(const Histogram& other) noexcept {
  const std::uint64_t n = other.count();
  if (n == 0) return;
  const std::uint64_t seen = count_.fetch_add(n, std::memory_order_relaxed);
  atomic_add(sum_, other.sum());
  if (seen == 0) {
    min_.store(other.min(), std::memory_order_relaxed);
    max_.store(other.max(), std::memory_order_relaxed);
  } else {
    atomic_min(min_, other.min());
    atomic_max(max_, other.max());
  }
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.bucket(i), std::memory_order_relaxed);
  }
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

MetricsRegistry::Instrument& MetricsRegistry::resolve(std::string_view name,
                                                      InstrumentKind kind,
                                                      SampleUnit unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second->kind != kind || it->second->unit != unit) {
      throw std::runtime_error(
          "obs metric '" + std::string(name) +
          "' re-registered with a different kind or unit");
    }
    return *it->second;
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = kind;
  instrument->unit = unit;
  return *entries_.emplace(std::string(name), std::move(instrument))
              .first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, SampleUnit unit) {
  return resolve(name, InstrumentKind::Counter, unit).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, SampleUnit unit) {
  return resolve(name, InstrumentKind::Gauge, unit).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      SampleUnit unit) {
  return resolve(name, InstrumentKind::Histogram, unit).histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, instrument] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = instrument->kind;
    s.unit = instrument->unit;
    switch (instrument->kind) {
      case InstrumentKind::Counter:
        s.value = static_cast<double>(instrument->counter.value());
        break;
      case InstrumentKind::Gauge:
        s.value = instrument->gauge.value();
        break;
      case InstrumentKind::Histogram:
        s.value = instrument->histogram.sum();
        s.count = instrument->histogram.count();
        s.min = instrument->histogram.min();
        s.max = instrument->histogram.max();
        s.p50 = instrument->histogram.quantile(0.50);
        s.p90 = instrument->histogram.quantile(0.90);
        s.p99 = instrument->histogram.quantile(0.99);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<MetricsRegistry::InstrumentRef> MetricsRegistry::instruments()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<InstrumentRef> out;
  out.reserve(entries_.size());
  for (const auto& [name, instrument] : entries_) {
    out.push_back(InstrumentRef{name, instrument->kind, instrument->unit,
                                &instrument->counter, &instrument->gauge,
                                &instrument->histogram});
  }
  return out;
}

void MetricsRegistry::absorb(const MetricsRegistry& other) {
  // Snapshot the source outside our own lock (distinct registries; the
  // source keeps serving concurrent updates).
  std::vector<std::pair<std::string, const Instrument*>> sources;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    sources.reserve(other.entries_.size());
    for (const auto& [name, instrument] : other.entries_) {
      sources.emplace_back(name, instrument.get());
    }
  }
  for (const auto& [name, src] : sources) {
    Instrument& dst = resolve(name, src->kind, src->unit);
    switch (src->kind) {
      case InstrumentKind::Counter:
        dst.counter.add(src->counter.value());
        break;
      case InstrumentKind::Gauge:
        // A high-watermark gauge folds with max — absorbing several
        // per-run registries keeps the peak, not the last run's level.
        if (src->gauge.high_watermark()) {
          dst.gauge.record_max(src->gauge.value());
        } else {
          dst.gauge.set(src->gauge.value());
        }
        break;
      case InstrumentKind::Histogram:
        dst.histogram.merge(src->histogram);
        break;
    }
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, instrument] : entries_) {
    (void)name;
    instrument->counter.reset();
    instrument->gauge.reset();
    instrument->histogram.reset();
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies:
  // instrumentation sites cache references resolved during static-init-
  // order-unknown moments and may fire from detached threads at exit.
  return *registry;
}

std::uint64_t counter_value(const std::vector<MetricSample>& samples,
                            std::string_view name) {
  const auto it = std::lower_bound(
      samples.begin(), samples.end(), name,
      [](const MetricSample& s, std::string_view n) { return s.name < n; });
  if (it == samples.end() || it->name != name) return 0;
  return static_cast<std::uint64_t>(it->value);
}

void write_metrics_report(std::ostream& out,
                          const MetricsRegistry& registry) {
  const std::vector<MetricSample> samples = registry.snapshot();
  if (samples.empty()) {
    out << "  (no metrics recorded)\n";
    return;
  }
  std::size_t width = 0;
  for (const MetricSample& s : samples) {
    width = std::max(width, s.name.size());
  }
  for (const MetricSample& s : samples) {
    std::ostringstream value;
    switch (s.kind) {
      case InstrumentKind::Counter:
      case InstrumentKind::Gauge:
        if (s.value == std::floor(s.value) && std::abs(s.value) < 1e15) {
          value << static_cast<long long>(s.value);
        } else {
          value << std::setprecision(6) << s.value;
        }
        value << ' ' << sample_unit_name(s.unit);
        break;
      case InstrumentKind::Histogram:
        value << s.count << " samples, sum " << std::setprecision(6)
              << s.value << ' ' << sample_unit_name(s.unit) << " (mean "
              << (s.count == 0 ? 0.0
                               : s.value / static_cast<double>(s.count))
              << ", min " << s.min << ", max " << s.max << ", p50 " << s.p50
              << ", p90 " << s.p90 << ", p99 " << s.p99 << ')';
        break;
    }
    out << "  " << s.name << std::string(width - s.name.size() + 2, ' ')
        << value.str() << '\n';
  }
}

}  // namespace cube::obs
