#include "algebra/simd.hpp"

#include <algorithm>

#if !defined(CUBE_FORCE_SCALAR) && (defined(__x86_64__) || defined(_M_X64))
#define CUBE_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(CUBE_FORCE_SCALAR) && defined(__ARM_NEON)
#define CUBE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cube::simd {

void reduce_sum_scalar(Severity* acc, const TileRow* rows, std::size_t nrows,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    Severity sum = acc[i];
    for (std::size_t r = 0; r < nrows; ++r) {
      const Severity v = rows[r].data[i];
      sum += rows[r].factor == 1.0 ? v : rows[r].factor * v;
    }
    acc[i] = sum;
  }
}

void reduce_extremum_scalar(Severity* acc, const TileRow* rows,
                            std::size_t nrows, std::size_t n,
                            bool take_min) noexcept {
  if (nrows == 0) {
    std::fill(acc, acc + n, 0.0);
    return;
  }
  if (take_min) {
    for (std::size_t i = 0; i < n; ++i) {
      Severity a = rows[0].data[i] + 0.0;
      for (std::size_t r = 1; r < nrows; ++r) {
        a = std::min(a, rows[r].data[i] + 0.0);
      }
      acc[i] = a;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      Severity a = rows[0].data[i] + 0.0;
      for (std::size_t r = 1; r < nrows; ++r) {
        a = std::max(a, rows[r].data[i] + 0.0);
      }
      acc[i] = a;
    }
  }
}

#if defined(CUBE_SIMD_AVX2)

namespace {

/// Operand rows per blocking group.  A fold over the full batch width
/// cells-first would interleave up to 64 input streams at cache-line
/// granularity — more than the hardware prefetcher tracks, collapsing a
/// wide DRAM-resident batch to latency-bound loads.  Small groups keep
/// the active stream count prefetcher-sized; the accumulator strip is
/// re-read per group but stays cache-hot for a whole tile.  Grouping
/// cannot change results: group g finishes rows [g, g+4) for every cell
/// before group g+1 starts, so each cell still folds rows 0..N-1 in the
/// exact scalar order, and parking the partial sum in memory between
/// groups is value-preserving.
inline constexpr std::size_t kRowGroup = 4;

// Register-blocked strip of 16 cells (4 x 4 doubles): within a row
// group the accumulators live in-register.  Per cell this is the same
// left-to-right row fold as the scalar path, just 16 cells at a time.
__attribute__((target("avx2"))) void reduce_sum_avx2(
    Severity* acc, const TileRow* rows, std::size_t nrows,
    std::size_t n) noexcept {
  for (std::size_t g = 0; g < nrows; g += kRowGroup) {
    const std::size_t gend = std::min(nrows, g + kRowGroup);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      __m256d a0 = _mm256_loadu_pd(acc + i);
      __m256d a1 = _mm256_loadu_pd(acc + i + 4);
      __m256d a2 = _mm256_loadu_pd(acc + i + 8);
      __m256d a3 = _mm256_loadu_pd(acc + i + 12);
      for (std::size_t r = g; r < gend; ++r) {
        const Severity* p = rows[r].data + i;
        const double f = rows[r].factor;
        _mm_prefetch(reinterpret_cast<const char*>(p + 256), _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char*>(p + 264), _MM_HINT_T0);
        if (f == 1.0) {
          a0 = _mm256_add_pd(a0, _mm256_loadu_pd(p));
          a1 = _mm256_add_pd(a1, _mm256_loadu_pd(p + 4));
          a2 = _mm256_add_pd(a2, _mm256_loadu_pd(p + 8));
          a3 = _mm256_add_pd(a3, _mm256_loadu_pd(p + 12));
        } else {
          const __m256d vf = _mm256_set1_pd(f);
          a0 = _mm256_add_pd(a0, _mm256_mul_pd(vf, _mm256_loadu_pd(p)));
          a1 = _mm256_add_pd(a1, _mm256_mul_pd(vf, _mm256_loadu_pd(p + 4)));
          a2 = _mm256_add_pd(a2, _mm256_mul_pd(vf, _mm256_loadu_pd(p + 8)));
          a3 = _mm256_add_pd(a3, _mm256_mul_pd(vf, _mm256_loadu_pd(p + 12)));
        }
      }
      _mm256_storeu_pd(acc + i, a0);
      _mm256_storeu_pd(acc + i + 4, a1);
      _mm256_storeu_pd(acc + i + 8, a2);
      _mm256_storeu_pd(acc + i + 12, a3);
    }
    for (; i + 4 <= n; i += 4) {
      __m256d a = _mm256_loadu_pd(acc + i);
      for (std::size_t r = g; r < gend; ++r) {
        const __m256d v = _mm256_loadu_pd(rows[r].data + i);
        const double f = rows[r].factor;
        a = f == 1.0 ? _mm256_add_pd(a, v)
                     : _mm256_add_pd(a, _mm256_mul_pd(_mm256_set1_pd(f), v));
      }
      _mm256_storeu_pd(acc + i, a);
    }
    for (; i < n; ++i) {
      Severity sum = acc[i];
      for (std::size_t r = g; r < gend; ++r) {
        const Severity v = rows[r].data[i];
        sum += rows[r].factor == 1.0 ? v : rows[r].factor * v;
      }
      acc[i] = sum;
    }
  }
}

// _mm256_min_pd(v, a) returns v < a ? v : a and falls back to the SECOND
// operand on NaN — exactly std::min(a, v); same for max with vcmp order
// v > a.  The +0.0 matches the scalar normalization of stored -0.0.
__attribute__((target("avx2"))) void reduce_extremum_avx2(
    Severity* acc, const TileRow* rows, std::size_t nrows, std::size_t n,
    bool take_min) noexcept {
  if (nrows == 0) {
    std::fill(acc, acc + n, 0.0);
    return;
  }
  const __m256d zero = _mm256_setzero_pd();
  // Same kRowGroup blocking (and the same fold-order argument) as
  // reduce_sum_avx2.  Accumulator values reloaded from a previous group
  // are already normalized, so only fresh row loads get the + 0.0.
  std::size_t g = 0;
  do {
    const std::size_t gend = std::min(nrows, g + kRowGroup);
    const bool first = g == 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256d a0 = first
                       ? _mm256_add_pd(_mm256_loadu_pd(rows[0].data + i), zero)
                       : _mm256_loadu_pd(acc + i);
      __m256d a1 =
          first ? _mm256_add_pd(_mm256_loadu_pd(rows[0].data + i + 4), zero)
                : _mm256_loadu_pd(acc + i + 4);
      for (std::size_t r = first ? 1 : g; r < gend; ++r) {
        _mm_prefetch(reinterpret_cast<const char*>(rows[r].data + i + 256),
                     _MM_HINT_T0);
        const __m256d v0 =
            _mm256_add_pd(_mm256_loadu_pd(rows[r].data + i), zero);
        const __m256d v1 =
            _mm256_add_pd(_mm256_loadu_pd(rows[r].data + i + 4), zero);
        if (take_min) {
          a0 = _mm256_min_pd(v0, a0);
          a1 = _mm256_min_pd(v1, a1);
        } else {
          a0 = _mm256_max_pd(v0, a0);
          a1 = _mm256_max_pd(v1, a1);
        }
      }
      _mm256_storeu_pd(acc + i, a0);
      _mm256_storeu_pd(acc + i + 4, a1);
    }
    for (; i < n; ++i) {
      Severity a = first ? rows[0].data[i] + 0.0 : acc[i];
      for (std::size_t r = first ? 1 : g; r < gend; ++r) {
        const Severity v = rows[r].data[i] + 0.0;
        a = take_min ? std::min(a, v) : std::max(a, v);
      }
      acc[i] = a;
    }
    g += kRowGroup;
  } while (g < nrows);
}

bool cpu_has_avx2() noexcept {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

}  // namespace

#elif defined(CUBE_SIMD_NEON)

namespace {

/// Same row-group blocking (and fold-order argument) as the AVX2
/// backend: a handful of sequential input streams in flight so the
/// prefetcher keeps up at any batch width, partial accumulators parked
/// in the cache-hot strip between groups.
inline constexpr std::size_t kRowGroup = 4;

void reduce_sum_neon(Severity* acc, const TileRow* rows, std::size_t nrows,
                     std::size_t n) noexcept {
  for (std::size_t g = 0; g < nrows; g += kRowGroup) {
    const std::size_t gend = std::min(nrows, g + kRowGroup);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      float64x2_t a0 = vld1q_f64(acc + i);
      float64x2_t a1 = vld1q_f64(acc + i + 2);
      float64x2_t a2 = vld1q_f64(acc + i + 4);
      float64x2_t a3 = vld1q_f64(acc + i + 6);
      for (std::size_t r = g; r < gend; ++r) {
        const Severity* p = rows[r].data + i;
        const double f = rows[r].factor;
        __builtin_prefetch(p + 256, 0, 3);
        if (f == 1.0) {
          a0 = vaddq_f64(a0, vld1q_f64(p));
          a1 = vaddq_f64(a1, vld1q_f64(p + 2));
          a2 = vaddq_f64(a2, vld1q_f64(p + 4));
          a3 = vaddq_f64(a3, vld1q_f64(p + 6));
        } else {
          const float64x2_t vf = vdupq_n_f64(f);
          a0 = vaddq_f64(a0, vmulq_f64(vf, vld1q_f64(p)));
          a1 = vaddq_f64(a1, vmulq_f64(vf, vld1q_f64(p + 2)));
          a2 = vaddq_f64(a2, vmulq_f64(vf, vld1q_f64(p + 4)));
          a3 = vaddq_f64(a3, vmulq_f64(vf, vld1q_f64(p + 6)));
        }
      }
      vst1q_f64(acc + i, a0);
      vst1q_f64(acc + i + 2, a1);
      vst1q_f64(acc + i + 4, a2);
      vst1q_f64(acc + i + 6, a3);
    }
    for (; i < n; ++i) {
      Severity sum = acc[i];
      for (std::size_t r = g; r < gend; ++r) {
        const Severity v = rows[r].data[i];
        sum += rows[r].factor == 1.0 ? v : rows[r].factor * v;
      }
      acc[i] = sum;
    }
  }
}

// vminq_f64 does not match std::min on NaN, so the fold is spelled as the
// same compare+select std::min/std::max reduce to: v < a ? v : a.
void reduce_extremum_neon(Severity* acc, const TileRow* rows,
                          std::size_t nrows, std::size_t n,
                          bool take_min) noexcept {
  if (nrows == 0) {
    std::fill(acc, acc + n, 0.0);
    return;
  }
  const float64x2_t zero = vdupq_n_f64(0.0);
  std::size_t g = 0;
  do {
    const std::size_t gend = std::min(nrows, g + kRowGroup);
    const bool first = g == 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      float64x2_t a0 = first ? vaddq_f64(vld1q_f64(rows[0].data + i), zero)
                             : vld1q_f64(acc + i);
      float64x2_t a1 = first ? vaddq_f64(vld1q_f64(rows[0].data + i + 2), zero)
                             : vld1q_f64(acc + i + 2);
      for (std::size_t r = first ? 1 : g; r < gend; ++r) {
        __builtin_prefetch(rows[r].data + i + 256, 0, 3);
        const float64x2_t v0 = vaddq_f64(vld1q_f64(rows[r].data + i), zero);
        const float64x2_t v1 = vaddq_f64(vld1q_f64(rows[r].data + i + 2), zero);
        if (take_min) {
          a0 = vbslq_f64(vcltq_f64(v0, a0), v0, a0);
          a1 = vbslq_f64(vcltq_f64(v1, a1), v1, a1);
        } else {
          a0 = vbslq_f64(vcgtq_f64(v0, a0), v0, a0);
          a1 = vbslq_f64(vcgtq_f64(v1, a1), v1, a1);
        }
      }
      vst1q_f64(acc + i, a0);
      vst1q_f64(acc + i + 2, a1);
    }
    for (; i < n; ++i) {
      Severity a = first ? rows[0].data[i] + 0.0 : acc[i];
      for (std::size_t r = first ? 1 : g; r < gend; ++r) {
        const Severity v = rows[r].data[i] + 0.0;
        a = take_min ? std::min(a, v) : std::max(a, v);
      }
      acc[i] = a;
    }
    g += kRowGroup;
  } while (g < nrows);
}

}  // namespace

#endif

Backend active_backend() noexcept {
#if defined(CUBE_SIMD_AVX2)
  return cpu_has_avx2() ? Backend::Avx2 : Backend::Scalar;
#elif defined(CUBE_SIMD_NEON)
  return Backend::Neon;
#else
  return Backend::Scalar;
#endif
}

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::Avx2:
      return "avx2";
    case Backend::Neon:
      return "neon";
    case Backend::Scalar:
      break;
  }
  return "scalar";
}

void reduce_sum(Severity* acc, const TileRow* rows, std::size_t nrows,
                std::size_t n, Policy policy) noexcept {
#if defined(CUBE_SIMD_AVX2)
  if (policy == Policy::Auto && cpu_has_avx2()) {
    reduce_sum_avx2(acc, rows, nrows, n);
    return;
  }
#elif defined(CUBE_SIMD_NEON)
  if (policy == Policy::Auto) {
    reduce_sum_neon(acc, rows, nrows, n);
    return;
  }
#endif
  (void)policy;
  reduce_sum_scalar(acc, rows, nrows, n);
}

void reduce_extremum(Severity* acc, const TileRow* rows, std::size_t nrows,
                     std::size_t n, bool take_min, Policy policy) noexcept {
#if defined(CUBE_SIMD_AVX2)
  if (policy == Policy::Auto && cpu_has_avx2()) {
    reduce_extremum_avx2(acc, rows, nrows, n, take_min);
    return;
  }
#elif defined(CUBE_SIMD_NEON)
  if (policy == Policy::Auto) {
    reduce_extremum_neon(acc, rows, nrows, n, take_min);
    return;
  }
#endif
  (void)policy;
  reduce_extremum_scalar(acc, rows, nrows, n, take_min);
}

}  // namespace cube::simd
