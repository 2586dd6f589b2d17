// SIMD backends for the batched severity reductions (docs/KERNELS.md).
//
// The batch kernels stage N operands of an n-ary operator as rows of a
// structure-of-arrays tile (one row per operand, lanes spanning CELLS) and
// reduce across the batch dimension here.  Every backend computes, per
// cell, the exact same left-to-right fold over the rows the scalar
// variant spells out — vector lanes only parallelize ACROSS cells, never
// across operands — so all backends are bit-identical by construction and
// the scalar variant doubles as the test oracle.  The build disables FMA
// contraction globally (-ffp-contract=off, see the root CMakeLists) so a
// fused multiply-add cannot make one backend round differently.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace cube::simd {

/// Per-application override of the backend selection.  Auto resolves to
/// the best backend the build and the running CPU support; ForceScalar
/// pins the scalar reduction.  The choice never affects results.
enum class Policy { Auto, ForceScalar };

/// Available reduction backends.  Avx2 is compiled on x86-64 through a
/// per-function target attribute (no -march flags required) and selected
/// at runtime via cpuid; Neon is baseline on aarch64.  Configuring with
/// -DCUBE_FORCE_SCALAR=ON compiles both out, leaving Scalar.
enum class Backend { Scalar, Avx2, Neon };

/// The backend Policy::Auto resolves to on this build and CPU.  Constant
/// for the process lifetime.
[[nodiscard]] Backend active_backend() noexcept;
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// One operand row of a staging tile: data[i] is the operand's
/// zero-extended severity at the tile's i-th cell, factor its linear
/// combination coefficient (1.0 for merge/min/max, 1/N for mean, -1.0
/// for the difference subtrahend).
struct TileRow {
  const Severity* data = nullptr;
  double factor = 1.0;
};

// The scalar variants below define the exact per-cell arithmetic; the
// dispatched entry points reproduce it bit-for-bit on every backend.

/// acc[i] = acc[i] + f0*rows[0].data[i] + f1*rows[1].data[i] + ... in row
/// order, with factor-1.0 rows added unscaled (f*v and the bare v are
/// bit-equal for f == 1.0; the branch only skips the multiply).  Adds onto
/// acc rather than overwriting it, so a fold can be split into segments
/// with other contributions applied in between (the scattered operands of
/// batch::reduce_batched); acc starts at +0.0.
void reduce_sum_scalar(Severity* acc, const TileRow* rows, std::size_t nrows,
                       std::size_t n) noexcept;
void reduce_sum(Severity* acc, const TileRow* rows, std::size_t nrows,
                std::size_t n, Policy policy) noexcept;

/// Overwrites acc[i] with the min/max fold over rows[r].data[i] + 0.0 in
/// row order with std::min/std::max semantics (second argument loses ties
/// and NaNs).  Row factors are ignored.  The + 0.0 normalizes a stored -0.0 to +0.0,
/// matching values materialized through zero-initialized staging buffers.
/// Requires nrows >= 1.
void reduce_extremum_scalar(Severity* acc, const TileRow* rows,
                            std::size_t nrows, std::size_t n,
                            bool take_min) noexcept;
void reduce_extremum(Severity* acc, const TileRow* rows, std::size_t nrows,
                     std::size_t n, bool take_min, Policy policy) noexcept;

}  // namespace cube::simd
