// Batched structure-of-arrays severity kernels (docs/KERNELS.md) — the
// one severity phase of every operator.
//
// The severity phase of an operator runs as ONE sweep through the result's
// flattened cell space: the space is partitioned into a fixed chunk grid,
// each chunk is walked in tiles of kTileCells cells, and for every tile
// each operand contributes one row of a structure-of-arrays staging block
// — identity x dense operands borrow their cell span directly (zero
// copies), remapped and sparse operands gather into the tile once — after
// which a simd reduction folds the rows per cell in operand order.
//
// Linear combinations (difference, merge, mean) never gather a sparse
// operand, nor one whose mapping COALESCES several source cells onto one
// result cell: those are scattered straight onto the accumulator
// (acc[k] += f*v, one rounding per contribution, ascending source order)
// at their operand position, between the simd segments of the tile fold.
// Folds (min, max, stddev, variation) gather every non-borrowed operand;
// coalescing contributions sum into the tile row in ascending source
// order, exactly as the zero-extension rule materializes them.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "algebra/integration.hpp"
#include "algebra/operators.hpp"
#include "algebra/simd.hpp"
#include "model/experiment.hpp"

namespace cube::batch {

/// Fixed upper bound on cell chunks handed to a ParallelFor.  Not derived
/// from the thread count, so the partition — and therefore any conceivable
/// numeric effect — is identical no matter how the executor schedules it.
inline constexpr std::size_t kMaxCellChunks = 32;

/// Cells per SoA staging tile.  A tile row is 32 KiB — long enough that
/// the hardware prefetcher locks onto each operand stream — and a 64-wide
/// batch stages within 2 MiB, so the in-flight working set stays
/// cache-sized at any batch width.  Tile boundaries never affect results:
/// the reduction is independent per cell.
inline constexpr std::size_t kTileCells = 4096;

[[nodiscard]] std::size_t num_cell_chunks(std::size_t cells);

/// Shape of the integrated (result) cell space.
struct OutShape {
  std::size_t metrics = 0;
  std::size_t cnodes = 0;
  std::size_t threads = 0;
  std::size_t plane = 0;  ///< cnodes * threads
  std::size_t cells = 0;  ///< metrics * plane
};

[[nodiscard]] OutShape shape_of(const Metadata& md);

/// True if `mapping` sends two source cells onto one result cell (some
/// dimension's map is not injective — e.g. sibling call paths with the
/// same callee, which integration folds into one cnode).  kNoIndex
/// entries (merge ownership masking) are skipped.
[[nodiscard]] bool coalesces(const OperandMapping& mapping,
                             const OutShape& os);

/// Per-tile fold for reduce_batched: overwrite acc[0, n) with a per-cell
/// fold over the nrows operand rows (simd::reduce_extremum or the
/// statistics folds).
using TileReduce = std::function<void(Severity* acc, const simd::TileRow* rows,
                                      std::size_t nrows, std::size_t n)>;

/// The severity phase of the linear combinations (difference, merge,
/// mean): out = sum over operands of factors[i] * the operand's
/// zero-extension, folded per cell in operand order and, within an
/// operand, in ascending source-cell order.  Dense results are reduced
/// straight into their cell spans; sparse results go through per-chunk
/// staging merged in fixed chunk order.  Bit-identical at any thread
/// count, tile size, batch width, and simd backend.
void reduce_batched(std::span<const Experiment* const> sources,
                    std::span<const OperandMapping> mappings,
                    std::span<const double> factors, Experiment& out,
                    const OperatorOptions& options);

/// The severity phase of the folds (min, max, stddev, variation): every
/// tile stages all N operand rows and `fold` reduces them.  Same sweep,
/// staging and determinism contract as the linear overload.
void reduce_batched(std::span<const Experiment* const> sources,
                    std::span<const OperandMapping> mappings, Experiment& out,
                    const OperatorOptions& options, const TileReduce& fold);

/// The frame every operator application shares: requires at least
/// `min_operands` operands, integrates them under a `phase.integrate` span
/// — or validates a caller-hoisted IntegrationResult against them —
/// creates the result in options.storage, runs `severity` under a
/// `phase.severity` span, and names the result `opname(label1, ...)`.
using SeverityPhase =
    std::function<void(const IntegrationResult&, Experiment& out)>;
[[nodiscard]] Experiment apply_operator(
    const char* opname, std::span<const Experiment* const> operands,
    std::size_t min_operands, const IntegrationResult* hoisted,
    const OperatorOptions& options, const SeverityPhase& severity);

}  // namespace cube::batch
