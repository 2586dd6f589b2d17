// The algebraic operators: difference, merge, mean (and the min/max
// extensions).
//
// Every operator is CLOSED: it consumes valid CUBE experiments and produces
// a complete derived CUBE experiment — integrated metadata plus a severity
// function defined over it — so outputs feed straight back into further
// operators or into the display, exactly like original data.
//
// Each operator is defined once: integrate the operands' metadata, extend
// every operand's severity to the integrated domain by zero-filling, and
// combine the operands cell by cell.  The combination runs through one
// kernel path, the batched sweep of algebra/batch.hpp; the per-cell oracle
// the equivalence suites compare it against lives in tests/oracle.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "algebra/integration.hpp"
#include "algebra/simd.hpp"
#include "model/experiment.hpp"
#include "obs/metrics.hpp"

namespace cube {

/// Optional executor for data-parallel severity computation: invoked as
/// parallel_for(n, body) and expected to run body(0..n-1), possibly
/// concurrently (ThreadPool::parallel_for has this shape).  Operators
/// partition the FLATTENED CELL SPACE of the result into chunks, one
/// body call per chunk; every output cell belongs to exactly one chunk
/// and receives its additions in the same operand order as sequential
/// evaluation, so results are bit-identical at any thread count.  The
/// chunking itself is independent of the executor.  Dense results are
/// written in place (disjoint ranges); sparse results go through
/// per-chunk staging buffers merged under the fixed chunk order.
using ParallelFor =
    std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

/// Stable names of the severity-kernel counters operators record into
/// OperatorOptions::metrics (docs/KERNELS.md, docs/OBSERVABILITY.md).
/// Chunks of one application run concurrently; Counter updates are relaxed
/// atomics, so the names can be bumped from any worker.
namespace kernel_counters {
/// Dense operand with an identity mapping: cells borrowed per tile.
inline constexpr const char* kIdentityDenseCells =
    "algebra.kernel.identity_dense_cells";
/// Dense operand walked through its index mapping (source cells visited,
/// once per tile a source row overlaps).
inline constexpr const char* kRemapDenseCells =
    "algebra.kernel.remap_dense_cells";
/// Sparse operand with an identity mapping (non-zeros applied).
inline constexpr const char* kIdentitySparseNnz =
    "algebra.kernel.identity_sparse_nnz";
/// Sparse operand walked through its index mapping (non-zeros applied).
inline constexpr const char* kRemapSparseNnz =
    "algebra.kernel.remap_sparse_nnz";
/// Cell chunks executed across all operator applications.
inline constexpr const char* kChunks = "algebra.kernel.chunks";
/// Operator applications with a non-empty result cell space.
inline constexpr const char* kApplications = "algebra.kernel.applications";
/// SoA tiles swept by the batched kernels (docs/KERNELS.md).
inline constexpr const char* kBatchTiles = "algebra.kernel.batch_tiles";
/// Sum of operand counts over applications; batch_width / applications
/// is the average batch width.
inline constexpr const char* kBatchWidth = "algebra.kernel.batch_width";
/// Applications that ran the batched sweep.  It is the only severity path,
/// so this always equals kApplications; kept as a stable name for
/// existing readers.
inline constexpr const char* kPathBatched = "algebra.kernel.path_batched";
}  // namespace kernel_counters

/// Options shared by all operators.
struct OperatorOptions {
  IntegrationOptions integration;
  /// Storage kind of the produced experiment.
  StorageKind storage = StorageKind::Dense;
  /// If set, the severity phase of the operator runs cell-chunked through
  /// this executor (see ParallelFor) — for dense AND sparse results.
  ParallelFor parallel_for;
/// SIMD policy of the batched reduction: Auto picks the best backend
  /// the build and CPU support, ForceScalar pins the scalar oracle.
  /// Bit-identical either way.
  simd::Policy simd_policy = simd::Policy::Auto;
  /// Drop file-backed operand pages (madvise(MADV_DONTNEED)) as soon as a
  /// cell chunk has been consumed, so reductions over mmapped columnar
  /// series (docs/STORAGE.md, CUBESEV1) stream at bounded resident memory
  /// instead of faulting the whole series in.  Affects only
  /// identity-mapped operands whose severity store is file-backed; owned
  /// stores and remapped operands are untouched.  Never affects results —
  /// released pages refault from the file on the next access.
  bool release_operand_pages = false;
  /// If non-null, the severity-kernel counters (kernel_counters above) are
  /// accumulated into this registry.  Pass a per-run local registry for
  /// isolated readings (the query engine does), or
  /// &obs::MetricsRegistry::global() to feed the process-wide one.
  obs::MetricsRegistry* metrics = nullptr;
};

/// difference(a, b): severity = a - b over the integrated domain.  Tuples
/// absent from an operand contribute zero; severities of the result may be
/// negative.  Useful for before/after comparison of code or parameter
/// changes (paper §5.1).
[[nodiscard]] Experiment difference(const Experiment& a, const Experiment& b,
                                    const OperatorOptions& options = {});

/// merge(a, b): joins experiments with different or overlapping metric sets
/// (e.g. counter sets that cannot be measured in one run).  For each metric
/// of the integrated set the severities are taken from the first operand
/// that provides the metric; b supplies only its exclusive metrics
/// (paper §3, "we take it from the first one without loss of generality").
[[nodiscard]] Experiment merge(const Experiment& a, const Experiment& b,
                               const OperatorOptions& options = {});

/// mean(e1..eN): element-wise arithmetic mean over the integrated domain,
/// to smooth random perturbation across repeated runs or to summarize a
/// range of execution parameters.  N-ary; requires N >= 1.
[[nodiscard]] Experiment mean(std::span<const Experiment* const> operands,
                              const OperatorOptions& options = {});
[[nodiscard]] Experiment mean(const std::vector<const Experiment*>& operands,
                              const OperatorOptions& options = {});

/// Integration-hoisted n-ary forms: `integration` must be the result of
/// integrate_metadata over exactly these operands (in order).  Lets a
/// caller computing several reductions of ONE series (mean + min + max +
/// stddev, see summarize_series) run the metadata phase once instead of
/// once per operator — the structural merge is the dominant cost when the
/// series' metadata is digest-distinct but structurally equal (e.g.
/// shifted line numbers).  Throws OperationError on an operand-count
/// mismatch.
[[nodiscard]] Experiment mean(std::span<const Experiment* const> operands,
                              const IntegrationResult& integration,
                              const OperatorOptions& options = {});
[[nodiscard]] Experiment minimum(std::span<const Experiment* const> operands,
                                 const IntegrationResult& integration,
                                 const OperatorOptions& options = {});
[[nodiscard]] Experiment maximum(std::span<const Experiment* const> operands,
                                 const IntegrationResult& integration,
                                 const OperatorOptions& options = {});

/// Element-wise minimum / maximum over the integrated domain.  Not in the
/// paper's operator list ("others may follow in the future"); provided as
/// the natural reduction for min-of-series measurements like the paper's
/// speedup methodology.  Absent tuples count as zero, consistent with the
/// zero-extension rule.
[[nodiscard]] Experiment minimum(std::span<const Experiment* const> operands,
                                 const OperatorOptions& options = {});
[[nodiscard]] Experiment maximum(std::span<const Experiment* const> operands,
                                 const OperatorOptions& options = {});

}  // namespace cube
