#include "algebra/batch.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube::batch {

std::size_t num_cell_chunks(std::size_t cells) {
  return std::max<std::size_t>(1, std::min(cells, kMaxCellChunks));
}

OutShape shape_of(const Metadata& md) {
  OutShape os;
  os.metrics = md.num_metrics();
  os.cnodes = md.num_cnodes();
  os.threads = md.num_threads();
  os.plane = os.cnodes * os.threads;
  os.cells = os.metrics * os.plane;
  return os;
}

namespace {

bool injective(const std::vector<std::size_t>& map, std::size_t out_size) {
  std::vector<char> seen(out_size, 0);
  for (const std::size_t v : map) {
    if (v == kNoIndex) continue;
    if (v >= out_size || seen[v] != 0) return false;
    seen[v] = 1;
  }
  return true;
}

}  // namespace

bool coalesces(const OperandMapping& m, const OutShape& os) {
  return (!m.metric_identity && !injective(m.metric_map, os.metrics)) ||
         (!m.cnode_identity && !injective(m.cnode_map, os.cnodes)) ||
         (!m.thread_identity && !injective(m.thread_map, os.threads));
}

namespace {

using SparseSnapshot = std::vector<std::pair<std::uint64_t, Severity>>;

/// The kernel counters of OperatorOptions::metrics, resolved ONCE per
/// operator application (registration takes the registry mutex; updates
/// are relaxed atomics).  All-null when no registry was supplied.
struct KernelCounters {
  obs::Counter* identity_dense_cells = nullptr;
  obs::Counter* remap_dense_cells = nullptr;
  obs::Counter* identity_sparse_nnz = nullptr;
  obs::Counter* remap_sparse_nnz = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* batch_tiles = nullptr;

  explicit KernelCounters(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    identity_dense_cells =
        &registry->counter(kernel_counters::kIdentityDenseCells);
    remap_dense_cells = &registry->counter(kernel_counters::kRemapDenseCells);
    identity_sparse_nnz =
        &registry->counter(kernel_counters::kIdentitySparseNnz);
    remap_sparse_nnz = &registry->counter(kernel_counters::kRemapSparseNnz);
    chunks = &registry->counter(kernel_counters::kChunks);
    batch_tiles = &registry->counter(kernel_counters::kBatchTiles);
  }
};

/// Per-chunk kernel counters, flushed once into the shared registry.
struct LocalKernelStats {
  std::uint64_t identity_dense_cells = 0;
  std::uint64_t remap_dense_cells = 0;
  std::uint64_t identity_sparse_nnz = 0;
  std::uint64_t remap_sparse_nnz = 0;
  std::uint64_t batch_tiles = 0;

  void flush(const KernelCounters& kc) const {
    if (kc.identity_dense_cells == nullptr) return;
    const std::pair<obs::Counter*, std::uint64_t> counts[] = {
        {kc.identity_dense_cells, identity_dense_cells},
        {kc.remap_dense_cells, remap_dense_cells},
        {kc.identity_sparse_nnz, identity_sparse_nnz},
        {kc.remap_sparse_nnz, remap_sparse_nnz},
        {kc.batch_tiles, batch_tiles}};
    for (const auto& [counter, n] : counts) {
      if (n != 0) counter->add(n);
    }
  }
};

/// Runs body(chunk, cell_lo, cell_hi) over the fixed partition of
/// [0, cells) into num_cell_chunks(cells) contiguous ranges.
void run_cell_chunked(
    const OperatorOptions& options, const KernelCounters& kc, std::size_t cells,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunks = num_cell_chunks(cells);
  if (kc.chunks != nullptr) kc.chunks->add(chunks);
  const auto run = [&](std::size_t k) {
    const std::size_t lo = k * cells / chunks;
    const std::size_t hi = (k + 1) * cells / chunks;
    if (lo < hi) {
      OBS_SPAN("severity.chunk");
      body(k, lo, hi);
    }
  };
  if (options.parallel_for && chunks > 1) {
    options.parallel_for(chunks, run);
  } else {
    for (std::size_t k = 0; k < chunks; ++k) run(k);
  }
}

/// Writes the non-zero entries of per-chunk staging buffers into a sparse
/// result, in chunk order.  Chunks cover disjoint cell ranges, so the
/// stored values are independent of execution order by construction.
void merge_staged(Experiment& out, const std::vector<SparseSnapshot>& staged) {
  auto& sparse = static_cast<SparseSeverity&>(out.severity());
  for (const SparseSnapshot& chunk : staged) sparse.set_cells(chunk);
}

/// Releases the file-backed pages of every identity-mapped operand for
/// the consumed result cell range [lo, hi) — the streaming hook behind
/// OperatorOptions::release_operand_pages.  Identity mappings make source
/// and result cell indices coincide, so the range translates directly;
/// remapped or owned operands are skipped.
void release_consumed(std::span<const Experiment* const> sources,
                      std::span<const OperandMapping> mappings,
                      std::size_t lo, std::size_t hi) {
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (!mappings[i].identity()) continue;
    const SeverityStore& sev = sources[i]->severity();
    if (sev.file_backed()) sev.release_cells(lo, hi);
  }
}

/// One operand prepared for the sweep.  Exactly one of `borrow`
/// (identity x dense: tiles alias the store's cells directly), `rows`
/// (remapped dense rows sorted by result base), or `snapshot` (sparse
/// non-zeros with RESULT-space keys, ascending) is populated.
struct BatchOperand {
  const Severity* borrow = nullptr;

  struct Row {
    std::size_t out_base = 0;      ///< result cell of the row's thread 0
    const Severity* src = nullptr;  ///< source row of src_threads cells
  };
  std::vector<Row> rows;
  const std::vector<ThreadIndex>* thread_map = nullptr;
  std::size_t src_threads = 0;

  SparseSnapshot snapshot;
  bool sparse = false;
  bool identity = false;  ///< counter classification for sparse operands
  /// Applied as an ordered scatter onto the accumulator instead of being
  /// gathered into a tile row (linear combinations only).
  bool scatter = false;
};

/// Prepares every operand once per application.  Sparse stores at least
/// half full are densified — a snapshot costs 16 bytes/entry vs 8
/// bytes/cell for a mirror, and the sort would dominate the operator —
/// and take the dense paths, whose ascending cell order keeps results
/// bit-identical.  Sparse snapshots are remapped into result space HERE,
/// once, instead of per chunk; the stable re-sort keeps the contributions
/// of coalescing source cells in ascending source order.
std::vector<BatchOperand> prepare_batch(
    std::span<const Experiment* const> sources,
    std::span<const OperandMapping> mappings, const OutShape& os,
    bool linear, std::vector<std::vector<Severity>>& mirror_storage) {
  mirror_storage.resize(sources.size());
  std::vector<BatchOperand> prepared(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const SeverityStore& sev = sources[i]->severity();
    const OperandMapping& mapping = mappings[i];
    BatchOperand& op = prepared[i];

    const Severity* dense = nullptr;
    if (sev.kind() != StorageKind::Sparse) {
      dense = static_cast<const DenseSeverity&>(sev).cells().data();
    } else {
      const auto& sp = static_cast<const SparseSeverity&>(sev);
      if (2 * sp.nonzero_count() >= sp.num_cells()) {
        mirror_storage[i].assign(sp.num_cells(), 0.0);
        sp.scatter_into(mirror_storage[i]);
        dense = mirror_storage[i].data();
      }
    }

    if (dense != nullptr) {
      if (mapping.identity()) {
        op.borrow = dense;
        continue;
      }
      // Gathering a coalescing operand would sum its source cells before
      // the factor is applied; a linear combination must round once per
      // contribution instead.
      op.scatter = linear && coalesces(mapping, os);
      const std::size_t sm = sev.num_metrics();
      const std::size_t sc = sev.num_cnodes();
      op.src_threads = sev.num_threads();
      op.thread_map = &mapping.thread_map;
      op.rows.reserve(sm * sc);
      for (MetricIndex m = 0; m < sm; ++m) {
        const MetricIndex om = mapping.metric_map[m];
        if (om == kNoIndex) continue;
        for (CnodeIndex c = 0; c < sc; ++c) {
          op.rows.push_back(
              {(om * os.cnodes + mapping.cnode_map[c]) * os.threads,
               dense + (m * sc + c) * op.src_threads});
        }
      }
      std::stable_sort(op.rows.begin(), op.rows.end(),
                       [](const BatchOperand::Row& a,
                          const BatchOperand::Row& b) {
                         return a.out_base < b.out_base;
                       });
      continue;
    }

    const auto& sp = static_cast<const SparseSeverity&>(sev);
    op.sparse = true;
    op.scatter = linear;
    op.identity = mapping.identity();
    if (op.identity) {
      op.snapshot = sp.sorted_cells();
      continue;
    }
    const auto source_cells = sp.sorted_cells();
    const std::size_t st = sev.num_threads();
    const std::size_t splane = sev.num_cnodes() * st;
    op.snapshot.reserve(source_cells.size());
    for (const auto& [key, v] : source_cells) {
      const MetricIndex om = mapping.metric_map[key / splane];
      if (om == kNoIndex) continue;
      const std::size_t rest = key % splane;
      op.snapshot.emplace_back(
          (om * os.cnodes + mapping.cnode_map[rest / st]) * os.threads +
              mapping.thread_map[rest % st],
          v);
    }
    std::stable_sort(
        op.snapshot.begin(), op.snapshot.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  return prepared;
}

/// Visits one non-borrowed operand's non-zero contributions to the tile
/// [lo, hi) as emit(cell - lo, v), in ascending result cell and, per
/// cell, ascending source order; advances the operand's chunk cursor.
/// Cursors are monotone: rows are sorted by out_base and snapshots by
/// key, and tiles ascend, so every non-zero is located once per
/// application, not once per tile.
template <typename Emit>
void visit_tile(const BatchOperand& op, const OutShape& os, std::size_t lo,
                std::size_t hi, std::size_t& cursor, LocalKernelStats& ks,
                const Emit& emit) {
  if (op.sparse) {
    std::uint64_t applied = 0;
    while (cursor < op.snapshot.size() && op.snapshot[cursor].first < hi) {
      const auto& [key, v] = op.snapshot[cursor];
      if (key >= lo) {
        emit(key - lo, v);
        ++applied;
      }
      ++cursor;
    }
    (op.identity ? ks.identity_sparse_nnz : ks.remap_sparse_nnz) += applied;
    return;
  }
  // Dense remapped rows.  A row spans os.threads result cells and may
  // straddle tile boundaries, so the cursor only passes rows that ended
  // before this tile; rows crossing the upper boundary are clamped and
  // revisited by the next tile.
  while (cursor < op.rows.size() &&
         op.rows[cursor].out_base + os.threads <= lo) {
    ++cursor;
  }
  const std::vector<ThreadIndex>& tmap = *op.thread_map;
  for (std::size_t r = cursor; r < op.rows.size(); ++r) {
    const BatchOperand::Row& rw = op.rows[r];
    if (rw.out_base >= hi) break;
    if (lo <= rw.out_base && rw.out_base + os.threads <= hi) {
      for (ThreadIndex t = 0; t < op.src_threads; ++t) {
        const Severity v = rw.src[t];
        if (v != 0.0) emit(rw.out_base + tmap[t] - lo, v);
      }
    } else {
      for (ThreadIndex t = 0; t < op.src_threads; ++t) {
        const std::size_t cell = rw.out_base + tmap[t];
        if (cell < lo || cell >= hi) continue;
        const Severity v = rw.src[t];
        if (v != 0.0) emit(cell - lo, v);
      }
    }
    ks.remap_dense_cells += op.src_threads;
  }
}

/// The one sweep behind both reduce_batched overloads.  `linear` selects
/// the segmented sum: `reduce` ADDS its rows onto the accumulator, and
/// scatter operands are applied between its segments in operand order.
/// Otherwise `reduce` overwrites the accumulator with a fold over all N
/// rows.
void sweep(std::span<const Experiment* const> sources,
           std::span<const OperandMapping> mappings,
           std::span<const double> factors, Experiment& out,
           const OperatorOptions& options, bool linear,
           const TileReduce& reduce) {
  const OutShape os = shape_of(out.metadata());
  if (os.cells == 0 || sources.empty()) return;
  const KernelCounters kc(options.metrics);
  if (options.metrics != nullptr) {
    options.metrics->counter(kernel_counters::kApplications).add(1);
    options.metrics->counter(kernel_counters::kPathBatched).add(1);
    options.metrics->counter(kernel_counters::kBatchWidth)
        .add(sources.size());
  }

  std::vector<std::vector<Severity>> mirror_storage;
  const std::vector<BatchOperand> prepared =
      prepare_batch(sources, mappings, os, linear, mirror_storage);

  DenseSeverity* dense_out =
      out.severity().kind() == StorageKind::Dense
          ? &static_cast<DenseSeverity&>(out.severity())
          : nullptr;
  std::vector<SparseSnapshot> staged(
      dense_out != nullptr ? 0 : num_cell_chunks(os.cells));

  std::size_t num_gathered = 0;
  for (const BatchOperand& op : prepared) {
    if (op.borrow == nullptr && !op.scatter) ++num_gathered;
  }

  run_cell_chunked(
      options, kc, os.cells,
      [&](std::size_t k, std::size_t lo, std::size_t hi) {
        LocalKernelStats ks;
        // Chunk-local cursors, positioned once at the chunk's lower bound.
        std::vector<std::size_t> cursor(prepared.size(), 0);
        for (std::size_t i = 0; i < prepared.size(); ++i) {
          const BatchOperand& op = prepared[i];
          if (op.borrow != nullptr) continue;
          if (op.sparse) {
            cursor[i] = static_cast<std::size_t>(
                std::lower_bound(op.snapshot.begin(), op.snapshot.end(), lo,
                                 [](const auto& entry, std::uint64_t key) {
                                   return entry.first < key;
                                 }) -
                op.snapshot.begin());
          } else {
            cursor[i] = static_cast<std::size_t>(
                std::partition_point(op.rows.begin(), op.rows.end(),
                                     [&](const BatchOperand::Row& r) {
                                       return r.out_base + os.threads <= lo;
                                     }) -
                op.rows.begin());
          }
        }
        // Rows are zero-filled when gathered; no value-initialization.
        const std::size_t row_cells = std::min(kTileCells, hi - lo);
        const std::unique_ptr<Severity[]> staging(
            new Severity[num_gathered * row_cells]);
        std::vector<simd::TileRow> tile(prepared.size());
        std::vector<Severity> buf;
        if (dense_out == nullptr) buf.assign(hi - lo, 0.0);

        for (std::size_t tlo = lo; tlo < hi; tlo += kTileCells) {
          const std::size_t thi = std::min(hi, tlo + kTileCells);
          const std::size_t tn = thi - tlo;
          // Both result kinds start the tile at +0.0: a fresh dense store
          // is zero-filled, the sparse staging buffer likewise.
          Severity* acc = dense_out != nullptr
                              ? dense_out->cells_mut(tlo, thi).data()
                              : buf.data() + (tlo - lo);
          std::size_t nrows = 0;
          std::size_t slot = 0;
          for (std::size_t i = 0; i < prepared.size(); ++i) {
            const BatchOperand& op = prepared[i];
            if (op.scatter) {
              if (nrows > 0) reduce(acc, tile.data(), nrows, tn);
              nrows = 0;
              const double f = factors[i];
              visit_tile(op, os, tlo, thi, cursor[i], ks,
                         [acc, f](std::size_t at, Severity v) {
                           acc[at] += f * v;
                         });
              continue;
            }
            if (op.borrow != nullptr) {
              tile[nrows++] = {op.borrow + tlo, factors[i]};
              ks.identity_dense_cells += tn;
              continue;
            }
            Severity* row = staging.get() + slot * row_cells;
            ++slot;
            std::fill(row, row + tn, 0.0);
            visit_tile(op, os, tlo, thi, cursor[i], ks,
                       [row](std::size_t at, Severity v) { row[at] += v; });
            tile[nrows++] = {row, factors[i]};
          }
          if (nrows > 0) reduce(acc, tile.data(), nrows, tn);
          ++ks.batch_tiles;
        }

        if (dense_out == nullptr) {
          for (std::size_t i = 0; i < buf.size(); ++i) {
            if (buf[i] != 0.0) staged[k].emplace_back(lo + i, buf[i]);
          }
        }
        ks.flush(kc);
        if (options.release_operand_pages) {
          release_consumed(sources, mappings, lo, hi);
        }
      });
  if (dense_out == nullptr) merge_staged(out, staged);
}

}  // namespace

void reduce_batched(std::span<const Experiment* const> sources,
                    std::span<const OperandMapping> mappings,
                    std::span<const double> factors, Experiment& out,
                    const OperatorOptions& options) {
  const simd::Policy policy = options.simd_policy;
  sweep(sources, mappings, factors, out, options, /*linear=*/true,
        [policy](Severity* acc, const simd::TileRow* rows, std::size_t nrows,
                 std::size_t n) {
          simd::reduce_sum(acc, rows, nrows, n, policy);
        });
}

void reduce_batched(std::span<const Experiment* const> sources,
                    std::span<const OperandMapping> mappings, Experiment& out,
                    const OperatorOptions& options, const TileReduce& fold) {
  const std::vector<double> ones(sources.size(), 1.0);
  sweep(sources, mappings, ones, out, options, /*linear=*/false, fold);
}

Experiment apply_operator(const char* opname,
                          std::span<const Experiment* const> operands,
                          std::size_t min_operands,
                          const IntegrationResult* hoisted,
                          const OperatorOptions& options,
                          const SeverityPhase& severity) {
  if (operands.size() < min_operands) {
    throw OperationError(std::string(opname) + " requires >= " +
                         std::to_string(min_operands) +
                         (min_operands == 1 ? " operand" : " operands"));
  }
  IntegrationResult local;
  if (hoisted == nullptr) {
    OBS_SPAN("phase.integrate");
    local = integrate_metadata(operands, options.integration);
    hoisted = &local;
  } else if (hoisted->mappings.size() != operands.size()) {
    throw OperationError(std::string(opname) + ": integration result covers " +
                         std::to_string(hoisted->mappings.size()) +
                         " operands, called with " +
                         std::to_string(operands.size()));
  }
  Experiment out(hoisted->metadata, options.storage);
  {
    OBS_SPAN("phase.severity");
    severity(*hoisted, out);
  }
  std::string prov = std::string(opname) + "(";
  for (std::size_t i = 0; i < operands.size(); ++i) {
    if (i > 0) prov += ", ";
    const std::string name = operands[i]->name();
    prov += !name.empty() ? name : "exp" + std::to_string(i + 1);
  }
  prov += ")";
  out.mark_derived(prov);
  out.set_name(prov);
  return out;
}

}  // namespace cube::batch
