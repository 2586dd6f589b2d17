// Ablation A1: operator cost versus experiment size.
//
// Sweeps the severity volume (metrics x call paths x threads) and measures
// difference, merge, and mean.  Operands share all metadata (the common
// case when comparing runs of the same binary), so the cost isolates
// severity extension + the element-wise pass.
#include <benchmark/benchmark.h>

#include "algebra/operators.hpp"
#include "bench_util.hpp"
#include "oracle/reference_ops.hpp"

namespace {

using cube::bench::Shape;
using cube::bench::make_experiment;

Shape shape_for(int64_t scale) {
  Shape s;
  s.metrics = 8;
  s.cnodes = static_cast<std::size_t>(scale);
  s.threads = 16;
  return s;
}

void BM_Difference(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  const cube::Experiment a = make_experiment(s);
  s.seed = 2;
  const cube::Experiment b = make_experiment(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::difference(a, b));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0) * 8 * 16);
}
BENCHMARK(BM_Difference)->Arg(64)->Arg(256)->Arg(1024);

void BM_Merge(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  const cube::Experiment a = make_experiment(s);
  s.seed = 2;
  s.prefix = "n";  // disjoint metrics: the merge operator's use case
  const cube::Experiment b = make_experiment(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::merge(a, b));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0) * 8 * 16);
}
BENCHMARK(BM_Merge)->Arg(64)->Arg(256)->Arg(1024);

void BM_Mean(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  std::vector<cube::Experiment> operands;
  for (std::uint64_t i = 0; i < 4; ++i) {
    s.seed = i + 1;
    operands.push_back(make_experiment(s));
  }
  std::vector<const cube::Experiment*> ptrs;
  for (const auto& e : operands) ptrs.push_back(&e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cube::mean(std::span<const cube::Experiment* const>(ptrs)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 8 * 16 * 4);
}
BENCHMARK(BM_Mean)->Arg(64)->Arg(256)->Arg(1024);

void BM_DifferenceSparseResult(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  s.fill = 0.05;
  const cube::Experiment a = make_experiment(s);
  s.seed = 2;
  const cube::Experiment b = make_experiment(s);
  cube::OperatorOptions opts;
  opts.storage = cube::StorageKind::Sparse;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::difference(a, b, opts));
  }
}
BENCHMARK(BM_DifferenceSparseResult)->Arg(256)->Arg(1024);

// --- Ablation A10: severity kernels vs the per-cell oracle ----------------

/// Sparse operands + sparse result at a fill rate given in permille
/// (1000 = fully dense occupancy down to 1 = 0.1 %).  The kernels scatter
/// sparse operands in O(nnz); the per-cell oracle (tests/oracle) walks
/// every cell through the virtual get/set interface regardless of
/// occupancy.  The plane is
/// sized like a large parallel machine (1M cells) — the regime sparse
/// storage exists for.
std::pair<cube::Experiment, cube::Experiment> sparse_pair(
    int64_t fill_permille) {
  Shape s = shape_for(512);
  s.threads = 256;
  s.fill = static_cast<double>(fill_permille) / 1000.0;
  s.storage = cube::StorageKind::Sparse;
  cube::Experiment a = make_experiment(s);
  s.seed = 2;
  cube::Experiment b = make_experiment(s);
  return {std::move(a), std::move(b)};
}

void BM_DifferenceSparseFill(benchmark::State& state) {
  const auto [a, b] = sparse_pair(state.range(0));
  cube::OperatorOptions opts;
  opts.storage = cube::StorageKind::Sparse;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::difference(a, b, opts));
  }
  state.counters["nnz"] = static_cast<double>(
      a.severity().nonzero_count() + b.severity().nonzero_count());
}
BENCHMARK(BM_DifferenceSparseFill)->Arg(1000)->Arg(100)->Arg(10)->Arg(1);

void BM_DifferenceSparseFillReference(benchmark::State& state) {
  const auto [a, b] = sparse_pair(state.range(0));
  cube::OperatorOptions opts;
  opts.storage = cube::StorageKind::Sparse;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::oracle::difference(a, b, opts));
  }
}
BENCHMARK(BM_DifferenceSparseFillReference)
    ->Arg(1000)
    ->Arg(100)
    ->Arg(10)
    ->Arg(1);

/// Identical-metadata dense operands: integration yields identity
/// mappings, so the kernels borrow contiguous rows into the vectorized
/// fold instead of the per-cell scatter (bulk = 0 runs the oracle).
void BM_DifferenceIdentityDense(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  const cube::Experiment a = make_experiment(s);
  s.seed = 2;
  const cube::Experiment b = make_experiment(s);
  const bool bulk = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bulk ? cube::difference(a, b)
                                  : cube::oracle::difference(a, b));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0) * 8 * 16);
}
BENCHMARK(BM_DifferenceIdentityDense)
    ->ArgNames({"cnodes", "bulk"})
    ->Args({1024, 1})
    ->Args({1024, 0});

// mode: 0 = per-cell oracle, 2 = batched SoA scalar,
//       3 = batched SoA + SIMD (docs/KERNELS.md).
void BM_MeanIdentityDense(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  std::vector<cube::Experiment> operands;
  for (std::uint64_t i = 0; i < 4; ++i) {
    s.seed = i + 1;
    operands.push_back(make_experiment(s));
  }
  std::vector<const cube::Experiment*> ptrs;
  for (const auto& e : operands) ptrs.push_back(&e);
  const std::span<const cube::Experiment* const> span(ptrs);
  cube::OperatorOptions opts;
  const std::int64_t mode = state.range(1);
  opts.simd_policy = mode >= 3 ? cube::simd::Policy::Auto
                               : cube::simd::Policy::ForceScalar;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mode == 0 ? cube::oracle::mean(span)
                                       : cube::mean(span, opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 8 * 16 * 4);
}
BENCHMARK(BM_MeanIdentityDense)
    ->ArgNames({"cnodes", "mode"})
    ->Args({1024, 3})
    ->Args({1024, 2})
    ->Args({1024, 0});

// --- Ablation A11: shared-metadata fast path vs structural merge ----------

/// Digest-equal operands (repeated runs of one binary).  With sharing on
/// (the default) integration compares one u64 per operand and reuses the
/// first operand's instance; forced off, it re-merges all three forests
/// per call.  The severity pass is identical in both, so the delta IS the
/// integration cost the digest removes.
void BM_DifferenceMetadataPath(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  const cube::Experiment a = make_experiment(s);
  s.seed = 2;
  const cube::Experiment b = make_experiment(s);
  cube::OperatorOptions opts;
  opts.integration.reuse_identical_metadata = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::difference(a, b, opts));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0) * 8 * 16);
}
BENCHMARK(BM_DifferenceMetadataPath)
    ->ArgNames({"cnodes", "shared"})
    ->Args({256, 1})
    ->Args({256, 0})
    ->Args({1024, 1})
    ->Args({1024, 0});

void BM_MeanMetadataPath(benchmark::State& state) {
  Shape s = shape_for(state.range(0));
  std::vector<cube::Experiment> operands;
  for (std::uint64_t i = 0; i < 8; ++i) {
    s.seed = i + 1;
    operands.push_back(make_experiment(s));
  }
  std::vector<const cube::Experiment*> ptrs;
  for (const auto& e : operands) ptrs.push_back(&e);
  cube::OperatorOptions opts;
  opts.integration.reuse_identical_metadata = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cube::mean(std::span<const cube::Experiment* const>(ptrs), opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 8 * 16 * 8);
}
BENCHMARK(BM_MeanMetadataPath)
    ->ArgNames({"cnodes", "shared"})
    ->Args({256, 1})
    ->Args({256, 0})
    ->Args({1024, 1})
    ->Args({1024, 0});

}  // namespace

BENCHMARK_MAIN();
