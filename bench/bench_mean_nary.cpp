// Ablation A6/A14: n-ary series reduction in a single batched sweep
// versus cascading binary operations.
//
// Because the operators are closed, a user could emulate an n-ary summary
// by cascading binary applications — but each application re-runs metadata
// integration and allocates a full derived experiment, so a 64-run series
// costs 63 traversals of the cell space.  The batched path (docs/KERNELS.md)
// integrates once and folds all operands per SoA tile in ONE sweep.
//
// The benchmarks sweep the batch width N in {2..64} over the operand
// classes (dense/sparse x identity/remap, plus a 1%-fill sparse-identity
// series), with a scalar-SIMD ablation, and time max over the
// sparse-identity series.  `--verify` runs a self-checking smoke for CI:
// it asserts the batched path actually fired on a 64-run dense series
// (one application, width 64, single chunked sweep), that the SIMD and
// scalar kernels agree bit-for-bit with the per-cell oracle, and that
// one n-ary sweep beats a cascade of 63 binary steps over the scalar
// kernels end-to-end — gated at 3x.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "algebra/batch.hpp"
#include "algebra/operators.hpp"
#include "algebra/simd.hpp"
#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "oracle/reference_ops.hpp"

namespace {

using cube::bench::Shape;
using cube::bench::make_experiment;

enum class Variant : std::int64_t {
  DenseIdentity = 0,
  DenseRemap = 1,
  SparseIdentity = 2,
  SparseRemap = 3,
  SparseIdentity1 = 4,  ///< sparse-identity at 1% fill
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::DenseIdentity: return "dense-identity";
    case Variant::DenseRemap: return "dense-remap";
    case Variant::SparseIdentity: return "sparse-identity";
    case Variant::SparseRemap: return "sparse-remap";
    case Variant::SparseIdentity1: return "sparse-identity-1%";
  }
  return "?";
}

std::vector<cube::Experiment> operands(std::int64_t n, Variant variant,
                                       std::size_t cnodes = 256) {
  std::vector<cube::Experiment> out;
  for (std::int64_t i = 0; i < n; ++i) {
    Shape s;
    s.cnodes = cnodes;
    s.seed = static_cast<std::uint64_t>(i) + 1;
    switch (variant) {
      case Variant::DenseIdentity:
        break;
      case Variant::DenseRemap:
        // Same prefix, shrinking call trees: later operands remap onto a
        // prefix of the integrated space (operand 0 stays the identity).
        s.cnodes = cnodes - 4 * (static_cast<std::size_t>(i) % 8);
        break;
      case Variant::SparseIdentity:
        s.storage = cube::StorageKind::Sparse;
        s.fill = 0.05;
        break;
      case Variant::SparseRemap:
        s.storage = cube::StorageKind::Sparse;
        s.fill = 0.05;
        s.cnodes = cnodes - 4 * (static_cast<std::size_t>(i) % 8);
        break;
      case Variant::SparseIdentity1:
        s.storage = cube::StorageKind::Sparse;
        s.fill = 0.01;
        break;
    }
    out.push_back(make_experiment(s));
  }
  return out;
}

std::vector<const cube::Experiment*> pointers(
    const std::vector<cube::Experiment>& ops) {
  std::vector<const cube::Experiment*> ptrs;
  for (const auto& e : ops) ptrs.push_back(&e);
  return ptrs;
}

/// mean() under the given simd policy.
cube::Experiment run_mean(const std::vector<const cube::Experiment*>& ptrs,
                          cube::simd::Policy policy,
                          cube::obs::MetricsRegistry* metrics = nullptr) {
  cube::OperatorOptions options;
  options.simd_policy = policy;
  options.metrics = metrics;
  return cube::mean(std::span<const cube::Experiment* const>(ptrs), options);
}

void BM_MeanSinglePass(benchmark::State& state) {
  const auto ops = operands(state.range(0), Variant(state.range(1)));
  const auto ptrs = pointers(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_mean(ptrs, cube::simd::Policy::Auto));
  }
  state.SetLabel(variant_name(Variant(state.range(1))));
}

void BM_MeanBatchScalar(benchmark::State& state) {
  const auto ops = operands(state.range(0), Variant(state.range(1)));
  const auto ptrs = pointers(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_mean(ptrs, cube::simd::Policy::ForceScalar));
  }
  state.SetLabel(variant_name(Variant(state.range(1))));
}

void BM_MaxSinglePass(benchmark::State& state) {
  const auto ops = operands(state.range(0), Variant(state.range(1)));
  const auto ptrs = pointers(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cube::maximum(std::span<const cube::Experiment* const>(ptrs)));
  }
  state.SetLabel(variant_name(Variant(state.range(1))));
}

void BM_MeanCascadedBinary(benchmark::State& state) {
  // Emulates the n-ary mean with closed binary steps: n-1 integrations
  // and intermediates versus one.  The weighting error is irrelevant for
  // a cost comparison.
  const auto ops = operands(state.range(0), Variant(state.range(1)));
  for (auto _ : state) {
    cube::Experiment acc = ops[0].clone();
    for (std::size_t i = 1; i < ops.size(); ++i) {
      const cube::Experiment* pair[] = {&acc, &ops[i]};
      acc = cube::mean(std::span<const cube::Experiment* const>(pair, 2));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetLabel(variant_name(Variant(state.range(1))));
}

void sweep(benchmark::internal::Benchmark* b) {
  for (const std::int64_t variant : {0, 1, 2, 3, 4}) {
    for (const std::int64_t n : {2, 4, 8, 16, 32, 64}) {
      b->Args({n, variant});
    }
  }
}

BENCHMARK(BM_MeanSinglePass)->Apply(sweep);
BENCHMARK(BM_MeanBatchScalar)->Apply(sweep);
BENCHMARK(BM_MaxSinglePass)
    ->Args({16, 2})
    ->Args({64, 2})
    ->Args({16, 4})
    ->Args({64, 4});
BENCHMARK(BM_MeanCascadedBinary)
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({32, 0})
    ->Args({64, 0})
    ->Args({16, 2})
    ->Args({64, 2});

bool bit_identical(const cube::Experiment& a, const cube::Experiment& b) {
  const cube::Metadata& md = a.metadata();
  if (b.metadata().num_metrics() != md.num_metrics() ||
      b.metadata().num_cnodes() != md.num_cnodes() ||
      b.metadata().num_threads() != md.num_threads()) {
    return false;
  }
  for (cube::MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (cube::CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (cube::ThreadIndex t = 0; t < md.num_threads(); ++t) {
        if (std::bit_cast<std::uint64_t>(a.severity().get(m, c, t)) !=
            std::bit_cast<std::uint64_t>(b.severity().get(m, c, t))) {
          return false;
        }
      }
    }
  }
  return true;
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CI smoke: the batched path must fire on a 64-run dense series, agree
/// with the oracle bit-for-bit in SIMD and scalar form, and beat a scalar
/// binary cascade end-to-end (3x floor).
int verify() {
  constexpr std::int64_t kRuns = 64;
  // Mid-size profiles (8 metrics x 512 call paths, 1 MB of severity per
  // run): the batched path streams all 64 operands once through
  // last-level cache, while the cascade runs 63 binary steps whose
  // scalar read-modify-write of a full intermediate experiment per step
  // thrashes L2.  Measured ~5x here (EXPERIMENTS.md A14); very large
  // series flatten toward ~3x on machines whose large L3 keeps the
  // cascade's intermediates cache-resident.
  constexpr std::size_t kVerifyCnodes = 512;
  std::printf("simd backend: %s\n",
              cube::simd::backend_name(cube::simd::active_backend()));
  const auto ops = operands(kRuns, Variant::DenseIdentity, kVerifyCnodes);
  const auto ptrs = pointers(ops);

  cube::obs::MetricsRegistry stats;
  cube::Experiment batched =
      run_mean(ptrs, cube::simd::Policy::Auto, &stats);
  const auto count = [&stats](const char* name) {
    return stats.counter(name).value();
  };
  const std::uint64_t applications =
      count(cube::kernel_counters::kApplications);
  const std::uint64_t width = count(cube::kernel_counters::kBatchWidth);
  const std::uint64_t chunks = count(cube::kernel_counters::kChunks);
  const std::uint64_t tiles = count(cube::kernel_counters::kBatchTiles);
  std::printf(
      "counters: applications=%llu batch_width=%llu chunks=%llu "
      "batch_tiles=%llu\n",
      static_cast<unsigned long long>(applications),
      static_cast<unsigned long long>(width),
      static_cast<unsigned long long>(chunks),
      static_cast<unsigned long long>(tiles));
  if (applications != 1 || width != kRuns ||
      chunks > cube::batch::kMaxCellChunks || tiles == 0) {
    std::printf("FAIL: batched path did not take a single chunked sweep\n");
    return 1;
  }

  const cube::Experiment want =
      cube::oracle::mean(std::span<const cube::Experiment* const>(ptrs));
  if (!bit_identical(batched, want) ||
      !bit_identical(run_mean(ptrs, cube::simd::Policy::ForceScalar),
                     want)) {
    std::printf("FAIL: kernels disagree with the oracle\n");
    return 1;
  }
  std::printf("bit-identity: oracle == batch-scalar == batch-simd\n");

  // End-to-end: one batched SIMD n-ary mean against emulating it with
  // the closed binary operator — 63 binary applications over the scalar
  // kernels, each one re-integrating metadata and allocating a full
  // intermediate experiment.  Warmed by the runs above; take the best of
  // 3 to damp scheduler noise.
  cube::OperatorOptions scalar;
  scalar.simd_policy = cube::simd::Policy::ForceScalar;
  double batched_s = 1e9, cascade_s = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    batched_s = std::min(batched_s, seconds_of([&] {
      benchmark::DoNotOptimize(run_mean(ptrs, cube::simd::Policy::Auto));
    }));
    cascade_s = std::min(cascade_s, seconds_of([&] {
      cube::Experiment acc = ops[0].clone();
      for (std::size_t i = 1; i < ops.size(); ++i) {
        const cube::Experiment* pair[] = {&acc, &ops[i]};
        acc = cube::mean(std::span<const cube::Experiment* const>(pair, 2),
                         scalar);
      }
      benchmark::DoNotOptimize(acc);
    }));
  }
  const double speedup = cascade_s / batched_s;
  std::printf("batched %.3f ms vs scalar binary cascade %.3f ms: %.1fx\n",
              batched_s * 1e3, cascade_s * 1e3, speedup);
  // Typically ~5x on an idle core (EXPERIMENTS.md A14); assert a 3x
  // floor so a noisy neighbour on a shared vCPU cannot flake CI.
  if (speedup < 3.0) {
    std::printf("FAIL: expected >= 3x over the scalar binary cascade\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) return verify();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
