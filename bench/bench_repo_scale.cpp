// bench_repo_scale: out-of-core repository scaling (EXPERIMENTS.md, A15).
//
// Three self-checking gates over the sharded repository layout
// (docs/STORAGE.md):
//
//   store   With N entries already indexed, the next store() must be
//           O(1) under the segmented index where the legacy monolithic
//           index.xml made it O(repo): the measured per-store cost
//           ratio legacy/sharded must be >= 10x at the full N (10k
//           entries), and the sharded per-store cost must stay flat
//           (< 4x) between a near-empty and a full repository.  Each
//           cost is the median of 5 timed windows of 50 stores.
//
//   stream  An n-ary mean over a columnar (CUBESEV1) series whose total
//           bytes exceed a resident-memory budget must complete with
//           peak RSS growth under that budget — the mmap-backed
//           operands stream through the batched kernels with consumed
//           pages released — and the result must be BIT-IDENTICAL to
//           the same reduction over fully-loaded in-memory stores.
//
//   query   diff(id(a), id(b)) over N tiny entries must stay within 2x of
//           its latency over 100 entries: planning resolves ids through
//           the index maps and the recorded digests, and the cache-key
//           lookup is one posting list, so a query's cost follows the
//           query, not the repository (N = 100k; 10k under --quick).
//
// Usage: bench_repo_scale [--quick] [--store-only|--stream-only]
//   --quick scales N and the series down for ctest; the full run
//   reproduces the A15 and A17 numbers.  The query gate runs when
//   neither --store-only nor --stream-only is given.  Exit code 0 iff
//   every gate holds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "algebra/operators.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "io/repository.hpp"
#include "io/severity_format.hpp"
#include "model/experiment.hpp"
#include "query/engine.hpp"

namespace {

using cube::Experiment;
using cube::ExperimentRepository;
using cube::OperatorOptions;
using cube::RepoFormat;
using cube::RepoLayout;
using cube::StorageKind;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size (VmHWM) in bytes, from /proc/self/status.
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS ("5" per proc(5)); returns false when
/// the kernel interface is unavailable (the stream gate is then skipped).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  return static_cast<bool>(clear.flush());
}

/// A tiny experiment: the store gate times the INDEX write, so the
/// experiment payload is kept as small as the model allows.  All tiny
/// experiments share one metadata digest — the content-addressed blob is
/// written once and each store() cost is file + index only.
Experiment make_tiny(std::size_t i) {
  cube::bench::Shape shape;
  shape.metrics = 2;
  shape.cnodes = 4;
  shape.threads = 2;
  shape.fill = 1.0;
  shape.seed = 7;
  Experiment e = cube::bench::make_experiment(shape);
  e.set_name("run-" + std::to_string(i));
  e.set_attribute("series", "scale");
  return e;
}

/// Populates a fresh repository of `layout` with `n` entries, then times
/// `windows` consecutive windows of `k` further stores and returns the
/// median window's per-store cost (ms) — the marginal store cost at
/// repository size ~n.  One window of a few hundred microseconds per
/// store is at the mercy of one file-system hiccup (a journal commit, a
/// directory split); the median of several is not.
double per_store_ms(const std::filesystem::path& dir, RepoLayout layout,
                    std::size_t n, std::size_t k, std::size_t windows) {
  std::filesystem::remove_all(dir);
  ExperimentRepository repo(dir, layout);
  std::size_t i = 0;
  for (; i < n; ++i) repo.store(make_tiny(i));
  std::vector<double> window_ms;
  for (std::size_t w = 0; w < windows; ++w) {
    const double t0 = now_ms();
    for (const std::size_t end = i + k; i < end; ++i) repo.store(make_tiny(i));
    window_ms.push_back((now_ms() - t0) / static_cast<double>(k));
  }
  std::filesystem::remove_all(dir);
  std::nth_element(window_ms.begin(), window_ms.begin() + windows / 2,
                   window_ms.end());
  return window_ms[windows / 2];
}

bool run_store_gate(const std::filesystem::path& base, bool quick) {
  // Quick mode still needs the legacy O(repo) cost far enough from the
  // sharded layout's fixed per-store floor that the 10x gate has margin:
  // at n=1500 the measured ratio hovers at ~9-11x and flakes.
  const std::size_t n = quick ? 3000 : 10000;
  const std::size_t k = 50;
  const std::size_t windows = 5;
  const std::size_t n0 = 100;

  const double sharded_small = per_store_ms(
      base / "sharded_small", RepoLayout::Sharded, n0, k, windows);
  const double sharded_full = per_store_ms(
      base / "sharded_full", RepoLayout::Sharded, n, k, windows);
  const double legacy_full = per_store_ms(
      base / "legacy_full", RepoLayout::Legacy, n, k, windows);

  const double ratio = legacy_full / sharded_full;
  const double growth = sharded_full / sharded_small;
  std::printf("store  n=%zu  legacy %.3f ms/store  sharded %.3f ms/store  "
              "ratio %.1fx  (sharded growth %zu->%zu: %.2fx)\n",
              n, legacy_full, sharded_full, ratio, n0, n, growth);

  bool ok = true;
  if (ratio < 10.0) {
    std::printf("FAIL store: legacy/sharded per-store ratio %.1fx < 10x\n",
                ratio);
    ok = false;
  }
  if (growth > 4.0) {
    std::printf("FAIL store: sharded per-store cost grew %.2fx from "
                "%zu to %zu entries (expected ~flat)\n",
                growth, n0, n);
    ok = false;
  }
  return ok;
}

bool run_stream_gate(const std::filesystem::path& base, bool quick) {
  // Series geometry: total columnar bytes must exceed the budget.
  const std::size_t width = quick ? 8 : 16;
  cube::bench::Shape shape;
  shape.metrics = 16;
  shape.cnodes = quick ? 1024 : 4096;
  shape.threads = 128;
  shape.fill = 1.0;
  shape.storage = StorageKind::Dense;
  const std::size_t cells = shape.metrics * shape.cnodes * shape.threads;
  const std::size_t total = width * cells * sizeof(double);
  const std::size_t budget = total / 2;

  const std::filesystem::path dir = base / "stream_repo";
  std::filesystem::remove_all(dir);
  std::vector<std::string> ids;
  {
    ExperimentRepository repo(dir);
    for (std::size_t i = 0; i < width; ++i) {
      cube::bench::Shape s = shape;
      s.seed = i + 1;
      Experiment e = cube::bench::make_experiment(s);
      e.set_name("series-" + std::to_string(i));
      ids.push_back(repo.store(e, RepoFormat::Columnar));
    }
  }  // everything built here is freed before the measurement

  ExperimentRepository repo(dir);
  std::vector<Experiment> mapped;
  mapped.reserve(ids.size());
  for (const std::string& id : ids) {
    mapped.push_back(repo.load(id));  // mmap-backed CUBESEV1 view
  }
  std::vector<const Experiment*> ptrs;
  for (const Experiment& e : mapped) ptrs.push_back(&e);
  for (const Experiment* e : ptrs) {
    if (!e->severity().file_backed()) {
      std::printf("FAIL stream: columnar load is not file-backed\n");
      return false;
    }
  }

  if (!reset_peak_rss()) {
    std::printf("skip stream: /proc/self/clear_refs unavailable\n");
    return true;
  }
  const std::size_t rss_before = peak_rss_bytes();
  OperatorOptions streaming;
  streaming.release_operand_pages = true;
  const double t0 = now_ms();
  const Experiment result = mean(ptrs, streaming);
  const double t1 = now_ms();
  const std::size_t rss_after = peak_rss_bytes();
  const std::size_t growth = rss_after - rss_before;

  std::printf("stream n=%zu runs x %zu cells (%.0f MiB total, budget "
              "%.0f MiB)  mean %.0f ms  peak-RSS growth %.0f MiB\n",
              width, cells, total / 1048576.0, budget / 1048576.0, t1 - t0,
              growth / 1048576.0);

  bool ok = true;
  if (growth >= budget) {
    std::printf("FAIL stream: peak RSS growth %.0f MiB >= budget "
                "%.0f MiB\n",
                growth / 1048576.0, budget / 1048576.0);
    ok = false;
  }

  // Bit-identity against the fully-resident reduction: clone every
  // mapped store into an owned one and reduce again.
  std::vector<Experiment> owned;
  owned.reserve(mapped.size());
  for (const Experiment& e : mapped) {
    owned.emplace_back(e.metadata_ptr(), e.severity().clone());
  }
  std::vector<const Experiment*> owned_ptrs;
  for (const Experiment& e : owned) owned_ptrs.push_back(&e);
  const Experiment reference = mean(owned_ptrs, OperatorOptions{});
  if (to_cube_sev(result.severity()) != to_cube_sev(reference.severity())) {
    std::printf("FAIL stream: streamed mean differs from the in-memory "
                "reduction\n");
    ok = false;
  }

  mapped.clear();
  owned.clear();
  std::filesystem::remove_all(dir);
  return ok;
}

/// Median wall time (ms) of diff(id(a), id(b)) over random pairs of a
/// fresh repository holding `n` tiny entries.  Sequential engine, cache
/// lookups on, nothing stored back, so every sample plans, looks up the
/// root's key, loads two operands, and computes.
double diff_latency_ms(const std::filesystem::path& dir, std::size_t n) {
  std::filesystem::remove_all(dir);
  ExperimentRepository repo(dir);
  for (std::size_t i = 0; i < n; ++i) repo.store(make_tiny(i));
  cube::query::QueryOptions options;
  options.threads = 1;
  options.store_derived = false;
  cube::query::QueryEngine engine(repo, options);
  cube::SplitMix64 rng(0x9e3779b9u + n);
  const auto one = [&] {
    const std::string a = "run-" + std::to_string(rng.below(n));
    const std::string b = "run-" + std::to_string(rng.below(n));
    const double t0 = now_ms();
    (void)engine.run("diff(id(" + a + "), id(" + b + "))");
    return now_ms() - t0;
  };
  for (int i = 0; i < 50; ++i) (void)one();  // warm caches and the pool
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) samples.push_back(one());
  std::filesystem::remove_all(dir);
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

bool run_query_gate(const std::filesystem::path& base, bool quick) {
  const std::size_t n0 = 100;
  const std::size_t n = quick ? 10000 : 100000;
  const double small = diff_latency_ms(base / "query_small", n0);
  const double full = diff_latency_ms(base / "query_full", n);
  const double growth = full / small;
  std::printf("query  diff(id,id) median  n=%zu %.3f ms  n=%zu %.3f ms  "
              "(growth %.2fx)\n",
              n0, small, n, full, growth);
  if (growth > 2.0) {
    std::printf("FAIL query: diff(id,id) latency grew %.2fx from %zu to "
                "%zu entries (gate 2x)\n",
                growth, n0, n);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool store_only = false;
  bool stream_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    else if (std::strcmp(argv[i], "--store-only") == 0) store_only = true;
    else if (std::strcmp(argv[i], "--stream-only") == 0) stream_only = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_repo_scale [--quick] "
                   "[--store-only|--stream-only]\n");
      return 2;
    }
  }
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "cube_bench_repo_scale";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);

  bool ok = true;
  if (!stream_only) ok = run_store_gate(base, quick) && ok;
  if (!store_only) ok = run_stream_gate(base, quick) && ok;
  if (!store_only && !stream_only) ok = run_query_gate(base, quick) && ok;
  std::filesystem::remove_all(base);
  std::printf("%s\n", ok ? "ALL GATES PASSED" : "GATE FAILURE");
  return ok ? 0 : 1;
}
