// Static plan analyzer (query/analyze.hpp): golden accuracy tests pinning
// the cost model against the executor's measured counters, and one
// error-path test per plan.*/cost.* diagnostic.
//
// Every analyze_plan call in this file runs inside expect_no_severity_io,
// which asserts the analyzer's core contract: predictions come from
// metadata blobs and severity-blob HEADERS alone — the io.sev.bytes_read
// counter must not advance.
#include "query/analyze.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "lint/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "query/engine.hpp"
#include "testutil.hpp"

namespace cube::query {
namespace {

using cube::testing::make_small;
using cube::testing::make_variant;
using lint::DiagnosticSink;
using lint::Level;

std::uint64_t sev_bytes_read() {
  return obs::MetricsRegistry::global()
      .counter("io.sev.bytes_read", obs::SampleUnit::Bytes)
      .value();
}

/// One algebra.kernel.* counter of a run, read from its metrics snapshot.
std::uint64_t kernel(const QueryResult& result, const char* name) {
  return obs::counter_value(result.metrics, name);
}

/// Sum of the four severity-kernel cell counters of one run — the
/// measured counterpart of CostEstimate::cells_traversed.
std::uint64_t measured_cells(const QueryResult& result) {
  return kernel(result, kernel_counters::kIdentityDenseCells) +
         kernel(result, kernel_counters::kRemapDenseCells) +
         kernel(result, kernel_counters::kIdentitySparseNnz) +
         kernel(result, kernel_counters::kRemapSparseNnz);
}

bool has_rule(const DiagnosticSink& sink, const std::string& rule) {
  for (const auto& d : sink.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

std::size_t count_rule(const DiagnosticSink& sink, const std::string& rule) {
  std::size_t n = 0;
  for (const auto& d : sink.diagnostics()) {
    if (d.rule == rule) ++n;
  }
  return n;
}

const lint::Diagnostic& find_diag(const DiagnosticSink& sink,
                                  const std::string& rule) {
  for (const auto& d : sink.diagnostics()) {
    if (d.rule == rule) return d;
  }
  ADD_FAILURE() << "no diagnostic with rule " << rule;
  static const lint::Diagnostic none{};
  return none;
}

using cube::testing::make_unit_clash;

/// A genuinely sparse operand over make_small's metadata: only `fill` of
/// the 48 cells are set, staying below operand preparation's densify
/// threshold (2*nnz >= cells) so the sparse kernels actually run.
Experiment make_sparse_small(const std::string& name, std::size_t fill = 5) {
  Experiment e(cube::testing::small_metadata(), StorageKind::Sparse);
  e.set_name(name);
  for (std::size_t i = 0; i < fill; ++i) {
    const std::size_t cell = i * 11 % 48;  // gcd(11, 48) = 1: distinct cells
    e.severity().set(static_cast<MetricIndex>(cell / 16),
                     static_cast<CnodeIndex>(cell / 4 % 4),
                     static_cast<ThreadIndex>(cell % 4),
                     1.0 + static_cast<double>(i));
  }
  return e;
}

/// Sparse sibling over variant_metadata (72 cells), `fill` cells set.
Experiment make_sparse_variant(const std::string& name,
                               std::size_t fill = 7) {
  Experiment e(cube::testing::variant_metadata(), StorageKind::Sparse);
  e.set_name(name);
  for (std::size_t i = 0; i < fill; ++i) {
    const std::size_t cell = i * 13 % 72;  // gcd(13, 72) = 1
    e.severity().set(static_cast<MetricIndex>(cell / 24),
                     static_cast<CnodeIndex>(cell / 6 % 4),
                     static_cast<ThreadIndex>(cell % 6),
                     2.0 + static_cast<double>(i));
  }
  return e;
}

/// small_metadata's shape with main calling io from two call sites:
/// integration folds the sibling io cnodes into one, so the operand's
/// cnode mapping coalesces source cells (5 cnodes -> 4).  Every cell is
/// filled, shifted by `salt`.
Experiment make_duplicate_callee(const std::string& name, double salt) {
  auto md = std::make_unique<Metadata>();
  const Metric& time =
      md->add_metric(nullptr, "time", "Time", Unit::Seconds, "total");
  md->add_metric(&time, "mpi", "MPI", Unit::Seconds, "mpi time");
  md->add_metric(nullptr, "visits", "Visits", Unit::Occurrences, "visits");
  const Region& r_main = md->add_region("main", "app.c", 1, 100);
  const Region& r_work = md->add_region("work", "app.c", 10, 50);
  const Region& r_send = md->add_region("MPI_Send", "mpi", -1, -1);
  const Region& r_io = md->add_region("io", "app.c", 60, 80);
  const Cnode& c_main = md->add_cnode_for_region(nullptr, r_main, "app.c", 1);
  const Cnode& c_work = md->add_cnode_for_region(&c_main, r_work, "app.c", 12);
  md->add_cnode_for_region(&c_work, r_send, "app.c", 30);
  md->add_cnode_for_region(&c_main, r_io, "app.c", 62);
  md->add_cnode_for_region(&c_main, r_io, "app.c", 70);
  Machine& machine = md->add_machine("m0");
  SysNode& node = md->add_node(machine, "n0");
  for (long rank = 0; rank < 2; ++rank) {
    Process& p = md->add_process(node, "rank " + std::to_string(rank), rank);
    md->add_thread(p, "thread 0", 0);
    md->add_thread(p, "thread 1", 1);
  }
  Experiment e(std::move(md), StorageKind::Dense);
  e.set_name(name);
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        e.severity().set(mi, ci, ti, salt + 0.1 * (mi + 1) + 0.01 * (ci + 1) +
                                         0.001 * (ti + 1));
      }
    }
  }
  return e;
}

class PlanAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_analyze_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    std::filesystem::remove_all(dir_);
    repo_ = std::make_unique<ExperimentRepository>(dir_);
  }
  void TearDown() override {
    repo_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string store_salted(const std::string& name, double salt,
                           const std::map<std::string, std::string>& attrs =
                               {}) {
    Experiment e = make_small(StorageKind::Dense, name);
    for (MetricIndex m = 0; m < e.metadata().num_metrics(); ++m) {
      for (CnodeIndex c = 0; c < e.metadata().num_cnodes(); ++c) {
        for (ThreadIndex t = 0; t < e.metadata().num_threads(); ++t) {
          e.severity().add(m, c, t, salt * (1.0 + 0.1 * (m + c + t)));
        }
      }
    }
    for (const auto& [k, v] : attrs) e.set_attribute(k, v);
    return repo_->store(e);
  }

  QueryPlan make_plan(const std::string& text) {
    return plan_query(*parse_query(text), *repo_, {});
  }

  /// analyze_plan wrapped in the zero-severity-bytes assertion.
  PlanAnalysis analyze(const QueryPlan& plan, DiagnosticSink& sink,
                       AnalyzeOptions options = {},
                       const ExperimentRepository* repo = nullptr) {
    const std::uint64_t before = sev_bytes_read();
    PlanAnalysis a =
        analyze_plan(plan, repo ? *repo : *repo_, sink, options);
    EXPECT_EQ(sev_bytes_read(), before)
        << "the analyzer read severity payload";
    return a;
  }

  std::filesystem::path dir_;
  std::unique_ptr<ExperimentRepository> repo_;
};

// ---------------------------------------------------------------------------
// Golden accuracy: predicted vs measured.

TEST_F(PlanAnalyzeTest, IdentityDensePredictionsAreExact) {
  store_salted("a1", 0.125, {{"run", "before"}});
  store_salted("a2", 0.25, {{"run", "before"}});
  store_salted("a3", 0.375, {{"run", "before"}});

  const QueryPlan plan = make_plan("mean(attr(run=before))");
  DiagnosticSink sink;
  AnalyzeOptions options;
  options.use_cache = false;
  const PlanAnalysis analysis = analyze(plan, sink, options);

  EXPECT_TRUE(analysis.compatible);
  EXPECT_TRUE(analysis.exact) << "identical metadata must predict exactly";

  // Geometry: make_small is 3 metrics x 4 cnodes x 4 threads = 48 cells,
  // and the mean of three identical-metadata runs keeps that shape.
  const NodeCost& root = analysis.nodes[plan.root];
  ASSERT_TRUE(root.geometry_known);
  EXPECT_EQ(root.metrics, 3u);
  EXPECT_EQ(root.cnodes, 4u);
  EXPECT_EQ(root.threads, 4u);
  EXPECT_EQ(root.cells, 48u);
  EXPECT_EQ(root.result_bytes, 48u * sizeof(Severity));
  EXPECT_EQ(analysis.cold.cells_traversed, 3u * 48u);
  EXPECT_EQ(analysis.cold.intermediate_bytes, root.result_bytes);
  EXPECT_EQ(analysis.cold.peak_resident_bytes, 4u * root.result_bytes);

  // Measured: the executor's counters must match the exact prediction.
  QueryOptions run_options;
  run_options.threads = 1;
  run_options.use_cache = false;
  run_options.store_derived = false;
  QueryEngine engine(*repo_, run_options);
  const QueryResult result = engine.run("mean(attr(run=before))");
  EXPECT_EQ(analysis.cold.nodes_executed, result.stats.nodes_executed);
  EXPECT_EQ(analysis.cold.operands_loaded, result.stats.operands_loaded);
  EXPECT_EQ(analysis.cold.nodes_evaluated, result.stats.nodes_evaluated);
  EXPECT_EQ(analysis.cold.bytes_loaded, result.stats.bytes_loaded);
  EXPECT_EQ(analysis.cold.cells_traversed, measured_cells(result));
  EXPECT_EQ(kernel(result, kernel_counters::kIdentityDenseCells),
            analysis.cold.cells_traversed)
      << "identical metadata must take the identity kernel";
  EXPECT_EQ(kernel(result, kernel_counters::kRemapDenseCells), 0u);
}

TEST_F(PlanAnalyzeTest, RemapPredictionsReplicateTheKernelGrid) {
  repo_->store(make_small(StorageKind::Dense, "small"));
  repo_->store(make_variant(StorageKind::Dense, "variant"));

  const QueryPlan plan = make_plan("mean(small, variant)");
  DiagnosticSink sink;
  AnalyzeOptions options;
  options.use_cache = false;
  const PlanAnalysis analysis = analyze(plan, sink, options);

  EXPECT_TRUE(analysis.compatible);
  EXPECT_TRUE(analysis.exact)
      << "remapped dense operands are predictable exactly from the "
         "deterministic chunk/tile grid";

  // Merged geometry: metrics {time, mpi, visits, flops}, cnodes
  // {main, work, MPI_Send, io, net}, threads 3 ranks x 2 = 6.
  const NodeCost& root = analysis.nodes[plan.root];
  ASSERT_TRUE(root.geometry_known);
  EXPECT_EQ(root.metrics, 4u);
  EXPECT_EQ(root.cnodes, 5u);
  EXPECT_EQ(root.threads, 6u);
  EXPECT_EQ(root.cells, 120u);

  // Traversal: the scatter kernels re-count each 6-cell output row once
  // per chunk (and tile) of the fixed 32-chunk grid over the 120-cell
  // result it straddles, so the exact count exceeds the naive sum of the
  // operands' own cells (48 + 72).  Worked by hand: 108 + 162.
  EXPECT_GT(analysis.cold.cells_traversed, 48u + 72u);
  EXPECT_EQ(analysis.cold.cells_traversed, 108u + 162u);

  QueryOptions run_options;
  run_options.threads = 1;
  run_options.use_cache = false;
  run_options.store_derived = false;
  QueryEngine engine(*repo_, run_options);
  const QueryResult result = engine.run("mean(small, variant)");
  EXPECT_EQ(measured_cells(result), analysis.cold.cells_traversed);
  EXPECT_EQ(kernel(result, kernel_counters::kRemapDenseCells),
            analysis.cold.cells_traversed)
      << "differing metadata must take the remap kernel";
  EXPECT_EQ(analysis.cold.bytes_loaded, result.stats.bytes_loaded);

  // Differing (rank, thread id) sets are worth a note, not an error.
  EXPECT_TRUE(has_rule(sink, "plan.thread-shape"));
  EXPECT_FALSE(sink.reached(Level::Warning));
}

TEST_F(PlanAnalyzeTest, SparseColumnarPredictionsComeFromBlobHeaders) {
  Experiment s1 = make_sparse_small("s1");
  Experiment s2 = make_sparse_small("s2", 7);
  repo_->store(s1, RepoFormat::Columnar);
  repo_->store(s2, RepoFormat::Columnar);

  const QueryPlan plan = make_plan("diff(s1, s2)");
  DiagnosticSink sink;
  AnalyzeOptions options;
  options.use_cache = false;
  const PlanAnalysis analysis = analyze(plan, sink, options);

  EXPECT_TRUE(analysis.compatible);
  EXPECT_TRUE(analysis.exact);

  // Each operand's storage kind and nnz come from its CUBESEV1 header;
  // below the densify threshold they stay sparse, so the kernels visit
  // exactly the stored non-zeros (5 + 7).
  std::uint64_t predicted_nnz = 0;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].kind != PlanNode::Kind::Load) continue;
    EXPECT_EQ(analysis.nodes[i].storage, StorageKind::Sparse);
    EXPECT_TRUE(analysis.nodes[i].nnz == 5u || analysis.nodes[i].nnz == 7u)
        << analysis.nodes[i].nnz;
    predicted_nnz += analysis.nodes[i].nnz;
  }
  EXPECT_EQ(predicted_nnz, 12u);
  EXPECT_EQ(analysis.cold.cells_traversed, predicted_nnz);

  QueryOptions run_options;
  run_options.threads = 1;
  run_options.use_cache = false;
  run_options.store_derived = false;
  QueryEngine engine(*repo_, run_options);
  const QueryResult result = engine.run("diff(s1, s2)");
  EXPECT_EQ(measured_cells(result), analysis.cold.cells_traversed);
  EXPECT_EQ(kernel(result, kernel_counters::kIdentitySparseNnz),
            analysis.cold.cells_traversed)
      << "identical metadata over sparse stores must take the sparse "
         "identity kernel";
  EXPECT_EQ(analysis.cold.bytes_loaded, result.stats.bytes_loaded);
}

TEST_F(PlanAnalyzeTest, SparseRemapPredictionsCountMappedNonZeros) {
  repo_->store(make_sparse_small("s"), RepoFormat::Columnar);
  repo_->store(make_sparse_variant("v"), RepoFormat::Columnar);

  const QueryPlan plan = make_plan("mean(s, v)");
  DiagnosticSink sink;
  AnalyzeOptions options;
  options.use_cache = false;
  const PlanAnalysis analysis = analyze(plan, sink, options);
  EXPECT_TRUE(analysis.exact);
  // Kept-sparse remapped operands gather exactly their stored non-zeros
  // (every metric and cnode is mapped under mean), so no grid
  // re-counting applies: 5 + 7.
  EXPECT_EQ(analysis.cold.cells_traversed, 12u);

  QueryOptions run_options;
  run_options.threads = 1;
  run_options.use_cache = false;
  run_options.store_derived = false;
  QueryEngine engine(*repo_, run_options);
  const QueryResult result = engine.run("mean(s, v)");
  EXPECT_EQ(measured_cells(result), analysis.cold.cells_traversed);
  EXPECT_EQ(kernel(result, kernel_counters::kRemapSparseNnz),
            analysis.cold.cells_traversed)
      << "differing metadata over kept-sparse stores must take the sparse "
         "remap kernel";
}

TEST_F(PlanAnalyzeTest, CoalescingMappingPredictionsAreExact) {
  // Operands whose sibling call paths share a callee integrate through a
  // coalescing cnode mapping: the linear combinations scatter those
  // operands row by row, the folds gather them, and both walk the same
  // tile grid the analyzer replicates.
  repo_->store(make_duplicate_callee("d1", 1.0));
  repo_->store(make_duplicate_callee("d2", 2.0));
  repo_->store(make_small(StorageKind::Dense, "small"));

  for (const std::string query :
       {"mean(d1, d2)", "diff(d1, small)", "max(d1, d2, small)"}) {
    SCOPED_TRACE(query);
    const QueryPlan plan = make_plan(query);
    DiagnosticSink sink;
    AnalyzeOptions options;
    options.use_cache = false;
    const PlanAnalysis analysis = analyze(plan, sink, options);
    EXPECT_TRUE(analysis.compatible);
    EXPECT_TRUE(analysis.exact);
    EXPECT_EQ(analysis.nodes[plan.root].cnodes, 4u)
        << "the two io call sites fold into one cnode";

    QueryOptions run_options;
    run_options.threads = 1;
    run_options.use_cache = false;
    run_options.store_derived = false;
    QueryEngine engine(*repo_, run_options);
    const QueryResult result = engine.run(query);
    EXPECT_EQ(measured_cells(result), analysis.cold.cells_traversed);
    EXPECT_GT(kernel(result, kernel_counters::kRemapDenseCells), 0u);
  }
}

TEST_F(PlanAnalyzeTest, DensifiedSparseOperandsSweepLikeDense) {
  // make_small(Sparse) fills EVERY cell, so 2*nnz >= cells and operand
  // preparation densifies it: the analyzer must predict the dense sweep
  // (48 cells each), not the stored non-zeros.
  repo_->store(make_small(StorageKind::Sparse, "f1"), RepoFormat::Columnar);
  repo_->store(make_small(StorageKind::Sparse, "f2"), RepoFormat::Columnar);

  const QueryPlan plan = make_plan("diff(f1, f2)");
  DiagnosticSink sink;
  AnalyzeOptions options;
  options.use_cache = false;
  const PlanAnalysis analysis = analyze(plan, sink, options);
  EXPECT_EQ(analysis.cold.cells_traversed, 96u);

  QueryOptions run_options;
  run_options.threads = 1;
  run_options.use_cache = false;
  run_options.store_derived = false;
  QueryEngine engine(*repo_, run_options);
  const QueryResult result = engine.run("diff(f1, f2)");
  EXPECT_EQ(measured_cells(result), analysis.cold.cells_traversed);
  EXPECT_EQ(kernel(result, kernel_counters::kIdentityDenseCells),
            analysis.cold.cells_traversed)
      << "full sparse operands must densify into the dense identity kernel";
}

TEST_F(PlanAnalyzeTest, WarmPassPredictsCacheHitsWithoutExecuting) {
  store_salted("a1", 0.125, {{"run", "before"}});
  store_salted("a2", 0.25, {{"run", "before"}});
  store_salted("b1", -0.5, {{"run", "after"}});
  const std::string query =
      "diff(mean(attr(run=before)), mean(attr(run=after)))";

  QueryOptions run_options;
  run_options.threads = 1;
  run_options.use_cache = true;
  run_options.store_derived = true;
  QueryEngine engine(*repo_, run_options);

  // Cold prediction, validated against the first (cache-filling) run.
  {
    const QueryPlan plan = make_plan(query);
    DiagnosticSink sink;
    const PlanAnalysis analysis = analyze(plan, sink);
    EXPECT_EQ(analysis.warm.cache_hits, 0u);
    const QueryResult cold = engine.run(query);
    EXPECT_EQ(analysis.cold.operands_loaded, cold.stats.operands_loaded);
    EXPECT_EQ(analysis.cold.nodes_evaluated, cold.stats.nodes_evaluated);
    EXPECT_EQ(analysis.cold.bytes_loaded, cold.stats.bytes_loaded);
    EXPECT_EQ(analysis.cold.cells_traversed, measured_cells(cold));
  }

  // Re-analyzed over the now-warm repository: the root is served from its
  // stored cube, so the warm pass predicts one hit and nothing else.
  const QueryPlan plan = make_plan(query);
  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink);
  EXPECT_EQ(analysis.warm.cache_hits, 1u);
  EXPECT_EQ(analysis.warm.nodes_evaluated, 0u);
  EXPECT_EQ(analysis.warm.operands_loaded, 0u);
  EXPECT_TRUE(analysis.nodes[plan.root].cached);
  EXPECT_LT(analysis.warm.peak_resident_bytes,
            analysis.cold.peak_resident_bytes);

  const QueryResult warm = engine.run(query);
  EXPECT_EQ(analysis.warm.cache_hits, warm.stats.cache_hits);
  EXPECT_EQ(analysis.warm.nodes_evaluated, warm.stats.nodes_evaluated);
  EXPECT_EQ(analysis.warm.operands_loaded, warm.stats.operands_loaded);
  EXPECT_EQ(analysis.warm.bytes_loaded, warm.stats.bytes_loaded);
}

// ---------------------------------------------------------------------------
// Error paths: one test per diagnostic.

TEST_F(PlanAnalyzeTest, MetricUnitConflictIsAPlanError) {
  repo_->store(make_small(StorageKind::Dense, "small"));
  repo_->store(make_unit_clash("clash"));

  const QueryPlan plan = make_plan("mean(small, clash)");
  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink);

  EXPECT_FALSE(analysis.compatible);
  EXPECT_FALSE(analysis.exact);
  EXPECT_EQ(sink.exit_code(), 2);
  const lint::Diagnostic& d = find_diag(sink, "plan.metric-unit");
  EXPECT_EQ(d.level, Level::Error);
  // The location names the offending sub-expression, not the whole plan.
  EXPECT_NE(d.location.find("clash"), std::string::npos) << d.location;
  EXPECT_NE(d.message.find("time"), std::string::npos) << d.message;
}

TEST_F(PlanAnalyzeTest, IntegrationFailureIsAPlanError) {
  // No stored metadata can make integrate_metadata throw today (unit
  // conflicts are uniquified, shapes zero-extend), so drive the defensive
  // path with the one malformed plan shape that does: an application with
  // no operands, which a buggy or future planner could emit.
  QueryPlan plan;
  PlanNode apply;
  apply.kind = PlanNode::Kind::Apply;
  apply.op = QueryExpr::Op::Mean;
  apply.canonical = "mean()";
  plan.nodes.push_back(apply);
  plan.root = 0;

  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink);
  EXPECT_FALSE(analysis.compatible);
  EXPECT_EQ(sink.exit_code(), 2);
  const lint::Diagnostic& d = find_diag(sink, "plan.integration-failed");
  EXPECT_EQ(d.level, Level::Error);
  EXPECT_EQ(d.location, "mean()");
}

TEST_F(PlanAnalyzeTest, LegacyInlineOperandIsOpaque) {
  // Build a legacy-layout repository, then strip the entry's meta="..."
  // reference the way pre-blob repositories stored experiments: metadata
  // inline in the experiment file, invisible to the analyzer.
  const std::filesystem::path legacy_dir = dir_ / "legacy";
  std::string id;
  {
    ExperimentRepository legacy(legacy_dir, RepoLayout::Legacy);
    id = legacy.store(make_small());
  }
  const std::filesystem::path index = legacy_dir / "index.xml";
  std::string text;
  {
    std::ifstream in(index);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::size_t meta_pos = text.find(" meta=\"");
  ASSERT_NE(meta_pos, std::string::npos);
  const std::size_t meta_end = text.find('"', meta_pos + 7);
  ASSERT_NE(meta_end, std::string::npos);
  text.erase(meta_pos, meta_end + 1 - meta_pos);
  {
    std::ofstream out(index, std::ios::trunc);
    out << text;
  }

  ExperimentRepository reopened(legacy_dir);
  const QueryPlan plan =
      plan_query(*parse_query("mean(" + id + ")"), reopened, {});
  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink, {}, &reopened);

  EXPECT_TRUE(analysis.compatible) << "opaque is a warning, not an error";
  EXPECT_FALSE(analysis.exact);
  EXPECT_EQ(sink.exit_code(), 1);
  const lint::Diagnostic& d = find_diag(sink, "plan.opaque-operand");
  EXPECT_EQ(d.level, Level::Warning);
  EXPECT_NE(d.message.find("inline metadata"), std::string::npos)
      << d.message;
  EXPECT_NE(d.hint.find("migrate"), std::string::npos) << d.hint;
}

TEST_F(PlanAnalyzeTest, UnresolvedMetadataBlobIsOpaque) {
  QueryPlan plan;
  PlanNode load;
  load.kind = PlanNode::Kind::Load;
  load.operand.id = "ghost";
  load.operand.bytes = 100;
  load.operand.meta_digest = 0xdeadbeefdeadbeefULL;  // no such blob
  load.canonical = "ghost";
  plan.nodes.push_back(load);
  plan.root = 0;

  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink);
  EXPECT_FALSE(analysis.exact);
  const lint::Diagnostic& d = find_diag(sink, "plan.opaque-operand");
  EXPECT_EQ(d.level, Level::Warning);
  EXPECT_NE(d.message.find("did not resolve"), std::string::npos)
      << d.message;
  EXPECT_FALSE(analysis.nodes[plan.root].geometry_known);
}

TEST_F(PlanAnalyzeTest, MixedOriginalAndDerivedOperandsAreNoted) {
  repo_->store(make_small(StorageKind::Dense, "orig"));
  Experiment derived = make_small(StorageKind::Dense, "deriv");
  derived.set_attribute("cube::kind", "derived");
  repo_->store(derived);

  {
    const QueryPlan plan = make_plan("mean(orig, deriv)");
    DiagnosticSink sink;
    (void)analyze(plan, sink);
    const lint::Diagnostic& d = find_diag(sink, "plan.mixed-kind");
    EXPECT_EQ(d.level, Level::Note);
  }
  {
    // All-original aggregation stays silent.
    const QueryPlan plan = make_plan("mean(orig, orig)");
    DiagnosticSink sink;
    (void)analyze(plan, sink);
    EXPECT_FALSE(has_rule(sink, "plan.mixed-kind"));
  }
}

TEST_F(PlanAnalyzeTest, OverBudgetIsAnErrorAtTheRoot) {
  repo_->store(make_small(StorageKind::Dense, "small"));
  const QueryPlan plan = make_plan("mean(small)");

  AnalyzeOptions tight;
  tight.budget_bytes = 1;
  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink, tight);
  EXPECT_TRUE(analysis.over_budget);
  EXPECT_EQ(analysis.budget_bytes, 1u);
  EXPECT_EQ(sink.exit_code(), 2);
  const lint::Diagnostic& d = find_diag(sink, "cost.over-budget");
  EXPECT_EQ(d.level, Level::Error);
  EXPECT_EQ(d.location, plan.nodes[plan.root].canonical);

  AnalyzeOptions roomy;
  roomy.budget_bytes = std::uint64_t{1} << 30;
  DiagnosticSink ok;
  const PlanAnalysis fits = analyze(plan, ok, roomy);
  EXPECT_FALSE(fits.over_budget);
  EXPECT_FALSE(has_rule(ok, "cost.over-budget"));
  EXPECT_EQ(ok.exit_code(), 0);

  // budget_bytes = 0 disables the gate entirely.
  DiagnosticSink off;
  const PlanAnalysis ungated = analyze(plan, off);
  EXPECT_FALSE(ungated.over_budget);
  EXPECT_FALSE(has_rule(off, "cost.over-budget"));
}

TEST_F(PlanAnalyzeTest, CostSummaryIsAlwaysReportedOnce) {
  repo_->store(make_small(StorageKind::Dense, "small"));
  const QueryPlan plan = make_plan("mean(small)");
  DiagnosticSink sink;
  const PlanAnalysis analysis = analyze(plan, sink);
  EXPECT_EQ(count_rule(sink, "cost.summary"), 1u);
  const lint::Diagnostic& d = find_diag(sink, "cost.summary");
  EXPECT_EQ(d.level, Level::Note);
  EXPECT_EQ(d.location, plan.nodes[plan.root].canonical);
  EXPECT_NE(d.message.find(
                std::to_string(analysis.cold.peak_resident_bytes)),
            std::string::npos)
      << d.message;
}

TEST_F(PlanAnalyzeTest, PlanLintAdvisoriesShareTheSink) {
  repo_->store(make_small(StorageKind::Dense, "a"));
  repo_->store(make_small(StorageKind::Dense, "b"));
  repo_->store(make_small(StorageKind::Dense, "c"));
  const QueryPlan plan = make_plan("mean(mean(a, b), c)");

  // analyze_plan reports no perf.* advisory, even on a foldable chain...
  DiagnosticSink sink;
  (void)analyze(plan, sink);
  for (const auto& d : sink.diagnostics()) {
    EXPECT_NE(d.rule.rfind("perf.", 0), 0u) << d.rule;
  }
  const std::size_t analysis_findings = sink.diagnostics().size();

  // ...lint_plan does, appended to the same sink after the analysis.
  lint_plan(plan, sink);
  EXPECT_TRUE(sink.has_rule("perf.series-foldable"));
  EXPECT_EQ(sink.diagnostics().size(), analysis_findings + 1);
  EXPECT_EQ(sink.diagnostics().back().rule, "perf.series-foldable");
}

}  // namespace
}  // namespace cube::query
