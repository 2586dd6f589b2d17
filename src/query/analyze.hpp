// Static plan analysis: semantic + cost/memory analysis of a planned
// query DAG from METADATA ALONE (docs/QUERY.md, "Static plan analysis").
//
// The algebra's closure property makes every node's result shape a pure
// function of its operands' metadata, so compatibility, result geometry,
// traversal cost, and peak resident memory are all decidable before a
// single severity byte is loaded.  The analyzer reads
//   - metadata blobs through the repository resolver (digest-addressed,
//     interned, already required by planning), and
//   - the 56-byte CUBESEV1 headers of columnar operands
//     (stat_cube_sev_file)
// and NOTHING else — the io.sev.bytes_read counter stays untouched, which
// `cube_query --check` asserts on every run.
//
// Three families of findings report through the DiagnosticSink:
//
//   plan.metric-unit        error    operands of one application disagree
//                                    on a metric's unit — integration is
//                                    undefined; the runtime would throw
//   plan.integration-failed error    metadata integration rejects the
//                                    operands for another reason
//   plan.opaque-operand     warning  a legacy inline-metadata entry (or a
//                                    missing blob) hides an operand's
//                                    geometry; estimates are partial
//   plan.thread-shape       note     operands span different (rank,
//                                    thread id) sets (zero-extension)
//   plan.mixed-kind         note     original and derived experiments
//                                    mixed under one aggregation
//   cost.over-budget        error    predicted peak resident bytes exceed
//                                    AnalyzeOptions::budget_bytes
//   cost.summary            note     one-line cold/warm cost totals
//   perf.series-foldable    note     a nested chain of one Mean/Min/Max
//                                    over >= 3 loads sharing one metadata
//                                    digest: one n-ary application would
//                                    integrate once and fold the series
//                                    in ONE batched sweep (docs/KERNELS.md)
//
// The perf.* family is reported by lint_plan alone (docs/LINT.md), never
// by analyze_plan: it checks EFFICIENCY, not validity — the plan runs and
// the result is identical either way.
// Locations are canonical sub-expressions, so findings read without the
// plan at hand.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lint/diagnostics.hpp"
#include "query/planner.hpp"

namespace cube::query {

struct AnalyzeOptions {
  /// Peak-resident budget in bytes; 0 disables the cost.over-budget gate.
  std::uint64_t budget_bytes = 0;
  /// Predict derived-cube cache hits (QueryOptions::use_cache).  The warm
  /// estimate equals the cold one when off.
  bool use_cache = true;
  /// The operator options the executor will run with — integration rules
  /// decide result geometry, `storage` the intermediate representation.
  OperatorOptions operators;
};

/// Statically derived facts about one plan node.
struct NodeCost {
  /// Result geometry; meaningful only when geometry_known.
  bool geometry_known = false;
  std::size_t metrics = 0;
  std::size_t cnodes = 0;
  std::size_t threads = 0;
  std::uint64_t cells = 0;
  /// In-memory representation when this node executes: XML/Binary
  /// operands and operator results are dense; columnar operands follow
  /// their blob header's kind.
  StorageKind storage = StorageKind::Dense;
  /// Stored non-zeros (== cells for dense stores).  For operator results
  /// under sparse storage this is an upper bound.
  std::uint64_t nnz = 0;
  /// False when the numbers are estimates instead of exact predictions:
  /// an opaque operand, a Merge application (owner-masked kernels may
  /// skip cells), or sparse result storage (nnz is an upper bound).
  /// Remapped operands stay exact: the analyzer replicates the
  /// deterministic chunk/tile grid the scatter kernels count against.
  bool exact = true;
  /// Warm pass: this node is served from a cached derived cube, so its
  /// subtree never executes.
  bool cached = false;
  /// Apply nodes: cells the severity kernels visit — per operand, its
  /// stored non-zeros (kept sparse) or a dense sweep (identity: exactly
  /// its cells; remapped: rows re-counted per straddled grid chunk/tile);
  /// matches the sum of the algebra.kernel.* counters.
  std::uint64_t cells_traversed = 0;
  /// File bytes this node reads when executed (operand file or cached
  /// cube) — the QueryStats::bytes_loaded contribution.
  std::uint64_t bytes_loaded = 0;
  /// bytes_loaded plus the severity payload pages a columnar operand
  /// faults under the reduction.
  std::uint64_t bytes_faulted = 0;
  /// Resident bytes of this node's result while the DAG runs.
  std::uint64_t result_bytes = 0;
  /// Resolved result metadata (operands: their stored metadata; applies:
  /// the integrated set).  Null when unknown.
  std::shared_ptr<const Metadata> metadata;
};

/// DAG-wide cost totals under the executor's scheduling (every needed
/// node's result is held until the run finishes, so peak resident is the
/// sum of executed nodes' result bytes).
struct CostEstimate {
  std::size_t nodes_executed = 0;
  std::size_t operands_loaded = 0;
  std::size_t nodes_evaluated = 0;
  std::size_t cache_hits = 0;
  std::uint64_t cells_traversed = 0;
  std::uint64_t bytes_loaded = 0;
  std::uint64_t bytes_faulted = 0;
  /// Result bytes of all computed operator applications (root included).
  std::uint64_t intermediate_bytes = 0;
  std::uint64_t peak_resident_bytes = 0;
  bool exact = true;
};

struct PlanAnalysis {
  /// Parallel to plan.nodes.
  std::vector<NodeCost> nodes;
  /// Cost with an empty derived-cube cache (every needed node executes).
  CostEstimate cold;
  /// Cost with the repository's current cached cubes applied (equals
  /// `cold` when AnalyzeOptions::use_cache is off).
  CostEstimate warm;
  /// No error-level plan.* finding fired.
  bool compatible = true;
  /// Every estimate is an exact prediction (no opaque operands, no
  /// owner-masked merges, no sparse result storage).
  bool exact = true;
  std::uint64_t budget_bytes = 0;
  /// The enforced estimate (warm when use_cache, else cold) exceeds
  /// budget_bytes.
  bool over_budget = false;
};

/// Analyzes `plan` against `repo`, reporting findings into `sink`.
/// Touches metadata blobs and severity-blob HEADERS only — never severity
/// payload (io.sev.bytes_read is not advanced).  Never throws on
/// analysis findings; repository access problems (unreadable blob
/// headers) surface as diagnostics, not exceptions.
[[nodiscard]] PlanAnalysis analyze_plan(const QueryPlan& plan,
                                        const ExperimentRepository& repo,
                                        lint::DiagnosticSink& sink,
                                        const AnalyzeOptions& options = {});

/// Runs the plan-shape advisories (perf.*) over `plan`, reporting into
/// `sink`.  analyze_plan never includes them: they are advice, not
/// admission findings.
void lint_plan(const QueryPlan& plan, lint::DiagnosticSink& sink);

}  // namespace cube::query
