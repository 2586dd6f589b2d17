// QueryEngine: evaluates self-contained algebra queries directly against
// an ExperimentRepository.
//
// A query run is: parse -> plan (selector resolution, CSE, cache keys;
// see query/planner.hpp) -> execute.  Execution walks the DAG with a
// thread pool: independent nodes (operand loads, sibling subexpressions)
// run concurrently, and the n-ary reductions additionally row-chunk their
// severity phase through the same pool (OperatorOptions::parallel_for),
// which is bit-identical to sequential evaluation at any thread count.
//
// Results are cached CONTENT-ADDRESSED in the repository itself: a
// computed sub-expression is stored as a regular (binary) experiment
// whose "cube::cache-key" attribute is the node's key digest.  A later
// plan whose node carries the same key loads the stored cube instead of
// recomputing — across overlapping queries and across processes, since
// the cache lives in the repository index.  Re-storing different data
// under an operand id changes that file's digest and thereby every
// downstream key, so stale cubes are never served (they are merely
// orphaned).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "io/repository.hpp"
#include "obs/metrics.hpp"
#include "query/planner.hpp"
#include "query/query_expr.hpp"

namespace cube::query {

struct QueryOptions {
  /// Worker threads for the executor; 0 picks the hardware concurrency,
  /// 1 runs fully sequential (no pool).
  std::size_t threads = 0;
  /// Serve plan nodes from cached cubes when keys match.
  bool use_cache = true;
  /// Persist computed sub-expressions back into the repository.
  bool store_derived = true;
  /// Run the invariant checker (cube::lint::require_valid) over every
  /// experiment loaded from the repository — operands and cache hits —
  /// throwing ValidationError on error-level findings.  Off by default:
  /// the readers already reject malformed files, so the extra O(data)
  /// pass is for pipelines that ingest repositories they did not write.
  bool validate_loads = false;
  OperatorOptions operators;
};

/// Execution statistics of one query run.
struct QueryStats {
  std::size_t plan_nodes = 0;      ///< DAG nodes after CSE
  std::size_t cse_reused = 0;      ///< subexpression occurrences folded
  std::size_t nodes_executed = 0;  ///< nodes actually run (cache prunes)
  std::size_t operands_loaded = 0; ///< repository files parsed as operands
  std::size_t nodes_evaluated = 0; ///< operator applications computed
  std::size_t cache_hits = 0;      ///< nodes served from cached cubes
  std::size_t cache_misses = 0;    ///< cacheable nodes that were computed
  std::uintmax_t bytes_loaded = 0; ///< file bytes read (operands + hits)
  std::size_t threads_used = 1;
  // Wall time per stage.  plan/exec/total are end-to-end; load/eval are
  // summed across concurrent tasks (they can exceed exec_ms).
  double plan_ms = 0.0;
  double load_ms = 0.0;
  double eval_ms = 0.0;
  double exec_ms = 0.0;
  double total_ms = 0.0;
};

struct QueryResult {
  Experiment experiment;
  QueryStats stats;
  std::string canonical;  ///< canonical root expression over resolved ids
  /// The run's own metrics registry: the severity-kernel counters of its
  /// operator applications (cube::kernel_counters) and the query.* tallies.
  std::vector<obs::MetricSample> metrics;
  /// The CUBEBIN2 bytes this run stored as the root's repository file —
  /// to_cube_binary_ref(experiment) — or null when it stored no root
  /// (store_derived off, or a root served by a load).
  std::shared_ptr<const std::string> stored_bytes;
};

/// Evaluates queries against a repository.  One engine may serve MANY
/// threads at once: run()/run_plan() keep all per-run state on the
/// caller's stack, the repository synchronizes itself, and the thread
/// pool is safe to share — the analysis daemon multiplexes every session
/// onto a single engine over one pool.  Callers of run_plan() must not
/// be pool workers of the engine's own pool (the DAG wait would occupy a
/// worker); session threads and main() are fine.
class QueryEngine {
 public:
  explicit QueryEngine(ExperimentRepository& repo, QueryOptions options = {});
  /// Runs on `pool` (shared, externally owned) instead of spawning a
  /// private one; `pool` must outlive the engine.  options.threads only
  /// labels QueryStats::threads_used in this form.
  QueryEngine(ExperimentRepository& repo, QueryOptions options,
              ThreadPool& pool);

  /// Parse + plan + execute.  Throws cube::Error (and subclasses) on
  /// parse, resolution, or evaluation failure.
  [[nodiscard]] QueryResult run(std::string_view text);
  [[nodiscard]] QueryResult run(const QueryExpr& expr);

  /// Plans without executing — the daemon looks the root node's
  /// content-addressed digest up in its result cache before deciding
  /// whether any execution is needed at all.
  [[nodiscard]] QueryPlan plan(const QueryExpr& expr) const;

  /// Executes a previously produced plan (stats.plan_ms stays 0; run()
  /// composes the two).  The plan must come from this engine's
  /// repository and operator options.
  [[nodiscard]] QueryResult run_plan(const QueryPlan& plan);

  [[nodiscard]] const QueryOptions& options() const noexcept {
    return options_;
  }

 private:
  ExperimentRepository& repo_;
  QueryOptions options_;
  ThreadPool* pool_ = nullptr;        // null when running sequentially
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace cube::query
