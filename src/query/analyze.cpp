#include "query/analyze.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "algebra/batch.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "model/metric.hpp"

namespace cube::query {

namespace {

using lint::DiagnosticSink;

constexpr std::uint64_t kDenseCellBytes = sizeof(Severity);
constexpr std::uint64_t kSparseCellBytes =
    sizeof(std::uint64_t) + sizeof(Severity);

/// Per-node original/derived classification, decidable from the index:
/// an entry whose attributes mark it derived (or that IS a cached cube)
/// is derived, an operator application always is.
enum class PlanKind { Original, Derived, Unknown };

std::uint64_t dense_bytes(std::uint64_t cells) {
  return cells * kDenseCellBytes;
}

/// Geometry and representation of one node, filled bottom-up.
struct NodeState {
  PlanKind kind = PlanKind::Unknown;
};

/// Zero-severity wrapper over stored metadata: integration only reads the
/// metadata, and a sparse store over it allocates nothing per cell — this
/// is what lets the analyzer run integrate_metadata at plan time without
/// touching severity.
Experiment metadata_probe(std::shared_ptr<const Metadata> metadata) {
  return Experiment(std::move(metadata), StorageKind::Sparse);
}

/// Traversal count of one REMAPPED dense operand, replicating the
/// executor's kernel counters exactly.  The row walk visits each
/// source (metric, cnode) row once per cell-grid interval its result row
/// intersects, counting the operand's thread width each time — so a row
/// straddling an interval boundary is counted twice.  The grid is
/// deterministic: [0, cells) split into num_cell_chunks contiguous
/// chunks, each swept in kTileCells tiles from its own lower bound.
std::uint64_t remap_dense_traversal(const OperandMapping& mapping,
                                    std::size_t src_metrics,
                                    std::size_t src_cnodes,
                                    std::size_t src_threads,
                                    std::size_t out_cnodes,
                                    std::size_t out_threads,
                                    std::uint64_t out_cells) {
  if (out_cells == 0) return 0;
  const std::uint64_t chunks = batch::num_cell_chunks(out_cells);
  const auto chunk_lo = [&](std::uint64_t k) { return k * out_cells / chunks; };
  const auto chunk_of = [&](std::uint64_t x) {
    std::uint64_t k = x * chunks / out_cells;
    while (k + 1 < chunks && chunk_lo(k + 1) <= x) ++k;
    while (k > 0 && chunk_lo(k) > x) --k;
    return k;
  };
  std::uint64_t total = 0;
  for (std::size_t m = 0; m < src_metrics; ++m) {
    const MetricIndex om = mapping.metric_map[m];
    if (om == kNoIndex) continue;  // merge ownership masking
    for (std::size_t c = 0; c < src_cnodes; ++c) {
      const std::uint64_t lo =
          (static_cast<std::uint64_t>(om) * out_cnodes +
           mapping.cnode_map[c]) *
          out_threads;
      const std::uint64_t hi = lo + out_threads;
      std::uint64_t intervals = 0;
      for (std::uint64_t k = chunk_of(lo); k < chunks && chunk_lo(k) < hi;
           ++k) {
        const std::uint64_t clo = chunk_lo(k);
        const std::uint64_t chi = std::min(chunk_lo(k + 1), out_cells);
        const std::uint64_t olo = std::max(lo, clo);
        const std::uint64_t ohi = std::min(hi, chi);
        if (ohi <= olo) continue;  // empty or non-overlapping chunk
        intervals += (ohi - 1 - clo) / batch::kTileCells -
                     (olo - clo) / batch::kTileCells + 1;
      }
      total += intervals * src_threads;
    }
  }
  return total;
}

/// The (rank, thread id) set of a metadata's system dimension.
std::set<std::pair<long, long>> thread_shape(const Metadata& md) {
  std::set<std::pair<long, long>> shape;
  for (const auto& t : md.threads()) {
    shape.emplace(t->rank(), t->thread_id());
  }
  return shape;
}

}  // namespace

PlanAnalysis analyze_plan(const QueryPlan& plan,
                          const ExperimentRepository& repo,
                          DiagnosticSink& sink,
                          const AnalyzeOptions& options) {
  PlanAnalysis analysis;
  analysis.budget_bytes = options.budget_bytes;
  const std::size_t n = plan.nodes.size();
  analysis.nodes.resize(n);
  std::vector<NodeState> state(n);

  const MetadataResolver resolver = repo.resolver();

  // --- bottom-up: geometry, compatibility, per-node cost ------------------
  for (std::size_t i = 0; i < n; ++i) {
    const PlanNode& node = plan.nodes[i];
    NodeCost& cost = analysis.nodes[i];

    if (node.kind == PlanNode::Kind::Load) {
      cost.bytes_loaded = static_cast<std::uint64_t>(node.operand.bytes);
      cost.bytes_faulted = cost.bytes_loaded;
      state[i].kind =
          node.operand.derived ? PlanKind::Derived : PlanKind::Original;

      if (node.operand.meta_digest == 0) {
        // Legacy inline-metadata entry: geometry requires parsing the
        // experiment file, which the analyzer refuses to do.
        sink.warning("plan.opaque-operand", node.canonical,
                     "operand '" + node.operand.id +
                         "' carries inline metadata; its geometry is not "
                         "statically known",
                     "run `cube_repo migrate` to rewrite the entry "
                     "blob-backed, making it analyzable");
        cost.exact = false;
        continue;
      }
      try {
        cost.metadata = resolver(node.operand.meta_digest);
      } catch (const Error&) {
        cost.metadata = nullptr;
      }
      if (!cost.metadata) {
        sink.warning("plan.opaque-operand", node.canonical,
                     "operand '" + node.operand.id +
                         "' references metadata blob " +
                         digest_hex(node.operand.meta_digest) +
                         " which did not resolve",
                     "the load would fail at runtime too; check the "
                     "repository's meta/ shards");
        cost.exact = false;
        continue;
      }
      cost.geometry_known = true;
      cost.metrics = cost.metadata->num_metrics();
      cost.cnodes = cost.metadata->num_cnodes();
      cost.threads = cost.metadata->num_threads();
      cost.cells = static_cast<std::uint64_t>(cost.metrics) * cost.cnodes *
                   cost.threads;
      // In-memory representation: XML/Binary operands load dense (the
      // engine's read path defaults StorageKind::Dense); columnar
      // operands mmap their blob and keep its kind.
      cost.storage = StorageKind::Dense;
      cost.nnz = cost.cells;
      cost.result_bytes = dense_bytes(cost.cells);
      if (node.operand.format == RepoFormat::Columnar &&
          node.operand.sev_digest != 0) {
        std::optional<SevBlobStat> stat;
        try {
          stat = repo.stat_sev_blob(node.operand.sev_digest);
        } catch (const Error& e) {
          sink.warning("plan.opaque-operand", node.canonical,
                       std::string("severity blob header unreadable: ") +
                           e.what(),
                       "treating the operand as dense for cost purposes");
        }
        if (stat) {
          cost.storage = stat->kind;
          cost.nnz = stat->kind == StorageKind::Sparse ? stat->entries
                                                       : cost.cells;
          cost.result_bytes = stat->payload_bytes;
          cost.bytes_faulted += stat->payload_bytes;
        } else {
          cost.exact = false;
        }
      }
      continue;
    }

    // ---- operator application ------------------------------------------
    state[i].kind = PlanKind::Derived;
    bool all_known = true;
    for (const std::size_t child : node.args) {
      if (!analysis.nodes[child].geometry_known) all_known = false;
      if (!analysis.nodes[child].exact) cost.exact = false;
    }

    // Unit conflicts make integration undefined — the exact check
    // lint_compatibility runs at load time, promoted to plan time over
    // stored metadata, with the offending sub-expression as location.
    bool unit_conflict = false;
    {
      std::map<std::string, std::pair<Unit, std::size_t>> units;
      for (std::size_t a = 0; a < node.args.size(); ++a) {
        const NodeCost& child = analysis.nodes[node.args[a]];
        if (!child.metadata) continue;
        for (const auto& m : child.metadata->metrics()) {
          const auto [it, fresh] = units.emplace(
              m->unique_name(), std::make_pair(m->unit(), a));
          if (!fresh && it->second.first != m->unit()) {
            unit_conflict = true;
            sink.error(
                "plan.metric-unit",
                plan.nodes[node.args[a]].canonical,
                "operand #" + std::to_string(a) + " measures metric '" +
                    m->unique_name() + "' in '" +
                    std::string(unit_name(m->unit())) + "' but operand #" +
                    std::to_string(it->second.second) + " measures it in '" +
                    std::string(unit_name(it->second.first)) + "'",
                "metadata integration cannot merge metrics that share a "
                "unique name but differ in unit; the query would fail at "
                "evaluation time");
          }
        }
      }
    }
    if (unit_conflict) {
      analysis.compatible = false;
      cost.exact = false;
      continue;
    }

    // Per-operand mappings into the integrated cell space; stays empty
    // when any operand's geometry is unknown.
    std::vector<OperandMapping> mappings;
    if (all_known) {
      // Integrate the children's metadata exactly as the operator will —
      // over zero-severity probes, so the structural merge (or its digest
      // short-circuit) runs without any severity in sight.
      std::vector<Experiment> probes;
      std::vector<const Experiment*> operand_ptrs;
      probes.reserve(node.args.size());
      operand_ptrs.reserve(node.args.size());
      for (const std::size_t child : node.args) {
        probes.push_back(metadata_probe(analysis.nodes[child].metadata));
      }
      for (const Experiment& p : probes) operand_ptrs.push_back(&p);
      try {
        IntegrationResult integration = integrate_metadata(
            std::span<const Experiment* const>(operand_ptrs),
            options.operators.integration);
        cost.metadata = integration.metadata;
        mappings = std::move(integration.mappings);
      } catch (const Error& e) {
        sink.error("plan.integration-failed", node.canonical,
                   std::string("metadata integration rejects the "
                               "operands: ") +
                       e.what(),
                   "the query would fail at evaluation time");
        analysis.compatible = false;
        cost.exact = false;
        continue;
      }
      cost.geometry_known = true;
      cost.metrics = cost.metadata->num_metrics();
      cost.cnodes = cost.metadata->num_cnodes();
      cost.threads = cost.metadata->num_threads();
      cost.cells = static_cast<std::uint64_t>(cost.metrics) * cost.cnodes *
                   cost.threads;

      // Differing system shapes zero-extend — legal but usually a
      // selector mistake (mirrors compat.thread-shape).
      for (std::size_t a = 1; a < node.args.size(); ++a) {
        const auto& first = *analysis.nodes[node.args[0]].metadata;
        const auto& other = *analysis.nodes[node.args[a]].metadata;
        if (thread_shape(other) != thread_shape(first)) {
          sink.note("plan.thread-shape", plan.nodes[node.args[a]].canonical,
                    "system dimension differs from operand #0's "
                    "(different (rank, thread id) sets)",
                    "tuples absent from an operand contribute zero to "
                    "element-wise operators");
          break;
        }
      }
    } else {
      cost.exact = false;
    }

    bool any_original = false;
    bool any_derived = false;
    for (const std::size_t child : node.args) {
      (state[child].kind == PlanKind::Derived ? any_derived : any_original) =
          true;
    }
    if (any_original && any_derived) {
      sink.note("plan.mixed-kind", node.canonical,
                "operands mix original and derived experiments",
                "differences already encode a comparison; aggregating "
                "them with measured runs is usually unintended");
    }

    // Cost: per operand, the severity kernels visit its stored non-zeros
    // (kept sparse) or run a dense sweep — operand preparation densifies
    // any sparse operand at least half full, so those take the dense
    // kernels too.  An identity-mapped dense operand sweeps exactly its
    // own cells; a remapped dense operand — gathered or, if it coalesces
    // under a linear operator, scattered — re-counts each source row once
    // per tile of the deterministic grid it straddles, replicated by
    // remap_dense_traversal().
    for (std::size_t a = 0; a < node.args.size(); ++a) {
      const NodeCost& c = analysis.nodes[node.args[a]];
      const bool dense_kernel =
          c.storage == StorageKind::Dense || 2 * c.nnz >= c.cells;
      if (!dense_kernel) {
        cost.cells_traversed += c.nnz;
      } else if (a < mappings.size() && !mappings[a].identity()) {
        cost.cells_traversed += remap_dense_traversal(
            mappings[a], c.metrics, c.cnodes, c.threads, cost.cnodes,
            cost.threads, cost.cells);
      } else {
        cost.cells_traversed += c.cells;
      }
    }
    if (node.op == QueryExpr::Op::Merge) {
      // Owner-masked mappings may skip a non-owning operand's metric
      // planes entirely; the sum above is an upper bound.
      cost.exact = false;
    }
    cost.storage = options.operators.storage;
    if (cost.geometry_known) {
      if (cost.storage == StorageKind::Dense) {
        cost.nnz = cost.cells;
        cost.result_bytes = dense_bytes(cost.cells);
      } else {
        // Sparse results hold at most min(cells, sum of operand nnz)
        // entries — an upper bound, not a prediction.
        std::uint64_t nnz_bound = 0;
        for (const std::size_t child : node.args) {
          nnz_bound += analysis.nodes[child].nnz;
        }
        cost.nnz = std::min(cost.cells, nnz_bound);
        cost.result_bytes = cost.nnz * kSparseCellBytes;
        cost.exact = false;
      }
    }
  }

  // --- DAG totals under the executor's scheduling -------------------------
  // Every needed node's result shared_ptr lives until the whole DAG
  // finishes, so peak resident is the SUM over executed nodes.  The warm
  // pass replays the executor's cache pruning — the same cached() lookup
  // per key: a cached apply node becomes a leaf (loaded from its stored
  // cube, whose size the index records) and its subtree never runs.
  const auto total = [&](bool warm) {
    CostEstimate est;
    std::vector<char> needed(n, 0);
    std::vector<std::size_t> stack{plan.root};
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      if (needed[i]) continue;
      needed[i] = 1;
      const PlanNode& node = plan.nodes[i];
      const NodeCost& cost = analysis.nodes[i];
      ++est.nodes_executed;
      if (!cost.exact) est.exact = false;
      if (node.kind == PlanNode::Kind::Load) {
        ++est.operands_loaded;
        est.bytes_loaded += cost.bytes_loaded;
        est.bytes_faulted += cost.bytes_faulted;
        est.peak_resident_bytes += cost.result_bytes;
        continue;
      }
      const std::vector<RepoEntry> hits =
          warm ? repo.cached(digest_hex(node.key)) : std::vector<RepoEntry>{};
      if (!hits.empty()) {
        analysis.nodes[i].cached = true;
        ++est.cache_hits;
        est.bytes_loaded += hits.front().bytes;
        est.bytes_faulted += hits.front().bytes;
        // Cached cubes load as dense binary experiments.
        est.peak_resident_bytes += dense_bytes(cost.cells);
        continue;
      }
      ++est.nodes_evaluated;
      est.cells_traversed += cost.cells_traversed;
      est.intermediate_bytes += cost.result_bytes;
      est.peak_resident_bytes += cost.result_bytes;
      for (const std::size_t child : node.args) stack.push_back(child);
    }
    return est;
  };

  analysis.cold = total(false);
  analysis.warm = options.use_cache ? total(true) : analysis.cold;
  analysis.exact = analysis.warm.exact && analysis.cold.exact;

  const CostEstimate& enforced =
      options.use_cache ? analysis.warm : analysis.cold;
  if (options.budget_bytes != 0 &&
      enforced.peak_resident_bytes > options.budget_bytes) {
    analysis.over_budget = true;
    sink.error(
        "cost.over-budget", plan.nodes[plan.root].canonical,
        "predicted peak resident memory " +
            std::to_string(enforced.peak_resident_bytes) +
            " bytes exceeds the budget of " +
            std::to_string(options.budget_bytes) + " bytes",
        "narrow the selector, lower the operand count, or raise the "
        "budget");
  }

  sink.note(
      "cost.summary", plan.nodes[plan.root].canonical,
      "cold: " + std::to_string(analysis.cold.cells_traversed) +
          " cells traversed, " + std::to_string(analysis.cold.bytes_faulted) +
          " bytes faulted, peak resident " +
          std::to_string(analysis.cold.peak_resident_bytes) +
          " bytes; warm: " + std::to_string(analysis.warm.cache_hits) +
          " cache hit(s), peak resident " +
          std::to_string(analysis.warm.peak_resident_bytes) + " bytes" +
          (analysis.exact ? "" : " (estimates; plan has opaque operands, "
                                 "owner-masked merges, or sparse results)"));

  return analysis;
}

// --- plan-shape advisories ----------------------------------------------

namespace {

bool foldable_op(QueryExpr::Op op) noexcept {
  return op == QueryExpr::Op::Mean || op == QueryExpr::Op::Min ||
         op == QueryExpr::Op::Max;
}

/// Collects the leaves of the maximal same-op chain rooted at `index`:
/// children that apply the same operator are descended into, everything
/// else is a chain leaf.  Returns false if any leaf is not a plain load
/// (a different operator application feeds the chain — flattening would
/// change what gets cached, so we stay quiet).
bool collect_chain(const QueryPlan& plan, std::size_t index, QueryExpr::Op op,
                   std::vector<std::size_t>& leaves, std::size_t& depth,
                   std::size_t level) {
  depth = std::max(depth, level);
  for (std::size_t arg : plan.nodes[index].args) {
    const PlanNode& child = plan.nodes[arg];
    if (child.kind == PlanNode::Kind::Apply && child.op == op) {
      if (!collect_chain(plan, arg, op, leaves, depth, level + 1)) {
        return false;
      }
    } else if (child.kind == PlanNode::Kind::Load) {
      leaves.push_back(arg);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

void lint_plan(const QueryPlan& plan, lint::DiagnosticSink& sink) {
  // A node is a chain ROOT if no parent applies the same operator; only
  // roots report, so one nested chain yields one finding.
  std::vector<bool> same_op_child(plan.nodes.size(), false);
  for (const PlanNode& node : plan.nodes) {
    if (node.kind != PlanNode::Kind::Apply || !foldable_op(node.op)) continue;
    for (std::size_t arg : node.args) {
      const PlanNode& child = plan.nodes[arg];
      if (child.kind == PlanNode::Kind::Apply && child.op == node.op) {
        same_op_child[arg] = true;
      }
    }
  }

  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (node.kind != PlanNode::Kind::Apply || !foldable_op(node.op)) continue;
    if (same_op_child[i]) continue;

    std::vector<std::size_t> leaves;
    std::size_t depth = 0;
    if (!collect_chain(plan, i, node.op, leaves, depth, 0)) continue;
    if (depth == 0 || leaves.size() < 3) continue;  // not a nested chain

    // The advisory only holds when the whole series shares one metadata
    // blob: that is what lets the engine integrate once and fold the
    // severity phase in a single batched sweep.
    const std::uint64_t digest = plan.nodes[leaves.front()].operand.meta_digest;
    if (digest == 0) continue;  // legacy inline metadata — unknowable
    bool uniform = true;
    for (std::size_t leaf : leaves) {
      if (plan.nodes[leaf].operand.meta_digest != digest) {
        uniform = false;
        break;
      }
    }
    if (!uniform) continue;

    sink.note(
        "perf.series-foldable", plan.nodes[i].canonical,
        "nested " + std::string(op_name(node.op)) + " chain folds " +
            std::to_string(leaves.size()) +
            " operands with identical metadata through " +
            std::to_string(depth + 1) + " applications",
        "flatten into one n-ary " + std::string(op_name(node.op)) +
            "(...) so the engine integrates once and reduces the series in "
            "a single batched sweep");
  }
}

}  // namespace cube::query
