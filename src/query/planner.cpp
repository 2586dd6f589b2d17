#include "query/planner.hpp"

#include <map>
#include <string_view>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"

namespace cube::query {

namespace {

/// Version tag mixed into every apply key; bump when the planner, an
/// operator's semantics, or the cache layout changes incompatibly.
constexpr std::string_view kCacheFormatVersion = "cube-query/v1";

bool is_cache_entry(const RepoEntry& entry) {
  return entry.attributes.count(kCacheKeyAttribute) != 0;
}

/// Operator options that influence result VALUES, rendered into the cache
/// key.  parallel_for is deliberately excluded: row-chunked execution is
/// bit-identical to sequential (see algebra/operators.hpp).
std::string options_tag(const OperatorOptions& options) {
  std::string tag = "sp=";
  tag += std::to_string(static_cast<int>(options.integration.system_policy));
  tag += ";cf=";
  tag += options.integration.callsite_file_matters ? '1' : '0';
  tag += ";kt=";
  tag += options.integration.keep_topology ? '1' : '0';
  tag += ";st=";
  tag += std::to_string(static_cast<int>(options.storage));
  return tag;
}

class Planner {
 public:
  // Each selector resolves through its own shared-locked lookup, which
  // copies only its matches (never the whole index); a store or remove
  // landing between two lookups of one plan is seen by the later ones.
  Planner(const ExperimentRepository& repo, const OperatorOptions& options)
      : repo_(repo), options_(options) {}

  QueryPlan run(const QueryExpr& expr) {
    const std::vector<std::size_t> roots = plan_node(expr);
    if (roots.size() != 1) {
      throw OperationError(
          "query root " + expr.str() + " resolves to " +
          std::to_string(roots.size()) +
          " experiments; wrap the selector in mean/min/max/merge to "
          "reduce it to one");
    }
    plan_.root = roots[0];
    return std::move(plan_);
  }

 private:
  /// Plans one expression; returns the DAG nodes it stands for (one node,
  /// except for selectors, which stand for their whole match list).
  std::vector<std::size_t> plan_node(const QueryExpr& expr) {
    switch (expr.kind()) {
      case QueryExpr::Kind::Ref:
      case QueryExpr::Kind::Id:
        return {find_id(expr)};
      case QueryExpr::Kind::Attr:
      case QueryExpr::Kind::Series: {
        std::vector<std::size_t> nodes;
        for (const RepoEntry& entry : match_selector(expr)) {
          nodes.push_back(load_node(entry));
        }
        return nodes;
      }
      case QueryExpr::Kind::Apply:
        return {apply_node(expr)};
    }
    throw OperationError("unreachable query expression kind");
  }

  std::size_t apply_node(const QueryExpr& expr) {
    std::vector<std::size_t> operands;
    for (const auto& arg : expr.args()) {
      const std::vector<std::size_t> sub = plan_node(*arg);
      operands.insert(operands.end(), sub.begin(), sub.end());
    }
    check_arity(expr, operands.size());

    std::string canonical = op_name(expr.op());
    canonical += '(';
    for (std::size_t i = 0; i < operands.size(); ++i) {
      if (i > 0) canonical += ", ";
      canonical += plan_.nodes[operands[i]].canonical;
    }
    canonical += ')';
    const auto known = cse_.find(canonical);
    if (known != cse_.end()) {
      ++plan_.cse_reused;
      return known->second;
    }

    Fnv1a key;
    key.update(kCacheFormatVersion)
        .update("|")
        .update(op_name(expr.op()))
        .update("|")
        .update(options_tag(options_));
    for (const std::size_t child : operands) {
      key.update(plan_.nodes[child].key);
    }

    PlanNode node;
    node.kind = PlanNode::Kind::Apply;
    node.op = expr.op();
    node.args = std::move(operands);
    node.canonical = canonical;
    node.key = key.value();
    plan_.nodes.push_back(std::move(node));
    const std::size_t index = plan_.nodes.size() - 1;
    cse_.emplace(std::move(canonical), index);
    return index;
  }

  /// The load node of the entry `expr` names, planned from the index
  /// record in place (no copy of the entry).
  std::size_t find_id(const QueryExpr& expr) {
    std::size_t node = 0;
    if (!repo_.with_entry(expr.name(), [&](const RepoEntry& entry) {
          node = load_node(entry);
        })) {
      throw Error("repository has no experiment with id '" + expr.name() +
                  "' (referenced by " + expr.str() + ")");
    }
    return node;
  }

  std::vector<RepoEntry> match_selector(const QueryExpr& expr) {
    std::vector<RepoEntry> matches = expr.kind() == QueryExpr::Kind::Series
                                         ? repo_.series(expr.name())
                                         : repo_.select(expr.pairs());
    std::erase_if(matches, is_cache_entry);
    if (matches.empty()) {
      throw OperationError("selector " + expr.str() +
                           " matches no experiment in '" +
                           repo_.directory().string() + "'");
    }
    return matches;
  }

  std::size_t load_node(const RepoEntry& entry) {
    const auto known = loads_.find(entry.id);
    if (known != loads_.end()) {
      ++plan_.cse_reused;
      return known->second;
    }
    PlanNode node;
    node.kind = PlanNode::Kind::Load;
    node.operand.id = entry.id;
    node.operand.file = entry.file;
    node.operand.format = entry.format;
    if (!entry.digest) {
      // Only an entry whose file was unreadable when its digest-less
      // (older) index record was read lacks a digest.
      throw IoError("cannot read '" +
                    (repo_.directory() / entry.file).string() + "' for digest");
    }
    node.operand.digest = *entry.digest;
    node.operand.bytes = entry.bytes;
    const auto kind = entry.attributes.find("cube::kind");
    node.operand.derived =
        kind != entry.attributes.end() && kind->second == "derived";
    node.canonical =
        "id:" + entry.id + "@" + digest_hex(node.operand.digest);
    if (!entry.sev.empty() &&
        !parse_hex64(entry.sev, node.operand.sev_digest)) {
      // Not part of the key (the file digest already covers the <sevref>);
      // recorded so the static analyzer can stat the blob header.
      node.operand.sev_digest = 0;
    }
    if (!entry.meta.empty() &&
        parse_hex64(entry.meta, node.operand.meta_digest)) {
      // Blob-backed entry: the file holds only a digest reference, so the
      // metadata's own structural digest joins the key.  Legacy inline
      // entries keep the bare file digest — their pre-refactor cache keys
      // stay valid.
      node.key = Fnv1a()
                     .update(node.operand.digest)
                     .update(node.operand.meta_digest)
                     .value();
    } else {
      node.key = node.operand.digest;
    }
    plan_.nodes.push_back(std::move(node));
    const std::size_t index = plan_.nodes.size() - 1;
    loads_.emplace(entry.id, index);
    return index;
  }

  const ExperimentRepository& repo_;
  const OperatorOptions& options_;
  QueryPlan plan_;
  std::map<std::string, std::size_t> cse_;   // canonical -> node
  std::map<std::string, std::size_t> loads_;  // id -> node
};

}  // namespace

QueryPlan plan_query(const QueryExpr& expr, const ExperimentRepository& repo,
                     const OperatorOptions& options) {
  return Planner(repo, options).run(expr);
}

}  // namespace cube::query
