// Query planner: resolves a QueryExpr against an ExperimentRepository
// into an evaluation DAG.
//
// Planning proceeds in three steps:
//  1. SELECTOR RESOLUTION — id()/attr()/series() leaves (and bare refs,
//     which act like id()) are looked up in the repository's index maps
//     (find/select/series — O(matches), never a scan of the repository)
//     and replaced by concrete operand lists.  attr() and series() skip
//     cache entries (entries carrying "cube::cache-key"), so derived
//     cubes the engine persisted never feed back into aggregates;
//     id()/refs address any entry exactly, cached cubes included.
//  2. CANONICALIZATION + CSE — every node gets a canonical string over
//     RESOLVED operands (ids + content digests, not surface syntax);
//     structurally identical subexpressions collapse into one DAG node,
//     so mean(attr(run=before)) appearing twice is planned, loaded, and
//     evaluated once.
//  3. CACHE KEYS — each node gets a content-addressed digest: a load
//     node's key is the FNV-1a digest of its file's bytes, as recorded in
//     the index when the file was stored; an apply node's key hashes
//     (format version, operator, operator options, child keys).
//     Re-storing different data under the same id changes the file
//     digest and therefore every downstream key.
//
// Planning reads no file: every input comes from the index records.  A
// file edited behind the repository's back therefore keeps its recorded
// digest; cube_lint (repo.digest-mismatch) and QueryOptions::
// validate_loads catch that.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "algebra/operators.hpp"
#include "io/repository.hpp"
#include "query/query_expr.hpp"

namespace cube::query {

/// Attribute under which the engine records a derived cube's cache key
/// when persisting it into the repository (defined next to the index,
/// which serves its lookups).
using cube::kCacheKeyAttribute;
/// Attribute recording the canonical sub-expression a cached cube answers.
inline constexpr const char* kCacheExprAttribute = "cube::cache-expr";
/// Attribute listing the content digests (space-separated 016x hex) of the
/// leaf operand files a cached cube was computed from.  The analysis
/// server's shared result cache is keyed purely by such digests, so lint
/// can flag entries whose operands no longer resolve to any repository
/// file (rule repo.stale-cache-operand) — dead weight a digest-keyed
/// cache can never serve again.
inline constexpr const char* kCacheOperandsAttribute = "cube::cache-operands";

/// A stored experiment an evaluation will read.
struct ResolvedOperand {
  std::string id;               ///< repository id
  std::string file;             ///< file path relative to the repository
  RepoFormat format = RepoFormat::Xml;
  std::uint64_t digest = 0;     ///< FNV-1a of the file bytes (recorded)
  std::uintmax_t bytes = 0;     ///< file size (recorded)
  /// True if the entry is marked derived ("cube::kind" = "derived") —
  /// the static analyzer's original/derived classification.
  bool derived = false;
  /// Structural digest of the referenced metadata blob (0 for a legacy
  /// inline-metadata entry).  Mixed into the load key: the key must change
  /// if an entry is repointed at different metadata even though the
  /// experiment file bytes (attrs + digest + severity) happen to collide.
  std::uint64_t meta_digest = 0;
  /// Digest of the referenced CUBESEV1 severity blob (0 when the entry
  /// carries its severity inline).  The static analyzer stats the blob
  /// header through this to learn exact storage kind and nnz without
  /// loading severity.
  std::uint64_t sev_digest = 0;
};

/// One DAG node, either a repository load or an operator application.
struct PlanNode {
  enum class Kind { Load, Apply };
  Kind kind = Kind::Load;

  ResolvedOperand operand;              ///< Kind::Load
  QueryExpr::Op op = QueryExpr::Op::Mean;
  std::vector<std::size_t> args;        ///< children, Kind::Apply

  std::string canonical;  ///< canonical sub-expression over resolved ids
  std::uint64_t key = 0;  ///< content-addressed cache key
};

/// Evaluation DAG in topological order (children precede parents; the
/// root is the last node).
struct QueryPlan {
  std::vector<PlanNode> nodes;
  std::size_t root = 0;
  /// Subexpression occurrences folded away by CSE.
  std::size_t cse_reused = 0;
};

/// Plans `expr` against `repo`.  Throws OperationError on an unresolvable
/// selector (no match, or an ambiguous match where exactly one experiment
/// is required) and Error on unknown ids.
[[nodiscard]] QueryPlan plan_query(const QueryExpr& expr,
                                   const ExperimentRepository& repo,
                                   const OperatorOptions& options = {});

}  // namespace cube::query
