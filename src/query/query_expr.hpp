// Query expressions: the one expression language of the algebra.
// Because every operator maps back into the space of valid experiments, a
// user can "easily define composite operations, for example, in order to
// compute the difference of averaged data" (paper §1).  Beyond plain
// names, a query may use repository SELECTORS, so it names the stored
// experiments it operates on instead of relying on a caller-built
// environment:
//
//     diff(mean(attr(run=before)), mean(attr(run=after)))
//
// Grammar:
//
//     expr     := func '(' expr (',' expr)* ')' | selector | ident
//     func     := "diff" | "difference" | "merge"
//               | "mean" | "avg" | "min" | "max"
//     selector := "id" '(' value ')'
//               | "attr" '(' kv (',' kv)* ')'
//               | "series" '(' value ')'
//     kv       := ident '=' value
//     value    := bareword | '"' [^"]* '"'
//     ident    := [A-Za-z_][A-Za-z0-9_.-]*
//     bareword := [A-Za-z0-9_.:+-]+
//
// A bare ident leaf is an environment reference (the name=file bindings of
// cube_calc and cube_viewer); against a repository it resolves like
// id(ident).  Selectors resolve to LISTS of stored experiments: a list
// splices into the argument list of the n-ary reductions (mean/min/max),
// while positions requiring exactly one experiment (diff/merge operands,
// the query root) reject empty or ambiguous matches.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algebra/operators.hpp"
#include "model/experiment.hpp"

namespace cube::query {

/// Environment binding reference names to experiments.
using ExperimentEnv = std::map<std::string, const Experiment*>;

class QueryExpr {
 public:
  enum class Kind { Ref, Id, Attr, Series, Apply };
  enum class Op { Diff, Merge, Mean, Min, Max };

  /// Leaf: environment reference / repository id shorthand.
  [[nodiscard]] static std::unique_ptr<QueryExpr> ref(std::string name);
  /// Selector leaves.
  [[nodiscard]] static std::unique_ptr<QueryExpr> id(std::string id);
  [[nodiscard]] static std::unique_ptr<QueryExpr> attr(
      std::vector<std::pair<std::string, std::string>> pairs);
  [[nodiscard]] static std::unique_ptr<QueryExpr> series(std::string prefix);
  /// Inner node; arity is checked at plan/eval time (selector splicing
  /// means it is not known syntactically).
  [[nodiscard]] static std::unique_ptr<QueryExpr> apply(
      Op op, std::vector<std::unique_ptr<QueryExpr>> args);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] Op op() const noexcept { return op_; }
  /// Ref name, Id id, or Series prefix.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  pairs() const noexcept {
    return pairs_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<QueryExpr>>& args()
      const noexcept {
    return args_;
  }

  /// Canonical textual rendering (values quoted only when necessary).
  [[nodiscard]] std::string str() const;

 private:
  QueryExpr(Kind kind, Op op, std::string name,
            std::vector<std::pair<std::string, std::string>> pairs,
            std::vector<std::unique_ptr<QueryExpr>> args);

  Kind kind_;
  Op op_ = Op::Mean;  // meaningful for Apply only
  std::string name_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::vector<std::unique_ptr<QueryExpr>> args_;
};

[[nodiscard]] const char* op_name(QueryExpr::Op op) noexcept;

/// The arity rule: diff and merge take exactly 2 operands, the n-ary
/// reductions at least 1.  Throws OperationError naming `expr` otherwise.
void check_arity(const QueryExpr& expr, std::size_t operands);

/// Applies `op` to operands that passed check_arity.
[[nodiscard]] Experiment apply_query_op(
    QueryExpr::Op op, std::span<const Experiment* const> operands,
    const OperatorOptions& options);

/// Parses the query grammar; throws cube::Error with offset information.
[[nodiscard]] std::unique_ptr<QueryExpr> parse_query(std::string_view text);

/// Parses and evaluates against an environment (no repository): leaves
/// are passed to the operators in place, a bare-ref root is returned as a
/// copy.  Throws OperationError on an unbound name, a wrong arity, or a
/// selector — those need a repository to resolve.
[[nodiscard]] Experiment eval_query_with_env(
    std::string_view text, const ExperimentEnv& env,
    const OperatorOptions& options = {});

}  // namespace cube::query
