#include "query/query_expr.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "testutil.hpp"

namespace cube::query {
namespace {

using cube::testing::make_small;
using cube::testing::make_variant;

TEST(QueryParserTest, PlainCompositeGrammarStillParses) {
  const auto e = parse_query("diff(mean(a, b), c)");
  EXPECT_EQ(e->str(), "diff(mean(a, b), c)");
  EXPECT_EQ(e->kind(), QueryExpr::Kind::Apply);
  EXPECT_EQ(e->op(), QueryExpr::Op::Diff);
}

TEST(QueryParserTest, SelectorsParseAndRenderCanonically) {
  EXPECT_EQ(parse_query("id(pescan-4n)")->str(), "id(pescan-4n)");
  EXPECT_EQ(parse_query("id(\"pescan-4n\")")->str(), "id(pescan-4n)");
  EXPECT_EQ(parse_query("series(run)")->str(), "series(run)");
  EXPECT_EQ(parse_query("attr(app=sweep3d, nodes=16)")->str(),
            "attr(app=sweep3d, nodes=16)");
  // Values needing quotes keep them.
  EXPECT_EQ(parse_query("attr(name=\"a b\")")->str(), "attr(name=\"a b\")");
}

TEST(QueryParserTest, AttrValuesMayStartWithDigits) {
  const auto e = parse_query("attr(nodes=16)");
  ASSERT_EQ(e->pairs().size(), 1u);
  EXPECT_EQ(e->pairs()[0].first, "nodes");
  EXPECT_EQ(e->pairs()[0].second, "16");
}

TEST(QueryParserTest, SelectorsNestInsideOperators) {
  const auto e = parse_query(
      "diff(mean(attr(run=before)), mean(attr(run=after)))");
  EXPECT_EQ(e->str(), "diff(mean(attr(run=before)), mean(attr(run=after)))");
}

TEST(QueryParserTest, MalformedInputThrows) {
  EXPECT_THROW((void)parse_query("attr(=x)"), Error);
  EXPECT_THROW((void)parse_query("attr(k)"), Error);
  EXPECT_THROW((void)parse_query("id(\"unterminated)"), Error);
}

TEST(ExprParser, ParsesIdentifier) {
  const auto e = parse_query("before");
  EXPECT_EQ(e->kind(), QueryExpr::Kind::Ref);
  EXPECT_EQ(e->name(), "before");
  EXPECT_EQ(e->str(), "before");
}

TEST(ExprParser, ParsesNestedComposite) {
  const auto e = parse_query("diff(mean(a1, a2), mean(b1, b2))");
  EXPECT_EQ(e->op(), QueryExpr::Op::Diff);
  ASSERT_EQ(e->args().size(), 2u);
  EXPECT_EQ(e->args()[0]->op(), QueryExpr::Op::Mean);
  EXPECT_EQ(e->str(), "diff(mean(a1, a2), mean(b1, b2))");
}

TEST(ExprParser, AcceptsAliases) {
  EXPECT_EQ(parse_query("difference(a, b)")->op(), QueryExpr::Op::Diff);
  EXPECT_EQ(parse_query("avg(a)")->op(), QueryExpr::Op::Mean);
}

TEST(ExprParser, WhitespaceInsensitive) {
  const auto e = parse_query("  merge ( a ,b )  ");
  EXPECT_EQ(e->op(), QueryExpr::Op::Merge);
  EXPECT_EQ(e->str(), "merge(a, b)");
}

TEST(ExprParser, IdentifiersAllowDotsAndDashes) {
  EXPECT_EQ(parse_query("run-1.cube")->name(), "run-1.cube");
}

TEST(ExprParser, RejectsUnknownOperator) {
  EXPECT_THROW((void)parse_query("frobnicate(a, b)"), Error);
}

TEST(ExprParser, RejectsTrailingInput) {
  EXPECT_THROW((void)parse_query("a b"), Error);
}

TEST(ExprParser, RejectsEmptyArgumentList) {
  EXPECT_THROW((void)parse_query("mean()"), Error);
}

TEST(ExprParser, RejectsUnterminatedList) {
  EXPECT_THROW((void)parse_query("mean(a, b"), Error);
  EXPECT_THROW((void)parse_query("diff(a"), Error);
}

TEST(ExprParser, RejectsEmptyInput) {
  EXPECT_THROW((void)parse_query("   "), Error);
}

TEST(QueryParserTest, EnvEvaluationMatchesDirectOperatorCalls) {
  const Experiment a = make_small(StorageKind::Dense, "a");
  const Experiment b = make_variant();
  const ExperimentEnv env{{"a", &a}, {"b", &b}};
  const Experiment via_query = eval_query_with_env("diff(a, b)", env);
  const Experiment direct = difference(a, b);
  ASSERT_EQ(via_query.metadata().num_metrics(),
            direct.metadata().num_metrics());
  ASSERT_EQ(via_query.metadata().num_cnodes(),
            direct.metadata().num_cnodes());
  ASSERT_EQ(via_query.metadata().num_threads(),
            direct.metadata().num_threads());
  for (MetricIndex m = 0; m < direct.metadata().num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < direct.metadata().num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < direct.metadata().num_threads(); ++t) {
        ASSERT_EQ(via_query.severity().get(m, c, t),
                  direct.severity().get(m, c, t));
      }
    }
  }
  EXPECT_EQ(via_query.name(), direct.name());
}

TEST(QueryParserTest, EnvEvaluationRejectsSelectors) {
  const Experiment a = make_small();
  const ExperimentEnv env{{"a", &a}};
  EXPECT_THROW((void)eval_query_with_env("mean(attr(run=before))", env),
               OperationError);
  EXPECT_THROW((void)eval_query_with_env("diff(a, id(x))", env),
               OperationError);
  EXPECT_THROW((void)eval_query_with_env("series(run)", env),
               OperationError);
}

TEST(ExprEval, LoadClonesFromEnvironment) {
  const Experiment a = make_small();
  Experiment out = eval_query_with_env("small", {{"small", &a}});
  EXPECT_EQ(out.name(), "small");
  EXPECT_DOUBLE_EQ(out.severity().get(0, 0, 0), a.severity().get(0, 0, 0));
  // A bare-ref root is a copy: writing to it leaves the binding alone.
  out.severity().set(0, 0, 0, a.severity().get(0, 0, 0) + 1.0);
  EXPECT_NE(out.severity().get(0, 0, 0), a.severity().get(0, 0, 0));
}

TEST(ExprEval, UnboundNameThrows) {
  EXPECT_THROW((void)eval_query_with_env("nope", {}), OperationError);
  const Experiment a = make_small();
  EXPECT_THROW((void)eval_query_with_env("mean(a, nope)", {{"a", &a}}),
               OperationError);
}

TEST(ExprEval, DiffRequiresTwoArgs) {
  const Experiment a = make_small();
  EXPECT_THROW((void)eval_query_with_env("diff(a)", {{"a", &a}}),
               OperationError);
  EXPECT_THROW((void)eval_query_with_env("diff(a, a, a)", {{"a", &a}}),
               OperationError);
}

TEST(ExprEval, DiffOfMeansMatchesManualComposition) {
  Experiment a1 = make_small(StorageKind::Dense, "a1");
  Experiment a2 = make_small(StorageKind::Dense, "a2");
  Experiment b1 = make_small(StorageKind::Dense, "b1");
  a1.severity().set(0, 0, 0, 10.0);
  a2.severity().set(0, 0, 0, 20.0);
  b1.severity().set(0, 0, 0, 5.0);

  const Experiment out = eval_query_with_env(
      "diff(mean(a1, a2), b1)", {{"a1", &a1}, {"a2", &a2}, {"b1", &b1}});
  EXPECT_DOUBLE_EQ(out.severity().get(0, 0, 0), 15.0 - 5.0);
  EXPECT_EQ(out.kind(), ExperimentKind::Derived);
}

TEST(ExprEval, MergeAndExtremaWork) {
  const Experiment a = make_small();
  const Experiment b = make_variant();
  const ExperimentEnv env{{"a", &a}, {"b", &b}};
  EXPECT_NO_THROW((void)eval_query_with_env("merge(a, b)", env));
  EXPECT_NO_THROW((void)eval_query_with_env("min(a, b)", env));
  EXPECT_NO_THROW((void)eval_query_with_env("max(a, b)", env));
}

TEST(ExprEval, DeepNestingComposes) {
  const Experiment a = make_small();
  const ExperimentEnv env{{"a", &a}};
  // Closure: any depth of composition stays in the experiment space.
  const Experiment out =
      eval_query_with_env("diff(mean(a, a, a), min(a, max(a, a)))", env);
  EXPECT_NO_THROW(out.metadata().validate());
  for (MetricIndex m = 0; m < out.metadata().num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < out.metadata().num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < out.metadata().num_threads(); ++t) {
        EXPECT_NEAR(out.severity().get(m, c, t), 0.0, 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace cube::query
