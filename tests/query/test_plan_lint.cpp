#include "query/analyze.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "lint/diagnostics.hpp"
#include "query/planner.hpp"
#include "testutil.hpp"

namespace cube::query {
namespace {

using cube::testing::make_small;
using cube::testing::make_variant;

class PlanLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_plan_lint_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    std::filesystem::remove_all(dir_);
    repo_ = std::make_unique<ExperimentRepository>(dir_);
  }
  void TearDown() override {
    repo_.reset();
    std::filesystem::remove_all(dir_);
  }

  void store_named(const std::string& name) {
    Experiment e = make_small(StorageKind::Dense, name);
    (void)repo_->store(e);
  }

  lint::DiagnosticSink lint_expr(const std::string& text) {
    lint::DiagnosticSink sink;
    lint_plan(plan_query(*parse_query(text), *repo_), sink);
    return sink;
  }

  std::filesystem::path dir_;
  std::unique_ptr<ExperimentRepository> repo_;
};

TEST_F(PlanLintTest, NestedSameOpChainOverOneMetadataFires) {
  store_named("a");
  store_named("b");
  store_named("c");
  const auto sink = lint_expr("mean(mean(a, b), c)");
  ASSERT_TRUE(sink.has_rule("perf.series-foldable"));
  EXPECT_EQ(sink.notes(), 1u);
  EXPECT_EQ(sink.errors(), 0u);
  const lint::Diagnostic& d = sink.diagnostics().front();
  EXPECT_EQ(d.level, lint::Level::Note);
  EXPECT_NE(d.message.find("3 operands"), std::string::npos) << d.message;
  EXPECT_NE(d.message.find("2 applications"), std::string::npos) << d.message;
  EXPECT_NE(d.hint.find("n-ary"), std::string::npos) << d.hint;
}

TEST_F(PlanLintTest, DeeperChainReportsOnceAtTheRoot) {
  store_named("a");
  store_named("b");
  store_named("c");
  store_named("d");
  const auto sink = lint_expr("min(min(min(a, b), c), d)");
  EXPECT_EQ(sink.notes(), 1u);
  EXPECT_NE(sink.diagnostics().front().message.find("3 applications"),
            std::string::npos);
}

TEST_F(PlanLintTest, FlatNaryReductionIsQuiet) {
  store_named("a");
  store_named("b");
  store_named("c");
  EXPECT_TRUE(lint_expr("mean(a, b, c)").empty());
}

TEST_F(PlanLintTest, MixedOperatorNestingIsQuiet) {
  store_named("a");
  store_named("b");
  store_named("c");
  // min inside mean is not a foldable chain: the operators differ.
  EXPECT_TRUE(lint_expr("mean(min(a, b), c)").empty());
}

TEST_F(PlanLintTest, DiffChainsAreNotFoldable) {
  store_named("a");
  store_named("b");
  store_named("c");
  // Difference is not commutative-associative; nesting is the only way
  // to express it and must stay quiet.
  EXPECT_TRUE(lint_expr("diff(diff(a, b), c)").empty());
}

TEST_F(PlanLintTest, MixedMetadataSeriesIsQuiet) {
  store_named("a");
  store_named("b");
  Experiment v = make_variant(StorageKind::Dense, "c");
  (void)repo_->store(v);
  // The variant has different metadata: integrating per nesting level
  // does real merge work, so the single-sweep advisory does not apply.
  EXPECT_TRUE(lint_expr("mean(mean(a, b), c)").empty());
}

TEST_F(PlanLintTest, ChainThroughAForeignApplyIsQuiet) {
  store_named("a");
  store_named("b");
  store_named("c");
  store_named("d");
  // The inner mean's sibling is a diff result, not a load: flattening
  // would change the cached intermediates, so no advisory.
  EXPECT_TRUE(lint_expr("mean(mean(a, b), diff(c, d))").empty());
}

}  // namespace
}  // namespace cube::query
