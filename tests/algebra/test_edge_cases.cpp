// Edge cases of integration and operators beyond the main suites.
#include <gtest/gtest.h>

#include "algebra/operators.hpp"
#include "common/error.hpp"
#include "query/query_expr.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;
using cube::testing::make_variant;

TEST(MergeChain, OwnershipStaysWithEarliestProvider) {
  // merge is left-associative in provenance; a metric provided by several
  // operands is always taken from the earliest one in the chain.
  Experiment a = make_small(StorageKind::Dense, "a");
  Experiment b = make_small(StorageKind::Dense, "b");
  Experiment c = make_small(StorageKind::Dense, "c");
  a.severity().set(0, 0, 0, 1.0);
  b.severity().set(0, 0, 0, 2.0);
  c.severity().set(0, 0, 0, 3.0);
  const Experiment m1 = merge(merge(a, b), c);
  EXPECT_DOUBLE_EQ(m1.severity().get(0, 0, 0), 1.0);
  const Experiment m2 = merge(a, merge(b, c));
  EXPECT_DOUBLE_EQ(m2.severity().get(0, 0, 0), 1.0);
}

TEST(IntegrationOptions, CallsiteFileMattersSplitsPaths) {
  // Two experiments whose "work" call sites live in different files: with
  // the switch enabled they stay separate call paths.
  auto build = [](const std::string& file) {
    auto md = std::make_unique<Metadata>();
    md->add_metric(nullptr, "time", "Time", Unit::Seconds, "");
    const Region& r_main = md->add_region("main", "app.c", 1, 9);
    const Region& r_work = md->add_region("work", "app.c", 10, 20);
    const Cnode& c_main = md->add_cnode_for_region(nullptr, r_main, "app.c",
                                                   1);
    md->add_cnode_for_region(&c_main, r_work, file, 5);
    Machine& m = md->add_machine("m");
    Process& p = md->add_process(md->add_node(m, "n"), "r0", 0);
    md->add_thread(p, "t", 0);
    return Experiment(std::move(md));
  };
  const Experiment a = build("caller1.c");
  const Experiment b = build("caller2.c");

  const IntegrationResult merged_default = integrate_metadata(a, b);
  EXPECT_EQ(merged_default.metadata->num_cnodes(), 2u);  // matched

  IntegrationOptions opts;
  opts.callsite_file_matters = true;
  const IntegrationResult split = integrate_metadata(a, b, opts);
  EXPECT_EQ(split.metadata->num_cnodes(), 3u);  // work kept twice
}

TEST(Integration, DisplayNameTakenFromFirstOperand) {
  Experiment a = make_small();
  Experiment b = make_small(StorageKind::Dense, "b");
  // Rename b's display name; the representative (first operand) wins.
  const IntegrationResult r = integrate_metadata(a, b);
  EXPECT_EQ(r.metadata->find_metric("time")->display_name(), "Time");
}

TEST(Difference, OfDerivedExperimentsStaysClosed) {
  const Experiment a = make_small(StorageKind::Dense, "a");
  const Experiment b = make_variant(StorageKind::Dense, "b");
  const Experiment d1 = difference(a, b);
  const Experiment d2 = difference(b, a);
  const Experiment sum = difference(d1, d2);  // = 2*(a - b) element-wise
  EXPECT_NO_THROW(sum.metadata().validate());
  EXPECT_EQ(sum.kind(), ExperimentKind::Derived);
  // Check one witness cell: (time, main, rank0 t0).
  const Metric& time = *sum.metadata().find_metric("time");
  const Cnode& main_c = *sum.metadata().cnodes()[0];
  const Thread& t0 = *sum.metadata().threads()[0];
  const Metric& ta = *a.metadata().find_metric("time");
  const Metric& tb = *b.metadata().find_metric("time");
  const double expected = 2.0 * (a.get(ta, *a.metadata().cnodes()[0],
                                       *a.metadata().threads()[0]) -
                                 b.get(tb, *b.metadata().cnodes()[0],
                                       *b.metadata().threads()[0]));
  EXPECT_DOUBLE_EQ(sum.get(time, main_c, t0), expected);
}

TEST(Composite, OptionsPropagateToOperators) {
  const Experiment a = make_small();
  OperatorOptions opts;
  opts.storage = StorageKind::Sparse;
  const Experiment out =
      query::eval_query_with_env("mean(a, a)", {{"a", &a}}, opts);
  EXPECT_EQ(out.severity().kind(), StorageKind::Sparse);
}

TEST(Mean, ManyOperands) {
  std::vector<Experiment> runs;
  for (int i = 0; i < 12; ++i) {
    runs.push_back(make_small(StorageKind::Dense,
                              "run" + std::to_string(i)));
    runs.back().severity().set(0, 0, 0, static_cast<double>(i));
  }
  std::vector<const Experiment*> ptrs;
  for (const auto& e : runs) ptrs.push_back(&e);
  const Experiment m = mean(ptrs);
  EXPECT_DOUBLE_EQ(m.severity().get(0, 0, 0), 5.5);  // mean of 0..11
}

TEST(Integration, ManyOperandsShareMetadataOnce) {
  std::vector<Experiment> runs;
  std::vector<const Experiment*> ptrs;
  for (int i = 0; i < 10; ++i) {
    runs.push_back(make_small());
  }
  for (const auto& e : runs) ptrs.push_back(&e);
  const IntegrationResult r =
      integrate_metadata(std::span<const Experiment* const>(ptrs), {});
  EXPECT_EQ(r.metadata->num_metrics(), runs[0].metadata().num_metrics());
  EXPECT_EQ(r.metadata->num_cnodes(), runs[0].metadata().num_cnodes());
  EXPECT_EQ(r.mappings.size(), 10u);
}

TEST(Operators, NullOperandRejected) {
  const Experiment a = make_small();
  const Experiment* ops[] = {&a, nullptr};
  EXPECT_THROW(
      (void)integrate_metadata(std::span<const Experiment* const>(ops, 2),
                               {}),
      OperationError);
}

TEST(Difference, EmptySeverityOperands) {
  // Experiments with all-zero severities are valid operands.
  Experiment a(make_small().metadata().clone());
  Experiment b(make_small().metadata().clone());
  const Experiment d = difference(a, b);
  EXPECT_EQ(d.severity().nonzero_count(), 0u);
}

TEST(Extremum, SingleOperandIsIdentityOnTotals) {
  const Experiment a = make_small();
  const Experiment* ops[] = {&a};
  const Experiment lo = minimum(std::span<const Experiment* const>(ops, 1));
  const Metric& time_lo = *lo.metadata().find_metric("time");
  const Metric& time_a = *a.metadata().find_metric("time");
  EXPECT_DOUBLE_EQ(lo.sum_metric_tree(time_lo), a.sum_metric_tree(time_a));
}

}  // namespace
}  // namespace cube
