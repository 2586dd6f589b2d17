// In-memory lint rules: value domain, attributes, forest shape, and the
// cross-experiment compatibility pre-checks.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "testutil.hpp"

namespace {

using cube::Experiment;
using cube::Metadata;
using cube::StorageKind;
using cube::Unit;
using cube::ValidationError;
using cube::lint::DiagnosticSink;
using cube::lint::Options;
using cube::testing::make_small;
using cube::testing::make_variant;

TEST(LintRules, CleanExperimentReportsNothing) {
  for (const StorageKind kind : {StorageKind::Dense, StorageKind::Sparse}) {
    const Experiment e = make_small(kind);
    DiagnosticSink sink;
    cube::lint::lint_experiment(e, sink);
    EXPECT_TRUE(sink.empty()) << "storage kind " << static_cast<int>(kind);
  }
}

TEST(LintRules, NonFiniteSeverityIsAnError) {
  Experiment e = make_small();
  e.severity().set(0, 1, 2, std::numeric_limits<double>::quiet_NaN());
  e.severity().set(1, 0, 0, std::numeric_limits<double>::infinity());
  DiagnosticSink sink;
  cube::lint::lint_experiment(e, sink);
  EXPECT_EQ(sink.errors(), 2u);
  EXPECT_TRUE(sink.has_rule("sev.non-finite"));
  // The location names the entities, not just raw indices.
  EXPECT_NE(sink.diagnostics()[0].location.find("metric \"time\""),
            std::string::npos);
  EXPECT_NE(sink.diagnostics()[0].location.find("thread #2"),
            std::string::npos);
}

TEST(LintRules, NegativeSeverityWarnsOnlyInOriginalExperiments) {
  Experiment original = make_small();
  original.severity().set(0, 0, 0, -1.0);
  DiagnosticSink sink;
  cube::lint::lint_experiment(original, sink);
  EXPECT_EQ(sink.warnings(), 1u);
  EXPECT_TRUE(sink.has_rule("sev.negative"));

  Experiment derived = make_small();
  derived.mark_derived("difference(a, b)");
  derived.severity().set(0, 0, 0, -1.0);
  DiagnosticSink sink2;
  cube::lint::lint_experiment(derived, sink2);
  EXPECT_TRUE(sink2.empty());  // differences legitimately go negative
}

TEST(LintRules, ValueFindingsFoldIntoSummaryPastTheCap) {
  Experiment e = make_small(StorageKind::Sparse);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t t = 0; t < 4; ++t) {
      e.severity().set(0, c, t, std::numeric_limits<double>::quiet_NaN());
    }
  }
  Options options;
  options.max_per_rule = 3;
  DiagnosticSink sink;
  cube::lint::lint_experiment(e, sink, options);
  // 16 bad cells: 3 reported individually, the remaining 13 fold into one
  // summary diagnostic naming the total.
  std::size_t reported = 0;
  bool summary_seen = false;
  for (const auto& d : sink.diagnostics()) {
    if (d.rule != "sev.non-finite") continue;
    ++reported;
    if (d.message.find("16 in total") != std::string::npos) summary_seen = true;
  }
  EXPECT_EQ(reported, 4u);
  EXPECT_TRUE(summary_seen);
  EXPECT_EQ(sink.errors(), 4u);

  options.check_values = false;
  DiagnosticSink sink2;
  cube::lint::lint_experiment(e, sink2, options);
  EXPECT_TRUE(sink2.empty());
}

TEST(LintRules, ShadowedRegionWarns) {
  auto md = std::make_unique<Metadata>();
  md->add_metric(nullptr, "time", "Time", Unit::Seconds);
  const auto& r1 = md->add_region("work", "app.c", 1, 10);
  md->add_region("work", "app.c", 20, 30);  // same (name, module)
  md->add_cnode_for_region(nullptr, r1);
  auto& machine = md->add_machine("m");
  auto& node = md->add_node(machine, "n");
  auto& process = md->add_process(node, "rank 0", 0);
  md->add_thread(process, "thread 0", 0);

  DiagnosticSink sink;
  cube::lint::lint_metadata(*md, sink);
  EXPECT_TRUE(sink.has_rule("forest.shadowed-region"));
  EXPECT_TRUE(sink.has_rule("meta.unfrozen"));  // linted pre-freeze
  EXPECT_EQ(sink.errors(), 0u);
}

TEST(LintRules, EmptySystemLevels) {
  auto md = std::make_unique<Metadata>();
  md->add_metric(nullptr, "time", "Time", Unit::Seconds);
  const auto& r = md->add_region("main", "app.c", 1, 10);
  md->add_cnode_for_region(nullptr, r);
  auto& m0 = md->add_machine("empty-machine");
  (void)m0;
  auto& m1 = md->add_machine("m1");
  auto& empty_node = md->add_node(m1, "empty-node");
  (void)empty_node;
  auto& node = md->add_node(m1, "n1");
  md->add_process(node, "threadless", 0);  // no threads

  DiagnosticSink sink;
  cube::lint::lint_metadata(*md, sink);
  EXPECT_TRUE(sink.has_rule("forest.empty-machine"));
  EXPECT_TRUE(sink.has_rule("forest.empty-node"));
  EXPECT_TRUE(sink.has_rule("forest.empty-process"));
  EXPECT_TRUE(sink.has_rule("forest.empty-dimension"));  // zero threads
  EXPECT_GE(sink.errors(), 1u);  // the threadless process is an error
}

TEST(LintRules, UnknownKindAttributeWarns) {
  Experiment e = make_small();
  e.set_attribute("cube::kind", "bogus");
  DiagnosticSink sink;
  cube::lint::lint_experiment(e, sink);
  EXPECT_TRUE(sink.has_rule("attr.bad-kind"));
  EXPECT_EQ(sink.errors(), 0u);
}

TEST(LintRules, DerivedWithoutProvenanceNotes) {
  Experiment e = make_small();
  e.set_attribute("cube::kind", "derived");
  DiagnosticSink sink;
  cube::lint::lint_experiment(e, sink);
  EXPECT_TRUE(sink.has_rule("attr.missing-provenance"));
  EXPECT_EQ(sink.exit_code(), 0);  // a note, not a warning
}

TEST(LintCompat, CompatibleOperandsReportNothing) {
  const Experiment a = make_small();
  const Experiment b = make_small();
  const std::vector<const Experiment*> operands{&a, &b};
  DiagnosticSink sink;
  cube::lint::lint_compatibility(operands, sink);
  EXPECT_TRUE(sink.empty());
}

TEST(LintCompat, UnitConflictIsAnError) {
  const Experiment a = make_small();
  auto md = std::make_unique<Metadata>();
  md->add_metric(nullptr, "time", "Time", Unit::Bytes);  // unit clash
  const auto& r = md->add_region("main", "app.c", 1, 10);
  md->add_cnode_for_region(nullptr, r);
  auto& machine = md->add_machine("m");
  auto& node = md->add_node(machine, "n");
  auto& process = md->add_process(node, "rank 0", 0);
  md->add_thread(process, "thread 0", 0);
  const Experiment b{std::move(md)};

  const std::vector<const Experiment*> operands{&a, &b};
  DiagnosticSink sink;
  cube::lint::lint_compatibility(operands, sink);
  EXPECT_TRUE(sink.has_rule("compat.metric-unit"));
  EXPECT_GE(sink.errors(), 1u);
}

TEST(LintCompat, DifferingThreadShapesAndMixedKindsNote) {
  const Experiment a = make_small();       // 2 ranks
  const Experiment b = make_variant();     // 3 ranks
  Experiment c = make_small();
  c.mark_derived("difference(x, y)");
  const std::vector<const Experiment*> operands{&a, &b, &c};
  DiagnosticSink sink;
  cube::lint::lint_compatibility(operands, sink);
  EXPECT_TRUE(sink.has_rule("compat.thread-shape"));
  EXPECT_TRUE(sink.has_rule("compat.mixed-kind"));
  EXPECT_EQ(sink.errors(), 0u);
  EXPECT_EQ(sink.warnings(), 0u);
}

TEST(LintRules, RequireValidThrowsWithContextAndRule) {
  const Experiment clean = make_small();
  EXPECT_NO_THROW(cube::lint::require_valid(clean, "runs/clean.cube"));

  Experiment bad = make_small();
  bad.severity().set(0, 0, 0, std::numeric_limits<double>::quiet_NaN());
  try {
    cube::lint::require_valid(bad, "runs/bad.cube");
    FAIL() << "require_valid accepted a NaN severity";
  } catch (const ValidationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("runs/bad.cube"), std::string::npos);
    EXPECT_NE(what.find("sev.non-finite"), std::string::npos);
  }
}

}  // namespace
