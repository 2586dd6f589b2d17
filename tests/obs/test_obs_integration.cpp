// Cross-stack observability tests: enabling the tracer must never change
// results — operators and query runs stay bit-identical at every thread
// count — and the built-in instrumentation must actually record spans and
// metrics from pool workers (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operators.hpp"
#include "algebra/statistics.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "io/repository.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "query/engine.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;
using cube::testing::make_variant;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable_tracing();
    obs::Tracer::instance().reset();
  }
  void TearDown() override {
    obs::disable_tracing();
    obs::Tracer::instance().reset();
  }
};

void expect_severity_identical(const Experiment& a, const Experiment& b) {
  ASSERT_EQ(a.metadata().num_metrics(), b.metadata().num_metrics());
  ASSERT_EQ(a.metadata().num_cnodes(), b.metadata().num_cnodes());
  ASSERT_EQ(a.metadata().num_threads(), b.metadata().num_threads());
  for (MetricIndex m = 0; m < a.metadata().num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < a.metadata().num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < a.metadata().num_threads(); ++t) {
        ASSERT_EQ(a.severity().get(m, c, t), b.severity().get(m, c, t))
            << "cell (" << m << ", " << c << ", " << t << ")";
      }
    }
  }
}

TEST_F(ObsIntegrationTest, TracingDoesNotChangeOperatorResults) {
  const Experiment a = make_small(StorageKind::Dense, "a");
  const Experiment b = make_variant(StorageKind::Sparse, "b");
  const std::vector<const Experiment*> ops = {&a, &b};

  // Reference: tracing off, sequential.
  const Experiment ref_diff = difference(a, b);
  const Experiment ref_mean = mean(ops);
  const Experiment ref_max = maximum(ops);

  obs::enable_tracing();
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    OperatorOptions options;
    options.parallel_for = [&pool](std::size_t n,
                                   const std::function<void(std::size_t)>&
                                       body) { pool.parallel_for(n, body); };
    options.metrics = &obs::MetricsRegistry::global();
    expect_severity_identical(difference(a, b, options), ref_diff);
    expect_severity_identical(mean(ops, options), ref_mean);
    expect_severity_identical(maximum(ops, options), ref_max);
  }
  obs::disable_tracing();

  // The operators recorded their spans.
  std::size_t operator_spans = 0;
  for (const auto& snap : obs::Tracer::instance().snapshot()) {
    for (const auto& rec : snap.spans) {
      const std::string name = rec.name;
      if (name == "operator.diff" || name == "operator.mean" ||
          name == "operator.max" || name == "severity.chunk") {
        ++operator_spans;
      }
    }
  }
  EXPECT_GT(operator_spans, 0u);
}

TEST_F(ObsIntegrationTest, TracingDoesNotChangeQueryResults) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cube_obs_query_repo";
  std::filesystem::remove_all(dir);
  {
    ExperimentRepository repo(dir);
    for (int i = 0; i < 4; ++i) {
      Experiment e = make_small(StorageKind::Dense,
                                "run" + std::to_string(i));
      for (MetricIndex m = 0; m < e.metadata().num_metrics(); ++m) {
        e.severity().add(m, 0, 0, 0.25 * (i + 1));
      }
      e.set_attribute("side", i < 2 ? "l" : "r");
      repo.store(e);
    }
    const char* kQuery = "diff(mean(attr(side=l)), mean(attr(side=r)))";

    query::QueryOptions ref_options;
    ref_options.threads = 1;
    ref_options.use_cache = false;
    ref_options.store_derived = false;
    query::QueryEngine ref_engine(repo, ref_options);
    const query::QueryResult reference = ref_engine.run(kQuery);

    obs::enable_tracing();
    for (const std::size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      query::QueryOptions options;
      options.threads = threads;
      options.use_cache = false;
      options.store_derived = false;
      query::QueryEngine engine(repo, options);
      const query::QueryResult result = engine.run(kQuery);
      expect_severity_identical(result.experiment, reference.experiment);
      EXPECT_EQ(result.canonical, reference.canonical);
    }
    obs::disable_tracing();
  }
  std::filesystem::remove_all(dir);

  // The run recorded engine spans on this thread and task spans on the
  // pool workers, under their stable names.
  bool saw_query_run = false;
  bool saw_worker_task = false;
  for (const auto& snap : obs::Tracer::instance().snapshot()) {
    for (const auto& rec : snap.spans) {
      if (std::string(rec.name) == "query.run") saw_query_run = true;
      if (std::string(rec.name) == "pool.task" &&
          snap.thread_name.rfind("worker.", 0) == 0) {
        saw_worker_task = true;
      }
    }
  }
  EXPECT_TRUE(saw_query_run);
  EXPECT_TRUE(saw_worker_task);
}

TEST_F(ObsIntegrationTest, TracedRunsFeedThePoolMetrics) {
  auto& global = obs::MetricsRegistry::global();
  const std::uint64_t tasks_before = global.counter("pool.tasks").value();
  const std::uint64_t waits_before =
      global.histogram("pool.queue_wait").count();

  obs::enable_tracing();
  {
    ThreadPool pool(2);
    pool.parallel_for(64, [](std::size_t) {});
  }
  obs::disable_tracing();

  // parallel_for submits one drain task per worker; each traced task
  // observes its queue wait and counts under pool.tasks.
  EXPECT_GT(global.counter("pool.tasks").value(), tasks_before);
  EXPECT_GT(global.histogram("pool.queue_wait").count(), waits_before);
  EXPECT_EQ(global.gauge("pool.threads").value(), 2.0);
}

TEST_F(ObsIntegrationTest, UntracedPoolTasksSkipTheQueueWaitClock) {
  auto& global = obs::MetricsRegistry::global();
  const std::uint64_t waits_before =
      global.histogram("pool.queue_wait").count();
  {
    ThreadPool pool(2);
    pool.parallel_for(64, [](std::size_t) {});
  }
  EXPECT_EQ(global.histogram("pool.queue_wait").count(), waits_before);
}

TEST_F(ObsIntegrationTest, ThrowingOperatorUnwindsItsSpans) {
  obs::enable_tracing();
  ASSERT_EQ(obs::Tracer::instance().open_span_depth(), 0u);
  // mean() opens "operator.mean" before validating its operand list; the
  // throw must unwind the span (the CheckError-path regression: an
  // unbalanced per-thread stack would corrupt every later span's parent).
  EXPECT_THROW((void)mean(std::vector<const Experiment*>{}), OperationError);
  EXPECT_EQ(obs::Tracer::instance().open_span_depth(), 0u);

  // Spans recorded after the unwind nest correctly again.
  const Experiment a = make_small();
  const Experiment after = difference(a, a);
  obs::disable_tracing();
  bool diff_is_root = false;
  for (const auto& snap : obs::Tracer::instance().snapshot()) {
    for (const auto& rec : snap.spans) {
      if (std::string(rec.name) == "operator.diff" &&
          rec.parent == obs::kNoParent) {
        diff_is_root = true;
      }
    }
  }
  EXPECT_TRUE(diff_is_root);
  EXPECT_EQ(after.metadata().num_cnodes(), a.metadata().num_cnodes());
}

// Every operator — the statistics reductions included — records its
// integration and severity phases as children of its own operator span
// (docs/OBSERVABILITY.md).
TEST_F(ObsIntegrationTest, EveryOperatorRecordsItsPhaseSpans) {
  const Experiment a = make_small(StorageKind::Dense, "a");
  const Experiment b = make_variant(StorageKind::Sparse, "b");
  const std::vector<const Experiment*> ops = {&a, &b};
  const std::vector<
      std::pair<std::string, std::function<Experiment()>>>
      operators = {
          {"operator.diff", [&] { return difference(a, b); }},
          {"operator.merge", [&] { return merge(a, b); }},
          {"operator.mean", [&] { return mean(ops); }},
          {"operator.min", [&] { return minimum(ops); }},
          {"operator.max", [&] { return maximum(ops); }},
          {"operator.stddev", [&] { return stddev(ops); }},
          {"operator.variation", [&] { return variation(ops); }},
      };
  for (const auto& [span, run] : operators) {
    SCOPED_TRACE(span);
    obs::Tracer::instance().reset();
    obs::enable_tracing();
    (void)run();
    obs::disable_tracing();
    bool integrate = false;
    bool severity = false;
    for (const auto& snap : obs::Tracer::instance().snapshot()) {
      for (const auto& rec : snap.spans) {
        if (rec.parent == obs::kNoParent ||
            span != snap.spans[rec.parent].name) {
          continue;
        }
        const std::string name = rec.name;
        integrate = integrate || name == "phase.integrate";
        severity = severity || name == "phase.severity";
      }
    }
    EXPECT_TRUE(integrate);
    EXPECT_TRUE(severity);
  }
}

}  // namespace
}  // namespace cube
