#include "query/engine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>

#include "algebra/operators.hpp"
#include "common/error.hpp"
#include "io/cube_format.hpp"
#include "testutil.hpp"

namespace cube::query {
namespace {

using cube::testing::make_small;

/// Exact (bitwise-comparable) severity equality over identical domains.
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

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_engine_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(dir_);
    repo_ = std::make_unique<ExperimentRepository>(dir_);
  }
  void TearDown() override {
    repo_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Stores a make_small variant whose severities are offset by `salt` so
  /// operands are distinguishable.
  std::string store_salted(const std::string& name, double salt,
                           const std::map<std::string, std::string>& attrs =
                               {}) {
    Experiment e = make_small(StorageKind::Dense, name);
    for (MetricIndex m = 0; m < e.metadata().num_metrics(); ++m) {
      for (CnodeIndex c = 0; c < e.metadata().num_cnodes(); ++c) {
        for (ThreadIndex t = 0; t < e.metadata().num_threads(); ++t) {
          e.severity().add(m, c, t, salt * (1.0 + 0.1 * (m + c + t)));
        }
      }
    }
    for (const auto& [k, v] : attrs) e.set_attribute(k, v);
    return repo_->store(e);
  }

  void populate_before_after() {
    store_salted("a1", 0.125, {{"run", "before"}});
    store_salted("a2", 0.25, {{"run", "before"}});
    store_salted("a3", 0.375, {{"run", "before"}});
    store_salted("b1", -0.5, {{"run", "after"}});
    store_salted("b2", -0.625, {{"run", "after"}});
  }

  std::filesystem::path dir_;
  std::unique_ptr<ExperimentRepository> repo_;
};

constexpr const char* kQuery =
    "diff(mean(attr(run=before)), mean(attr(run=after)))";

TEST_F(QueryEngineTest, MatchesDirectEvalAtEveryThreadCountAndCacheMode) {
  populate_before_after();

  // Reference: direct operator calls over the same stored files,
  // diff(mean(a1, a2, a3), mean(b1, b2)).
  const Experiment a1 = repo_->load("a1");
  const Experiment a2 = repo_->load("a2");
  const Experiment a3 = repo_->load("a3");
  const Experiment b1 = repo_->load("b1");
  const Experiment b2 = repo_->load("b2");
  const Experiment reference =
      difference(mean(std::vector<const Experiment*>{&a1, &a2, &a3}),
                 mean(std::vector<const Experiment*>{&b1, &b2}));

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const bool cache : {false, true}) {
      QueryOptions options;
      options.threads = threads;
      options.use_cache = cache;
      options.store_derived = cache;
      QueryEngine engine(*repo_, options);
      const QueryResult result = engine.run(kQuery);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " cache=" + std::to_string(cache));
      expect_severity_identical(result.experiment, reference);
      EXPECT_EQ(result.experiment.name(), reference.name());
    }
  }
}

TEST_F(QueryEngineTest, SecondRunIsServedFromTheCache) {
  populate_before_after();
  QueryEngine engine(*repo_, {.threads = 2});
  const QueryResult cold = engine.run(kQuery);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.nodes_evaluated, 3u);  // two means and the diff
  EXPECT_EQ(cold.stats.operands_loaded, 5u);

  const QueryResult warm = engine.run(kQuery);
  EXPECT_GE(warm.stats.cache_hits, 1u);
  EXPECT_EQ(warm.stats.nodes_evaluated, 0u);
  EXPECT_EQ(warm.stats.operands_loaded, 0u);
  EXPECT_LT(warm.stats.nodes_executed, cold.stats.nodes_executed);
  expect_severity_identical(warm.experiment, cold.experiment);
}

TEST_F(QueryEngineTest, OverlappingQueriesShareCachedSubexpressions) {
  populate_before_after();
  QueryEngine engine(*repo_, {.threads = 1});
  (void)engine.run("mean(attr(run=before))");
  // The before-mean is warm; only the after-mean and the diff compute.
  const QueryResult result = engine.run(kQuery);
  EXPECT_EQ(result.stats.cache_hits, 1u);
  EXPECT_EQ(result.stats.nodes_evaluated, 2u);
  EXPECT_EQ(result.stats.operands_loaded, 2u);  // b1, b2 only
}

TEST_F(QueryEngineTest, CacheHitsPersistAcrossEngineAndProcessBoundaries) {
  populate_before_after();
  {
    QueryEngine engine(*repo_, {.threads = 1});
    (void)engine.run(kQuery);
  }
  // A fresh repository object (as a new process would open) sees the
  // cached cubes through the index.
  ExperimentRepository reopened(dir_);
  QueryEngine engine(reopened, {.threads = 1});
  const QueryResult warm = engine.run(kQuery);
  EXPECT_GE(warm.stats.cache_hits, 1u);
  EXPECT_EQ(warm.stats.nodes_evaluated, 0u);
}

TEST_F(QueryEngineTest, RestoringAnOperandInvalidatesTheCache) {
  populate_before_after();
  QueryEngine engine(*repo_, {.threads = 2});
  const QueryResult first = engine.run(kQuery);

  // Replace a1 under the same id with different data.
  repo_->remove("a1");
  Experiment modified = make_small(StorageKind::Dense, "a1");
  modified.set_attribute("run", "before");
  modified.severity().set(0, 0, 0, 4242.0);
  ASSERT_EQ(repo_->store(modified), "a1");

  // Invalidation is precise: the before-mean and the diff (downstream of
  // a1) recompute; the untouched after-mean still hits.
  const QueryResult second = engine.run(kQuery);
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.stats.nodes_evaluated, 2u);
  EXPECT_NE(second.experiment.severity().get(0, 0, 0),
            first.experiment.severity().get(0, 0, 0));
}

TEST_F(QueryEngineTest, NoStoreLeavesTheRepositoryUntouched) {
  populate_before_after();
  const std::size_t entries_before = repo_->entries().size();
  QueryOptions options;
  options.threads = 2;
  options.store_derived = false;
  QueryEngine engine(*repo_, options);
  const QueryResult first = engine.run(kQuery);
  const QueryResult second = engine.run(kQuery);
  EXPECT_EQ(repo_->entries().size(), entries_before);
  EXPECT_EQ(second.stats.cache_hits, 0u);  // nothing was ever stored
  expect_severity_identical(first.experiment, second.experiment);
}

TEST_F(QueryEngineTest, BareSelectorRootLoadsTheExperiment) {
  store_salted("solo", 1.0);
  QueryEngine engine(*repo_);
  const QueryResult result = engine.run("id(solo)");
  EXPECT_EQ(result.experiment.name(), "solo");
  expect_severity_identical(result.experiment, repo_->load("solo"));
  EXPECT_EQ(result.stats.nodes_evaluated, 0u);
  EXPECT_EQ(result.stats.operands_loaded, 1u);
}

TEST_F(QueryEngineTest, CseEvaluatesSharedSubtreeOnce) {
  store_salted("a", 0.5);
  store_salted("b", 0.75);
  QueryOptions options;
  options.threads = 4;
  options.use_cache = false;
  options.store_derived = false;
  QueryEngine engine(*repo_, options);
  const QueryResult result =
      engine.run("diff(mean(a, b), mean(id(a), id(b)))");
  // CSE folds both means into one node: loads a, b; evaluates mean, diff.
  EXPECT_EQ(result.stats.plan_nodes, 4u);
  EXPECT_EQ(result.stats.operands_loaded, 2u);
  EXPECT_EQ(result.stats.nodes_evaluated, 2u);
  // diff(x, x) is identically zero.
  for (MetricIndex m = 0; m < result.experiment.metadata().num_metrics();
       ++m) {
    EXPECT_EQ(result.experiment.sum_metric(
                  *result.experiment.metadata().metrics()[m]),
              0.0);
  }
}

TEST_F(QueryEngineTest, ExecutionErrorsPropagateFromWorkers) {
  populate_before_after();
  // Corrupt one operand file after indexing; the load fails mid-DAG and
  // the error must surface (at any thread count, without hanging).
  const RepoEntry* victim = nullptr;
  for (const RepoEntry& e : repo_->entries()) {
    if (e.id == "b1") victim = &e;
  }
  ASSERT_NE(victim, nullptr);
  {
    std::ofstream out(dir_ / victim->file, std::ios::trunc);
    out << "not a cube file";
  }
  for (const std::size_t threads : {1u, 4u}) {
    QueryOptions options;
    options.threads = threads;
    QueryEngine engine(*repo_, options);
    EXPECT_THROW((void)engine.run(kQuery), Error) << threads;
  }
}

TEST_F(QueryEngineTest, ValidateLoadsChecksTheRecordedDigest) {
  populate_before_after();
  // Overwrite b1 with a valid experiment behind the repository's back.
  // Planning keys it by the digest recorded at store time, so only a
  // validating load notices the edit.
  const std::optional<RepoEntry> victim = repo_->find("b1");
  ASSERT_TRUE(victim.has_value());
  Experiment edited = make_small(StorageKind::Dense, "b1");
  edited.severity().set(0, 0, 0, 4242.0);
  {
    std::ofstream out(dir_ / victim->file, std::ios::trunc);
    out << cube::to_cube_xml_ref(edited);
  }
  QueryOptions options;
  options.threads = 2;
  options.use_cache = false;
  options.store_derived = false;
  {
    QueryEngine engine(*repo_, options);
    EXPECT_NO_THROW((void)engine.run(kQuery));
  }
  options.validate_loads = true;
  QueryEngine engine(*repo_, options);
  try {
    (void)engine.run(kQuery);
    ADD_FAILURE() << "validate_loads accepted an edited operand";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("repo.digest-mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(QueryEngineTest, StatsReportStagesAndBytes) {
  populate_before_after();
  QueryEngine engine(*repo_, {.threads = 2});
  const QueryResult result = engine.run(kQuery);
  EXPECT_EQ(result.stats.plan_nodes, 8u);  // 5 loads + 2 means + diff
  EXPECT_EQ(result.stats.nodes_executed, 8u);
  EXPECT_GT(result.stats.bytes_loaded, 0u);
  EXPECT_GE(result.stats.total_ms, 0.0);
  EXPECT_EQ(result.stats.threads_used, 2u);
  EXPECT_FALSE(result.canonical.empty());
}

TEST_F(QueryEngineTest, SeriesLoadsShareInternedMetadata) {
  for (int i = 0; i < 4; ++i) {
    store_salted("run-" + std::to_string(i + 1), static_cast<double>(i),
                 {{"series", "noise"}});
  }
  // Parallel loads across pool workers still dedup through the
  // repository's interner: one metadata instance backs the whole series.
  QueryEngine engine(*repo_, {.threads = 4, .store_derived = false});
  const QueryResult result = engine.run("mean(attr(series=noise))");
  EXPECT_EQ(result.stats.operands_loaded, 4u);
  EXPECT_EQ(repo_->interner().size(), 1u);
  // The mean over a digest-identical series shares that instance too.
  EXPECT_EQ(result.experiment.metadata_ptr().get(),
            repo_->interner().lookup(
                result.experiment.metadata().digest()).get());
}

}  // namespace
}  // namespace cube::query
