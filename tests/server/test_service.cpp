// AnalysisService: result caching across calls, coalescing of
// identical concurrent queries, admission control, error classification,
// and repository refresh.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/binary_format.hpp"
#include "io/repository.hpp"
#include "obs/metrics.hpp"
#include "testutil.hpp"

namespace {

using cube::Experiment;
using cube::ExperimentRepository;
using cube::StorageKind;
using cube::server::AnalysisService;
using cube::server::QueryOutcome;
using cube::server::Served;
using cube::server::ServiceConfig;
using cube::testing::make_small;

std::uint64_t counter_value(const char* name) {
  return cube::obs::MetricsRegistry::global().counter(name).value();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_service_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    std::filesystem::remove_all(dir_);
    repo_ = std::make_unique<ExperimentRepository>(dir_);
    a_ = store_salted("run-a", 0.5);
    b_ = store_salted("run-b", 1.5);
  }
  void TearDown() override {
    repo_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string store_salted(const std::string& name, double salt) {
    Experiment e = make_small(StorageKind::Dense, name);
    for (std::size_t m = 0; m < e.metadata().num_metrics(); ++m) {
      for (std::size_t c = 0; c < e.metadata().num_cnodes(); ++c) {
        for (std::size_t t = 0; t < e.metadata().num_threads(); ++t) {
          e.severity().add(m, c, t, salt);
        }
      }
    }
    return repo_->store(e);
  }

  std::filesystem::path dir_;
  std::unique_ptr<ExperimentRepository> repo_;
  std::string a_, b_;
};

TEST_F(ServiceTest, ComputesThenServesFromSharedCache) {
  ServiceConfig config;
  config.threads = 2;
  AnalysisService service(*repo_, config);
  const std::string query = "mean(" + a_ + ", " + b_ + ")";

  const QueryOutcome first = service.handle_query(query);
  ASSERT_EQ(first.status, QueryOutcome::Status::Ok);
  EXPECT_EQ(first.served, Served::Computed);
  ASSERT_NE(first.result, nullptr);
  EXPECT_FALSE(first.result->body->empty());
  EXPECT_FALSE(first.result->meta_blob->empty());
  EXPECT_NE(first.result->meta_digest, 0u);

  const QueryOutcome second = service.handle_query(query);
  ASSERT_EQ(second.status, QueryOutcome::Status::Ok);
  EXPECT_EQ(second.served, Served::CacheHit);
  // The identical immutable instance — no analysis, no reload, no
  // re-serialization.
  EXPECT_EQ(second.result, first.result);
}

TEST_F(ServiceTest, ConcurrentIdenticalQueriesComputeExactlyOnce) {
  ServiceConfig config;
  config.threads = 2;
  // Hold the single computation open long enough for every session to
  // arrive at the cache.
  config.before_compute = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  AnalysisService service(*repo_, config);
  const std::string query = "max(" + a_ + ", " + b_ + ")";
  const std::uint64_t computes_before = counter_value("server.computes");

  constexpr int kSessions = 8;
  std::vector<QueryOutcome> outcomes(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = service.handle_query(query); });
  }
  for (auto& t : threads) t.join();

  int computed = 0;
  for (const QueryOutcome& outcome : outcomes) {
    ASSERT_EQ(outcome.status, QueryOutcome::Status::Ok);
    if (outcome.served == Served::Computed) ++computed;
    // Every session holds the same shared result instance.
    EXPECT_EQ(outcome.result, outcomes[0].result);
  }
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(counter_value("server.computes") - computes_before, 1u);
}

TEST_F(ServiceTest, ForceBusyShedsEveryQueryWithStructuredPayload) {
  ServiceConfig config;
  config.threads = 1;
  config.force_busy = true;
  config.busy_retry_ms = 123;
  AnalysisService service(*repo_, config);

  const QueryOutcome outcome =
      service.handle_query("mean(" + a_ + ", " + b_ + ")");
  ASSERT_EQ(outcome.status, QueryOutcome::Status::Busy);
  EXPECT_EQ(outcome.busy.retry_ms, 123u);
  EXPECT_FALSE(outcome.busy.reason.empty());
}

TEST_F(ServiceTest, InflightCeilingShedsTheSecondMiss) {
  ServiceConfig config;
  config.threads = 1;
  config.max_inflight = 1;
  config.busy_queue_wait_ms = 1e9;  // only the ceiling sheds here

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  std::atomic<bool> first_call{true};
  config.before_compute = [&] {
    if (!first_call.exchange(false)) return;  // block only the first owner
    std::unique_lock<std::mutex> lock(m);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  AnalysisService service(*repo_, config);

  const std::string slow = "mean(" + a_ + ", " + b_ + ")";
  const std::string other = "max(" + a_ + ", " + b_ + ")";
  auto blocked = std::async(std::launch::async,
                            [&] { return service.handle_query(slow); });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }

  // One computation is in flight and the ceiling is 1: a different
  // query's miss must shed.
  const QueryOutcome shed = service.handle_query(other);
  ASSERT_EQ(shed.status, QueryOutcome::Status::Busy);
  EXPECT_EQ(shed.busy.inflight, 1u);
  EXPECT_EQ(shed.busy.reason, "computation ceiling reached");

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  const QueryOutcome done = blocked.get();
  ASSERT_EQ(done.status, QueryOutcome::Status::Ok);

  // With the pool drained the shed query now computes.
  const QueryOutcome retry = service.handle_query(other);
  ASSERT_EQ(retry.status, QueryOutcome::Status::Ok);
  EXPECT_EQ(retry.served, Served::Computed);
}

TEST_F(ServiceTest, HitsAreServedWhileMissesShed) {
  // Admission control applies to COMPUTE work only: with the inflight
  // ceiling saturated, a warm key is still served while a cold one sheds.
  ServiceConfig config;
  config.threads = 1;
  config.max_inflight = 1;
  config.busy_queue_wait_ms = 1e9;

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool entered = false;
  std::atomic<int> compute_calls{0};
  config.before_compute = [&] {
    if (compute_calls.fetch_add(1) != 1) return;  // block the 2nd compute
    std::unique_lock<std::mutex> lock(m);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  AnalysisService service(*repo_, config);

  const std::string warm = "mean(" + a_ + ", " + b_ + ")";
  const std::string slow = "max(" + a_ + ", " + b_ + ")";
  const std::string cold = "min(" + a_ + ", " + b_ + ")";
  ASSERT_EQ(service.handle_query(warm).served, Served::Computed);

  auto blocked = std::async(std::launch::async,
                            [&] { return service.handle_query(slow); });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }

  const QueryOutcome hit = service.handle_query(warm);
  ASSERT_EQ(hit.status, QueryOutcome::Status::Ok);
  EXPECT_EQ(hit.served, Served::CacheHit);

  const QueryOutcome shed = service.handle_query(cold);
  EXPECT_EQ(shed.status, QueryOutcome::Status::Busy);

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  EXPECT_EQ(blocked.get().status, QueryOutcome::Status::Ok);
}

TEST_F(ServiceTest, ErrorCategoriesAreStructured) {
  ServiceConfig config;
  config.threads = 1;
  AnalysisService service(*repo_, config);

  const QueryOutcome parse = service.handle_query("mean(");
  ASSERT_EQ(parse.status, QueryOutcome::Status::Error);
  EXPECT_EQ(parse.error.category, "parse");

  const QueryOutcome plan = service.handle_query("mean(no-such-id)");
  ASSERT_EQ(plan.status, QueryOutcome::Status::Error);
  EXPECT_EQ(plan.error.category, "plan");

  // With load validation on, a NaN operand plans fine but fails during
  // execution — the eval category.
  ServiceConfig strict;
  strict.threads = 1;
  strict.validate_loads = true;
  AnalysisService validating(*repo_, strict);
  Experiment bad = make_small(StorageKind::Dense, "poisoned");
  bad.severity().set(0, 0, 0, std::numeric_limits<double>::quiet_NaN());
  const std::string poisoned = repo_->store(bad);
  const std::string failing = "max(" + poisoned + ", " + poisoned + ")";

  const QueryOutcome eval = validating.handle_query(failing);
  ASSERT_EQ(eval.status, QueryOutcome::Status::Error);
  EXPECT_EQ(eval.error.category, "eval");

  // A failed computation never poisons the key: the same query still
  // fails, freshly, rather than hanging on a dead in-flight slot.
  const QueryOutcome again = validating.handle_query(failing);
  ASSERT_EQ(again.status, QueryOutcome::Status::Error);
  EXPECT_EQ(again.error.category, "eval");
}

TEST_F(ServiceTest, RefreshPicksUpConcurrentlyStoredExperiments) {
  ServiceConfig config;
  config.threads = 1;
  AnalysisService service(*repo_, config);

  // Another process (second repository object over the same directory)
  // appends an experiment.
  ExperimentRepository other(dir_);
  Experiment fresh = make_small(StorageKind::Dense, "late-arrival");
  const std::string id = other.store(fresh);

  const QueryOutcome before =
      service.handle_query("max(" + id + ", " + id + ")");
  ASSERT_EQ(before.status, QueryOutcome::Status::Error);
  EXPECT_EQ(before.error.category, "plan");

  EXPECT_TRUE(service.refresh());
  EXPECT_FALSE(service.refresh());  // idempotent until the next change

  const QueryOutcome after =
      service.handle_query("max(" + id + ", " + id + ")");
  ASSERT_EQ(after.status, QueryOutcome::Status::Ok);
  EXPECT_EQ(after.served, Served::Computed);
}

TEST_F(ServiceTest, StaticAnalysisRejectsIncompatiblePlansPreCompute) {
  const std::string clash = repo_->store(cube::testing::make_unit_clash());
  ServiceConfig config;
  config.threads = 1;
  AnalysisService service(*repo_, config);
  const std::string query = "mean(" + a_ + ", " + clash + ")";
  const std::uint64_t computes = counter_value("server.computes");
  const std::uint64_t rejected = counter_value("server.rejected");

  const QueryOutcome out = service.handle_query(query);
  ASSERT_EQ(out.status, QueryOutcome::Status::Error);
  EXPECT_EQ(out.error.category, "analysis");
  bool saw_unit = false;
  for (const auto& d : out.error.diagnostics) {
    if (d.rule == "plan.metric-unit") saw_unit = true;
  }
  EXPECT_TRUE(saw_unit)
      << "the rejection must carry the analyzer's structured findings";
  EXPECT_EQ(counter_value("server.rejected") - rejected, 1u);
  EXPECT_EQ(counter_value("server.computes") - computes, 0u)
      << "a rejected plan must never reach the compute path";

  // Nothing caches a rejection: a repeat misses the result cache again,
  // is analyzed again, and is rejected again without computing.
  const QueryOutcome again = service.handle_query(query);
  ASSERT_EQ(again.status, QueryOutcome::Status::Error);
  EXPECT_EQ(again.error.category, "analysis");
  EXPECT_EQ(counter_value("server.computes") - computes, 0u);
}

TEST_F(ServiceTest, BudgetGateRejectsExpensivePlansPreCompute) {
  ServiceConfig tight;
  tight.threads = 1;
  tight.budget_bytes = 1;
  AnalysisService service(*repo_, tight);
  const std::string query = "mean(" + a_ + ", " + b_ + ")";
  const std::uint64_t computes = counter_value("server.computes");

  const QueryOutcome out = service.handle_query(query);
  ASSERT_EQ(out.status, QueryOutcome::Status::Error);
  EXPECT_EQ(out.error.category, "analysis");
  bool saw_budget = false;
  for (const auto& d : out.error.diagnostics) {
    if (d.rule == "cost.over-budget") saw_budget = true;
  }
  EXPECT_TRUE(saw_budget);
  EXPECT_EQ(counter_value("server.computes") - computes, 0u);

  // The same query under a generous budget computes normally.
  ServiceConfig roomy;
  roomy.threads = 1;
  roomy.budget_bytes = std::uint64_t{1} << 30;
  AnalysisService admitting(*repo_, roomy);
  EXPECT_EQ(admitting.handle_query(query).status, QueryOutcome::Status::Ok);
}

TEST_F(ServiceTest, StatsExposeServerInstruments) {
  ServiceConfig config;
  config.threads = 1;
  AnalysisService service(*repo_, config);
  (void)service.handle_query("mean(" + a_ + ", " + b_ + ")");

  const cube::server::StatsPayload stats = service.stats();
  bool saw_queries = false;
  bool saw_queue_wait = false;
  for (const auto& sample : stats.samples) {
    if (sample.name == "server.queries") saw_queries = true;
    if (sample.name == "server.queue_wait") saw_queue_wait = true;
  }
  EXPECT_TRUE(saw_queries);
  EXPECT_TRUE(saw_queue_wait);
}

TEST(SlowQueryLog, KeepsWorstNInDeterministicOrder) {
  cube::server::SlowQueryLog log(/*capacity=*/3, /*threshold_ms=*/10.0);
  auto offer = [&](std::uint64_t id, double ms) {
    cube::server::WireSlowQuery q;
    q.request_id = id;
    q.canonical = "q" + std::to_string(id);
    q.outcome = "computed";
    q.server_ms = ms;
    log.record(std::move(q));
  };
  offer(1, 5.0);  // below threshold: never recorded
  offer(2, 50.0);
  offer(3, 20.0);
  offer(4, 30.0);
  offer(5, 15.0);   // full, slower entries only: dropped
  offer(6, 100.0);  // displaces the weakest (20 ms)

  const auto kept = log.snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].request_id, 6u);  // worst first
  EXPECT_EQ(kept[1].request_id, 2u);
  EXPECT_EQ(kept[2].request_id, 4u);
  // Sequences record arrival order of ACCEPTED entries.
  EXPECT_LT(kept[1].sequence, kept[2].sequence);
}

TEST(SlowQueryLog, CapacityZeroDisables) {
  cube::server::SlowQueryLog log(0, 0.0);
  cube::server::WireSlowQuery q;
  q.server_ms = 1e6;
  log.record(std::move(q));
  EXPECT_TRUE(log.snapshot().empty());
}

TEST_F(ServiceTest, SlowLogRecordsOutcomePhasesAndRequestId) {
  ServiceConfig config;
  config.threads = 1;
  config.slow_log_threshold_ms = 0.0;  // everything competes
  config.slow_log_capacity = 8;
  AnalysisService service(*repo_, config);
  const std::string query = "mean(" + a_ + ", " + b_ + ")";
  (void)service.handle_query(query, /*request_id=*/777);
  (void)service.handle_query(query, /*request_id=*/778);  // cache hit
  (void)service.handle_query("mean(", /*request_id=*/779);

  const auto entries = service.slow_log().snapshot();
  ASSERT_EQ(entries.size(), 3u);
  bool saw_computed = false, saw_hit = false, saw_error = false;
  for (const auto& e : entries) {
    if (e.request_id == 777) {
      saw_computed = true;
      EXPECT_EQ(e.outcome, "computed");
      // The canonical plan text, not the raw query.
      EXPECT_NE(e.canonical.find("mean("), std::string::npos);
      EXPECT_NE(e.canonical, query);
      EXPECT_GT(e.server_ms, 0.0);
      EXPECT_GT(e.compute_ms, 0.0);
      EXPECT_GT(e.serialize_ms, 0.0);
      EXPECT_LE(e.plan_ms + e.compute_ms + e.serialize_ms,
                e.server_ms + 1.0);
    } else if (e.request_id == 778) {
      saw_hit = true;
      EXPECT_EQ(e.outcome, "hit");
      EXPECT_EQ(e.compute_ms, 0.0);
    } else if (e.request_id == 779) {
      saw_error = true;
      EXPECT_EQ(e.outcome, "error");
      EXPECT_EQ(e.canonical, "mean(");  // never planned
    }
  }
  EXPECT_TRUE(saw_computed);
  EXPECT_TRUE(saw_hit);
  EXPECT_TRUE(saw_error);
}

TEST_F(ServiceTest, StatsJsonCarriesServerStateMetricsAndSlowQueries) {
  ServiceConfig config;
  config.threads = 1;
  config.self_profile_source = "testd";
  AnalysisService service(*repo_, config);
  (void)service.handle_query("mean(" + a_ + ", " + b_ + ")", 42);

  const std::string json = service.stats_json();
  for (const char* key :
       {"\"server\":", "\"name\":\"testd\"", "\"uptime_s\":",
        "\"generation\":", "\"queries\":", "\"cache_hits\":", "\"busy\":",
        "\"inflight\":", "\"max_inflight\":", "\"cache_bytes\":",
        "\"cache_capacity_bytes\":", "\"slow_log_threshold_ms\":",
        "\"self_profile_windows\":", "\"metrics\":",
        "\"server.service_time\":", "\"p99\":", "\"slow_queries\":[",
        "\"request_id\":42"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // The StatsOk payload ships the identical document.
  EXPECT_FALSE(service.stats().json.empty());
}

TEST_F(ServiceTest, HealthJsonReportsLiveState) {
  ServiceConfig config;
  config.threads = 1;
  AnalysisService service(*repo_, config);
  const std::string json = service.health_json();
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"protocol_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_s\":"), std::string::npos);
  EXPECT_GT(service.uptime_s(), 0.0);
}

TEST_F(ServiceTest, SelfProfileWindowsStoreLintableDiffableExperiments) {
  ServiceConfig config;
  config.threads = 1;
  config.self_profile_source = "cubed-test";
  AnalysisService service(*repo_, config);
  const std::string query = "mean(" + a_ + ", " + b_ + ")";
  (void)service.handle_query(query);

  const std::string id1 = service.export_self_profile_window();
  (void)service.handle_query(query);  // hits; still moves counters
  const std::string id2 = service.export_self_profile_window();
  EXPECT_EQ(service.self_profile_windows(), 2u);
  ASSERT_NE(id1, id2);

  service.refresh();  // the service's own stores bump the generation
  const Experiment w1 = repo_->load(id1);
  const Experiment w2 = repo_->load(id2);
  EXPECT_EQ(w1.attribute("cube.self.source"), "cubed-test");
  EXPECT_EQ(w1.attribute("cube.self.window"), "1");
  EXPECT_EQ(w2.attribute("cube.self.window"), "2");
  // Windows carry digest-identical metadata: `difference` composes them.
  EXPECT_EQ(w1.metadata().digest(), w2.metadata().digest());

  // The windows are queryable through the reserved attribute namespace
  // like any other experiment — the observability loop closes.
  const QueryOutcome diff = service.handle_query(
      "difference(" + id2 + ", " + id1 + ")");
  ASSERT_EQ(diff.status, QueryOutcome::Status::Ok);
}

TEST_F(ServiceTest, SelectorsSeeTheServicesOwnStores) {
  ServiceConfig config;
  config.threads = 1;
  config.self_profile_source = "cubed-test";
  AnalysisService service(*repo_, config);
  const std::string query = "mean(attr(cube.self.source=cubed-test))";

  const std::string id1 = service.export_self_profile_window();
  const QueryOutcome first = service.handle_query(query);
  ASSERT_EQ(first.status, QueryOutcome::Status::Ok) << first.error.message;
  EXPECT_EQ(first.served, Served::Computed);
  EXPECT_NE(first.result->canonical.find(id1), std::string::npos);

  // The service's own store changes no other process's view, so refresh()
  // reports no change; the next query must still plan over both windows.
  const std::string id2 = service.export_self_profile_window();
  (void)service.refresh();
  const QueryOutcome second = service.handle_query(query);
  ASSERT_EQ(second.status, QueryOutcome::Status::Ok) << second.error.message;
  EXPECT_EQ(second.served, Served::Computed)
      << "answered over the old window set: " << second.result->canonical;
  EXPECT_NE(second.result->canonical.find(id1), std::string::npos)
      << second.result->canonical;
  EXPECT_NE(second.result->canonical.find(id2), std::string::npos)
      << second.result->canonical;
}

TEST_F(ServiceTest, HousekeepingTickExportsOnInterval) {
  ServiceConfig off;
  off.threads = 1;
  off.self_profile_interval_s = 0;
  AnalysisService disabled(*repo_, off);
  disabled.housekeeping_tick();
  EXPECT_EQ(disabled.self_profile_windows(), 0u);

  // Interval 0 elapsed immediately is not expressible via config (the
  // smallest interval is one second), so drive the export directly: the
  // tick path and the direct path share export_self_profile_window().
  ServiceConfig on;
  on.threads = 1;
  on.self_profile_interval_s = 1;
  AnalysisService enabled(*repo_, on);
  enabled.housekeeping_tick();  // not due yet
  EXPECT_EQ(enabled.self_profile_windows(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  enabled.housekeeping_tick();  // due now
  EXPECT_EQ(enabled.self_profile_windows(), 1u);
}

std::uint64_t bytes_written() {
  return cube::obs::MetricsRegistry::global()
      .counter("io.bin.bytes_written", cube::obs::SampleUnit::Bytes)
      .value();
}

TEST_F(ServiceTest, ComputedRootBodyIsItsStoredFileEncodedOnce) {
  ServiceConfig config;
  config.threads = 2;
  AnalysisService service(*repo_, config);
  const std::size_t entries_before = repo_->entries().size();
  const std::uint64_t before = bytes_written();
  // Two computed nodes: the inner mean and the root diff.
  const QueryOutcome out =
      service.handle_query("diff(mean(" + a_ + ", " + b_ + "), " + a_ + ")");
  ASSERT_EQ(out.status, QueryOutcome::Status::Ok);
  ASSERT_EQ(out.served, Served::Computed);

  const std::vector<cube::RepoEntry> entries = repo_->entries_snapshot();
  ASSERT_EQ(entries.size(), entries_before + 2);
  std::uint64_t stored_bytes = 0;
  std::size_t roots = 0;
  for (std::size_t i = entries_before; i < entries.size(); ++i) {
    std::ifstream in(dir_ / entries[i].file, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    stored_bytes += bytes.size();
    if (entries[i].attributes.at("cube::cache-expr") ==
        out.result->canonical) {
      // The wire body is byte for byte the root's stored file ...
      EXPECT_EQ(bytes, *out.result->body);
      ++roots;
    }
  }
  EXPECT_EQ(roots, 1u);
  // ... and io.bin.bytes_written counts each stored cube once: the
  // daemon did not encode the root a second time for the wire.
  EXPECT_EQ(bytes_written() - before, stored_bytes);
}

TEST_F(ServiceTest, WithoutDerivedStoresTheServiceEncodesTheBody) {
  ServiceConfig config;
  config.threads = 2;
  config.store_derived = false;
  AnalysisService service(*repo_, config);
  const std::uint64_t before = bytes_written();
  const QueryOutcome out = service.handle_query("max(" + a_ + ", " + b_ + ")");
  ASSERT_EQ(out.status, QueryOutcome::Status::Ok);
  EXPECT_EQ(bytes_written() - before, out.result->body->size());
  const Experiment back = cube::read_cube_binary(
      *out.result->body, StorageKind::Dense, repo_->resolver());
  EXPECT_EQ(back.severity().nonzero_count(),
            repo_->load(a_).severity().nonzero_count());
}

}  // namespace
