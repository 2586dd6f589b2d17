// AnalysisService: the daemon's query-serving core, independent of any
// transport so tests and bench_server can drive it in-process.
//
// A query travels: parse + plan (index lookups only, O(query); every
// query is planned against the repository as it is now, so selectors see
// every experiment stored so far, the service's own included) -> shared
// ResultCache (content-addressed root key -> wire bytes; identical
// concurrent misses coalesce onto one computation) -> static admission
// analysis and QueryEngine::run_plan on the shared ThreadPool (miss
// only).  A hit or a coalesced wait therefore never analyzes, never
// reloads operands, and never re-serializes — it hands back the cached
// frame bytes.
//
// ADMISSION CONTROL applies to the compute path: when the executor's
// recent queue wait (measured by probe tasks through the same pool the
// DAG runs on, exported as the server.queue_wait histogram) degrades past
// ServiceConfig::busy_queue_wait_ms, or more than max_inflight
// computations are already running, the service sheds the miss with a
// structured Busy outcome instead of queueing unboundedly.  Cache hits
// are still served while shedding — they cost a plan and a map lookup,
// not pool time.  Sessions coalesced onto a shed computation receive
// Busy too.
//
// STATIC ADMISSION runs first on the miss path: the owner of a miss
// analyzes its plan (query/analyze.hpp — metadata and severity-blob
// headers only, never severity payload) before the shed checks.  A
// semantically incompatible plan, or one whose predicted peak resident
// memory exceeds ServiceConfig::budget_bytes, is rejected with an Error
// outcome of category "analysis" carrying the analyzer's plan.*/cost.*
// findings as structured WireDiagnostics — the daemon never spends pool
// time or cache space discovering at eval time what metadata already
// proves.  Sessions coalesced onto a rejected miss receive the same
// rejection.
//
// All entry points are thread-safe; one service instance serves every
// session of the daemon.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/thread_safety.hpp"
#include "io/repository.hpp"
#include "obs/metrics.hpp"
#include "obs/window.hpp"
#include "query/engine.hpp"
#include "server/protocol.hpp"
#include "server/result_cache.hpp"
#include "server/telemetry.hpp"

namespace cube::server {

struct ServiceConfig {
  /// Executor worker threads; 0 picks ThreadPool::default_threads().
  std::size_t threads = 0;
  /// Computations allowed in flight before misses shed; 0 derives
  /// 2 * threads.
  std::size_t max_inflight = 0;
  /// Shed misses when the recent executor queue wait exceeds this.
  double busy_queue_wait_ms = 50.0;
  /// Backoff suggested to shed clients.
  std::uint32_t busy_retry_ms = 100;
  /// Byte budget of the shared result cache.
  std::size_t cache_capacity_bytes = 256ull << 20;
  /// Forwarded to QueryOptions.
  bool store_derived = true;
  bool validate_loads = false;
  /// Peak-resident byte budget for one query's predicted execution; a
  /// plan analyzed above it is rejected pre-compute (cost.over-budget).
  /// 0 disables the budget gate; error-level plan.* incompatibilities
  /// are rejected regardless.
  std::uint64_t budget_bytes = 0;
  /// Shed EVERY query unconditionally — deterministic Busy for tests and
  /// the CI smoke job (cubed --force-busy).
  bool force_busy = false;
  /// Slow-query log: the slow_log_capacity worst queries at or above
  /// slow_log_threshold_ms wall time are kept and dumped via Stats
  /// (cubed --slow-log-threshold / --slow-log-size).  Capacity 0
  /// disables the log.
  double slow_log_threshold_ms = 0.0;
  std::size_t slow_log_capacity = 32;
  /// Store a windowed self-profile experiment into the served repository
  /// every this many seconds of housekeeping time; 0 disables
  /// (cubed --self-profile-interval).
  unsigned self_profile_interval_s = 0;
  /// Value of the "cube.self.source" attribute on stored self-profile
  /// windows, and the prefix of their experiment names (normally the
  /// server name).
  std::string self_profile_source = "cubed";
  /// Test hook: runs on the owner path after admission, before execution.
  /// Lets tests hold a computation open while concurrent sessions coalesce
  /// onto it.
  std::function<void()> before_compute;
};

/// What one query produced, transport-agnostic.  The daemon maps this
/// onto a Result / Busy / Error frame; in-process callers read it
/// directly.
struct QueryOutcome {
  enum class Status { Ok, Busy, Error };
  Status status = Status::Error;
  Served served = Served::Computed;            ///< Ok
  std::shared_ptr<const CachedResult> result;  ///< Ok
  BusyPayload busy;                            ///< Busy
  ErrorPayload error;                          ///< Error
  double server_ms = 0.0;
};

class AnalysisService {
 public:
  AnalysisService(ExperimentRepository& repo, ServiceConfig config = {});
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Serves one query.  Never throws for query-level failures — they come
  /// back as Status::Error with a category ("parse", "plan", "analysis",
  /// "eval", "internal"); "analysis" rejections carry the static
  /// analyzer's findings in ErrorPayload::diagnostics.  `request_id` is
  /// the client-generated id from the Query payload (0 = unset): it tags
  /// the server.query span and the slow-query log entry.
  [[nodiscard]] QueryOutcome handle_query(const std::string& text,
                                          std::uint64_t request_id = 0);

  /// The StatsOk payload: registry snapshot (with histogram quantiles),
  /// the slow-query log, and the full JSON telemetry document.
  [[nodiscard]] StatsPayload stats() const;

  /// The telemetry document: {"server":{uptime, admission and cache
  /// state, served counts}, "metrics":{…}, "slow_queries":[…]}.
  /// Byte-deterministic for a given server state.
  [[nodiscard]] std::string stats_json() const;

  /// The HealthOk document: {"status","uptime_s","generation","inflight",
  /// "queries","protocol_version"}.
  [[nodiscard]] std::string health_json() const;

  /// Seconds since the service was constructed.
  [[nodiscard]] double uptime_s() const;

  /// One housekeeping tick: refresh() plus, when due, a self-profile
  /// window export.  The daemon's housekeeping thread calls this every
  /// refresh interval.
  void housekeeping_tick();

  /// Closes the current self-profile window NOW (regardless of the
  /// interval) and stores it as a frozen experiment in the served
  /// repository; returns the stored id.  housekeeping_tick() calls this
  /// on the interval; tests and drills call it directly.
  std::string export_self_profile_window();

  /// Windows stored so far.
  [[nodiscard]] std::uint64_t self_profile_windows() const noexcept {
    return windows_stored_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const SlowQueryLog& slow_log() const noexcept {
    return slow_log_;
  }

  /// Re-reads the repository index so later queries plan against other
  /// processes' stores, and compacts the index when due.  The result
  /// cache stays — its keys are content digests, which are valid
  /// forever.  Returns true if the index changed.
  bool refresh();

  [[nodiscard]] std::uint64_t generation() const noexcept {
    return repo_.generation();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ResultCache& cache() noexcept { return cache_; }

 private:
  /// Parses and plans `text` (parse failures throw QueryParseError).
  [[nodiscard]] query::QueryPlan resolve_plan(const std::string& text);
  /// Renders the telemetry document from an already-taken registry
  /// snapshot and slow-log snapshot (stats() reuses the snapshots it
  /// ships on the wire instead of taking them twice).
  [[nodiscard]] std::string compose_stats_json(
      const std::vector<obs::MetricSample>& samples,
      const std::vector<WireSlowQuery>& slow) const;
  /// Runs the static plan analyzer; returns the "analysis" rejection of
  /// an inadmissible plan, or an empty category when the plan is admitted
  /// (never throws; an analyzer failure admits the plan).
  [[nodiscard]] ErrorPayload analyze_admission(const query::QueryPlan& plan);
  [[nodiscard]] BusyPayload busy_payload(const std::string& reason) const;
  /// Samples the executor queue wait with a probe task (at most one in
  /// flight) and returns the decayed recent wait in ms.
  double recent_queue_wait_ms();
  void note_queue_wait(double ms);

  ServiceConfig config_;
  ExperimentRepository& repo_;
  ResultCache cache_;

  std::atomic<std::size_t> inflight_{0};

  // Queue-wait probe state: an exponentially weighted recent wait that
  // decays toward zero while the pool is idle, so a past overload cannot
  // shed the first query after a quiet period.
  std::atomic<bool> probe_outstanding_{false};
  std::atomic<double> queue_wait_ewma_ms_{0.0};
  std::atomic<std::int64_t> queue_wait_stamp_ns_{0};

  obs::Counter& queries_;
  obs::Counter& cache_hits_;
  obs::Counter& coalesced_;
  obs::Counter& computes_;
  obs::Counter& busy_;
  obs::Counter& rejected_;
  obs::Counter& errors_;
  obs::Histogram& queue_wait_hist_;
  obs::Histogram& service_time_;
  obs::Gauge& inflight_gauge_;
  obs::Gauge& inflight_peak_;  ///< high-watermark (Gauge::record_max)
  obs::Gauge& cache_bytes_;

  /// Service start, for uptime_s().
  std::chrono::steady_clock::time_point start_;

  SlowQueryLog slow_log_;

  // Self-profile windowing: the registry window and its schedule, all
  // behind one mutex (the housekeeping thread and direct
  // export_self_profile_window() calls serialize here).
  ts::Mutex profile_mutex_;
  std::unique_ptr<obs::RegistryWindow> window_ CUBE_GUARDED_BY(profile_mutex_);
  std::int64_t next_window_ns_ CUBE_GUARDED_BY(profile_mutex_) = 0;
  std::atomic<std::uint64_t> windows_stored_{0};

  // pool_ is declared after the probe state (its tasks touch it) and
  // engine_ last (it runs on the pool): destruction joins the workers
  // first, then tears down what they referenced.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<query::QueryEngine> engine_;
};

}  // namespace cube::server
