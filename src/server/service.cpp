#include "server/service.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "io/binary_format.hpp"
#include "io/meta_format.hpp"
#include "obs/json_export.hpp"
#include "obs/self_profile.hpp"
#include "obs/tracer.hpp"
#include "query/analyze.hpp"
#include "query/query_expr.hpp"

namespace cube::server {

namespace {

/// Internal marker: the query text itself failed to parse (parse_query
/// reports this as a plain Error, which would otherwise be
/// indistinguishable from a planning failure).
class QueryParseError : public Error {
 public:
  using Error::Error;
};

/// Internal signal: an owned computation was refused before it ran — shed
/// by admission control (a Busy outcome) or rejected by static analysis
/// (an "analysis" Error outcome).  Thrown through ResultCache::fail so
/// coalesced waiters surface the same structured outcome as the refusing
/// owner.
class Refusal : public Error {
 public:
  explicit Refusal(QueryOutcome outcome)
      : Error(outcome.status == QueryOutcome::Status::Busy
                  ? "busy: " + outcome.busy.reason
                  : outcome.error.message),
        outcome_(std::move(outcome)) {}
  [[nodiscard]] const QueryOutcome& outcome() const noexcept {
    return outcome_;
  }

 private:
  QueryOutcome outcome_;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

QueryOutcome error_outcome(std::string category, std::string message) {
  QueryOutcome out;
  out.status = QueryOutcome::Status::Error;
  out.error = ErrorPayload{std::move(category), std::move(message)};
  return out;
}

}  // namespace

AnalysisService::AnalysisService(ExperimentRepository& repo,
                                 ServiceConfig config)
    : config_(std::move(config)),
      repo_(repo),
      cache_(config_.cache_capacity_bytes),
      queries_(obs::MetricsRegistry::global().counter("server.queries")),
      cache_hits_(obs::MetricsRegistry::global().counter("server.cache_hits")),
      coalesced_(obs::MetricsRegistry::global().counter("server.coalesced")),
      computes_(obs::MetricsRegistry::global().counter("server.computes")),
      busy_(obs::MetricsRegistry::global().counter("server.busy")),
      rejected_(obs::MetricsRegistry::global().counter("server.rejected")),
      errors_(obs::MetricsRegistry::global().counter("server.errors")),
      queue_wait_hist_(obs::MetricsRegistry::global().histogram(
          "server.queue_wait", obs::SampleUnit::Seconds)),
      service_time_(obs::MetricsRegistry::global().histogram(
          "server.service_time", obs::SampleUnit::Seconds)),
      inflight_gauge_(obs::MetricsRegistry::global().gauge("server.inflight")),
      inflight_peak_(
          obs::MetricsRegistry::global().gauge("server.inflight_peak")),
      cache_bytes_(obs::MetricsRegistry::global().gauge(
          "server.cache_bytes", obs::SampleUnit::Bytes)),
      start_(std::chrono::steady_clock::now()),
      slow_log_(config_.slow_log_capacity, config_.slow_log_threshold_ms) {
  if (config_.threads == 0) config_.threads = ThreadPool::default_threads();
  if (config_.max_inflight == 0) config_.max_inflight = 2 * config_.threads;
  window_ =
      std::make_unique<obs::RegistryWindow>(obs::MetricsRegistry::global());
  next_window_ns_ =
      now_ns() +
      static_cast<std::int64_t>(config_.self_profile_interval_s) * 1000000000;
  pool_ = std::make_unique<ThreadPool>(config_.threads);

  query::QueryOptions options;
  options.threads = config_.threads;
  options.store_derived = config_.store_derived;
  options.validate_loads = config_.validate_loads;
  engine_ = std::make_unique<query::QueryEngine>(repo_, options, *pool_);
}

AnalysisService::~AnalysisService() = default;

query::QueryPlan AnalysisService::resolve_plan(const std::string& text) {
  OBS_SPAN("server.plan");
  // parse_query reports syntax problems as plain Error; promote them so
  // the wire error category distinguishes parse from plan failures.
  std::unique_ptr<query::QueryExpr> expr;
  try {
    expr = query::parse_query(text);
  } catch (const Error& e) {
    throw QueryParseError(e.what());
  }
  return engine_->plan(*expr);
}

ErrorPayload AnalysisService::analyze_admission(const query::QueryPlan& plan) {
  OBS_SPAN("server.analyze");
  lint::DiagnosticSink sink;
  query::AnalyzeOptions options;
  options.budget_bytes = config_.budget_bytes;
  options.use_cache = engine_->options().use_cache;
  options.operators = engine_->options().operators;
  ErrorPayload rejection;
  try {
    (void)query::analyze_plan(plan, repo_, sink, options);
  } catch (const std::exception&) {
    // Analysis must never turn an executable query into a rejection: an
    // unexpected analyzer failure admits the plan and lets the eval path
    // report whatever is actually wrong.
    return rejection;
  }
  if (!sink.reached(lint::Level::Error)) return rejection;
  rejection.category = "analysis";
  for (const lint::Diagnostic& d : sink.diagnostics()) {
    if (rejection.message.empty() && d.level == lint::Level::Error) {
      rejection.message = d.rule + ": " + d.message;
    }
    rejection.diagnostics.push_back(
        WireDiagnostic{d.rule, static_cast<std::uint32_t>(d.level),
                       d.location, d.message, d.hint});
  }
  return rejection;
}

BusyPayload AnalysisService::busy_payload(const std::string& reason) const {
  BusyPayload busy;
  busy.retry_ms = config_.busy_retry_ms;
  busy.inflight = inflight_.load(std::memory_order_relaxed);
  busy.queue_wait_ms = queue_wait_ewma_ms_.load(std::memory_order_relaxed);
  busy.reason = reason;
  return busy;
}

void AnalysisService::note_queue_wait(double ms) {
  // Half-weight blend toward the newest sample; recent_queue_wait_ms()
  // additionally decays the value by age, so a single slow sample cannot
  // shed traffic forever.
  const double old = queue_wait_ewma_ms_.load(std::memory_order_relaxed);
  const double blended =
      queue_wait_stamp_ns_.load(std::memory_order_relaxed) == 0
          ? ms
          : 0.5 * old + 0.5 * ms;
  queue_wait_ewma_ms_.store(blended, std::memory_order_relaxed);
  queue_wait_stamp_ns_.store(now_ns(), std::memory_order_relaxed);
  queue_wait_hist_.observe(ms / 1000.0);
}

double AnalysisService::recent_queue_wait_ms() {
  bool expected = false;
  if (probe_outstanding_.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
    const std::int64_t submitted = now_ns();
    pool_->submit([this, submitted] {
      note_queue_wait(static_cast<double>(now_ns() - submitted) / 1e6);
      probe_outstanding_.store(false, std::memory_order_release);
    });
  }
  const std::int64_t stamp =
      queue_wait_stamp_ns_.load(std::memory_order_relaxed);
  if (stamp == 0) return 0.0;
  // Half-life of one second: a wait observed two seconds ago counts a
  // quarter of its value.
  const double age_s = static_cast<double>(now_ns() - stamp) / 1e9;
  return queue_wait_ewma_ms_.load(std::memory_order_relaxed) *
         std::pow(0.5, age_s);
}

QueryOutcome AnalysisService::handle_query(const std::string& text,
                                           std::uint64_t request_id) {
  obs::Span query_span("server.query");
  if (request_id != 0) query_span.tag(request_id);
  const std::int64_t t0 = now_ns();
  queries_.add();
  // The slow-query log entry for this query, filled in as the phases run.
  // Until a plan resolves, the canonical text is the raw query text.
  WireSlowQuery slow;
  slow.request_id = request_id;
  slow.canonical = text;
  slow.outcome = "error";
  auto finish = [&](QueryOutcome out) {
    out.server_ms = static_cast<double>(now_ns() - t0) / 1e6;
    service_time_.observe(out.server_ms / 1000.0);
    cache_bytes_.set(static_cast<double>(cache_.size_bytes()));
    slow.server_ms = out.server_ms;
    slow_log_.record(std::move(slow));
    return out;
  };

  if (config_.force_busy) {
    busy_.add();
    slow.outcome = "busy";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Busy;
    out.busy = busy_payload("forced by configuration");
    return finish(out);
  }

  query::QueryPlan plan;
  const std::int64_t plan_t0 = now_ns();
  try {
    plan = resolve_plan(text);
    slow.plan_ms = static_cast<double>(now_ns() - plan_t0) / 1e6;
  } catch (const QueryParseError& e) {
    slow.plan_ms = static_cast<double>(now_ns() - plan_t0) / 1e6;
    errors_.add();
    return finish(error_outcome("parse", e.what()));
  } catch (const Error& e) {
    slow.plan_ms = static_cast<double>(now_ns() - plan_t0) / 1e6;
    errors_.add();
    return finish(error_outcome("plan", e.what()));
  }
  const std::uint64_t key = plan.nodes[plan.root].key;
  slow.canonical = plan.nodes[plan.root].canonical;

  // A query refused before any computation: shed (Busy) or rejected by
  // static analysis (Error), its own miss or the one it coalesced onto.
  auto refuse = [&](QueryOutcome out) {
    if (out.status == QueryOutcome::Status::Busy) {
      busy_.add();
      slow.outcome = "busy";
    } else {
      rejected_.add();
      errors_.add();
      slow.outcome = "rejected";
    }
    return finish(std::move(out));
  };

  ResultCache::Lookup lookup;
  try {
    lookup = cache_.acquire(key);
  } catch (const Refusal& e) {
    return refuse(e.outcome());
  } catch (const Error& e) {
    // Coalesced onto a computation that failed.
    errors_.add();
    return finish(error_outcome("eval", e.what()));
  }

  if (lookup.outcome != ResultCache::Outcome::Owner) {
    const bool hit = lookup.outcome == ResultCache::Outcome::Hit;
    (hit ? cache_hits_ : coalesced_).add();
    slow.outcome = hit ? "hit" : "coalesced";
    QueryOutcome out;
    out.status = QueryOutcome::Status::Ok;
    out.served = hit ? Served::CacheHit : Served::Coalesced;
    out.result = std::move(lookup.result);
    return finish(out);
  }

  // Owner path: this thread must compute — unless static analysis
  // rejects the plan or admission control sheds it.  Either refusal
  // fails the slot, so every session coalesced onto it is refused alike.
  const std::int64_t analyze_t0 = now_ns();
  QueryOutcome refusal;  // an Error outcome, refusing if it has a category
  refusal.error = analyze_admission(plan);
  slow.plan_ms += static_cast<double>(now_ns() - analyze_t0) / 1e6;
  if (refusal.error.category.empty()) {
    std::string shed_reason;
    const double wait_ms = recent_queue_wait_ms();
    if (inflight_.load(std::memory_order_relaxed) >= config_.max_inflight) {
      shed_reason = "computation ceiling reached";
    } else if (wait_ms > config_.busy_queue_wait_ms) {
      shed_reason = "executor queue wait degraded";
    }
    if (!shed_reason.empty()) {
      refusal.status = QueryOutcome::Status::Busy;
      refusal.busy = busy_payload(shed_reason);
    }
  }
  if (refusal.status == QueryOutcome::Status::Busy ||
      !refusal.error.category.empty()) {
    cache_.fail(key, [refusal] { throw Refusal(refusal); });
    return refuse(std::move(refusal));
  }

  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    const double level =
        static_cast<double>(inflight_.load(std::memory_order_relaxed));
    inflight_gauge_.set(level);
    inflight_peak_.record_max(level);
  }
  try {
    const std::int64_t compute_t0 = now_ns();
    obs::Span compute_span("server.compute");
    if (request_id != 0) compute_span.tag(request_id);
    if (config_.before_compute) config_.before_compute();
    query::QueryResult result = engine_->run_plan(plan);
    slow.compute_ms = static_cast<double>(now_ns() - compute_t0) / 1e6;

    CachedResult cached;
    {
      const std::int64_t ser_t0 = now_ns();
      OBS_SPAN("server.serialize");
      cached.canonical = result.canonical;
      cached.meta_digest = result.experiment.metadata().digest();
      cached.meta_blob = std::make_shared<const std::string>(
          to_cube_meta(result.experiment.metadata()));
      // The root's stored file IS its CUBEBIN2 body: reuse those bytes
      // and encode only when the run stored no root.
      cached.body = result.stored_bytes
                        ? std::move(result.stored_bytes)
                        : std::make_shared<const std::string>(
                              to_cube_binary_ref(result.experiment));
      slow.serialize_ms = static_cast<double>(now_ns() - ser_t0) / 1e6;
    }
    std::shared_ptr<const CachedResult> published =
        cache_.publish(key, std::move(cached));
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_gauge_.set(
        static_cast<double>(inflight_.load(std::memory_order_relaxed)));
    computes_.add();
    slow.outcome = "computed";

    QueryOutcome out;
    out.status = QueryOutcome::Status::Ok;
    out.served = Served::Computed;
    out.result = std::move(published);
    return finish(out);
  } catch (...) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    inflight_gauge_.set(
        static_cast<double>(inflight_.load(std::memory_order_relaxed)));
    errors_.add();
    try {
      throw;
    } catch (const Error& e) {
      cache_.fail(key,
                  [msg = std::string(e.what())] { throw Error(msg); });
      return finish(error_outcome("eval", e.what()));
    } catch (const std::exception& e) {
      cache_.fail(key,
                  [msg = std::string(e.what())] { throw Error(msg); });
      return finish(error_outcome("internal", e.what()));
    }
  }
}

namespace {

void write_server_field(std::ostream& out, const char* key, double value,
                        bool first = false) {
  if (!first) out << ',';
  obs::write_json_string(out, key);
  out << ':';
  obs::write_json_number(out, value);
}

void write_server_field(std::ostream& out, const char* key,
                        std::uint64_t value, bool first = false) {
  if (!first) out << ',';
  obs::write_json_string(out, key);
  out << ':';
  obs::write_json_number(out, value);
}

}  // namespace

std::string AnalysisService::compose_stats_json(
    const std::vector<obs::MetricSample>& samples,
    const std::vector<WireSlowQuery>& slow) const {
  std::ostringstream out;
  out << "{\"server\":{";
  obs::write_json_string(out, "name");
  out << ':';
  obs::write_json_string(out, config_.self_profile_source);
  write_server_field(out, "uptime_s", uptime_s());
  write_server_field(out, "generation", repo_.generation());
  write_server_field(out, "queries", queries_.value());
  write_server_field(out, "cache_hits", cache_hits_.value());
  write_server_field(out, "coalesced", coalesced_.value());
  write_server_field(out, "computes", computes_.value());
  write_server_field(out, "busy", busy_.value());
  write_server_field(out, "rejected", rejected_.value());
  write_server_field(out, "errors", errors_.value());
  write_server_field(
      out, "inflight",
      static_cast<std::uint64_t>(inflight_.load(std::memory_order_relaxed)));
  write_server_field(out, "max_inflight",
                     static_cast<std::uint64_t>(config_.max_inflight));
  write_server_field(out, "cache_bytes",
                     static_cast<std::uint64_t>(cache_.size_bytes()));
  write_server_field(out, "cache_capacity_bytes",
                     static_cast<std::uint64_t>(config_.cache_capacity_bytes));
  write_server_field(out, "slow_log_threshold_ms",
                     config_.slow_log_threshold_ms);
  write_server_field(out, "slow_log_capacity",
                     static_cast<std::uint64_t>(config_.slow_log_capacity));
  write_server_field(
      out, "self_profile_interval_s",
      static_cast<std::uint64_t>(config_.self_profile_interval_s));
  write_server_field(out, "self_profile_windows", self_profile_windows());
  out << "},\"metrics\":";
  obs::write_metrics_json(out, samples);
  out << ",\"slow_queries\":[";
  bool first = true;
  for (const WireSlowQuery& entry : slow) {
    if (!first) out << ',';
    first = false;
    out << '{';
    write_server_field(out, "request_id", entry.request_id, true);
    out << ',';
    obs::write_json_string(out, "canonical");
    out << ':';
    obs::write_json_string(out, entry.canonical);
    out << ',';
    obs::write_json_string(out, "outcome");
    out << ':';
    obs::write_json_string(out, entry.outcome);
    write_server_field(out, "server_ms", entry.server_ms);
    write_server_field(out, "plan_ms", entry.plan_ms);
    write_server_field(out, "compute_ms", entry.compute_ms);
    write_server_field(out, "serialize_ms", entry.serialize_ms);
    write_server_field(out, "sequence", entry.sequence);
    out << '}';
  }
  out << "]}";
  return out.str();
}

StatsPayload AnalysisService::stats() const {
  StatsPayload payload;
  payload.samples = obs::MetricsRegistry::global().snapshot();
  payload.slow = slow_log_.snapshot();
  payload.json = compose_stats_json(payload.samples, payload.slow);
  return payload;
}

std::string AnalysisService::stats_json() const {
  return compose_stats_json(obs::MetricsRegistry::global().snapshot(),
                            slow_log_.snapshot());
}

std::string AnalysisService::health_json() const {
  std::ostringstream out;
  out << "{\"status\":\"ok\",";
  obs::write_json_string(out, "server");
  out << ':';
  obs::write_json_string(out, config_.self_profile_source);
  write_server_field(out, "protocol_version",
                     static_cast<std::uint64_t>(kProtocolVersion));
  write_server_field(out, "uptime_s", uptime_s());
  write_server_field(out, "generation", repo_.generation());
  write_server_field(
      out, "inflight",
      static_cast<std::uint64_t>(inflight_.load(std::memory_order_relaxed)));
  write_server_field(out, "queries", queries_.value());
  out << '}';
  return out.str();
}

double AnalysisService::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void AnalysisService::housekeeping_tick() {
  (void)refresh();
  if (config_.self_profile_interval_s == 0) return;
  bool due = false;
  {
    ts::MutexLock lock(profile_mutex_);
    const std::int64_t now = now_ns();
    if (now >= next_window_ns_) {
      due = true;
      next_window_ns_ =
          now + static_cast<std::int64_t>(config_.self_profile_interval_s) *
                    1000000000;
    }
  }
  if (due) (void)export_self_profile_window();
}

std::string AnalysisService::export_self_profile_window() {
  std::unique_ptr<obs::MetricsRegistry> delta;
  {
    ts::MutexLock lock(profile_mutex_);
    delta = window_->advance();
  }
  const std::uint64_t seq =
      windows_stored_.fetch_add(1, std::memory_order_relaxed) + 1;
  char tag[16];
  std::snprintf(tag, sizeof(tag), "w%06llu",
                static_cast<unsigned long long>(seq));
  obs::SelfProfileOptions options;
  options.name = config_.self_profile_source + ".self." + tag;
  // Deliberately no thread list: every window then synthesizes the same
  // single "main" thread, so all windows of one server carry
  // digest-identical metadata and `difference` composes any two of them
  // bit-deterministically.
  Experiment window = obs::export_self_profile({}, *delta, options);
  window.set_attribute("cube.self.source", config_.self_profile_source);
  window.set_attribute("cube.self.window", std::to_string(seq));
  window.set_attribute("cube.self.interval_s",
                       std::to_string(config_.self_profile_interval_s));
  return repo_.store(window, RepoFormat::Binary);
}

bool AnalysisService::refresh() {
  // Pick up other processes' stores FIRST, then fold the index: once
  // enough dead records accumulate it is compacted into one sealed
  // segment (a no-op on legacy repositories and below the dead-record
  // threshold).  Compaction itself replays any records that land in the
  // window after refresh(), and either step bumps the repository
  // generation when the entry list changed.
  const std::uint64_t before = repo_.generation();
  repo_.refresh();
  repo_.compact_if_needed();
  return repo_.generation() != before;
}

}  // namespace cube::server
