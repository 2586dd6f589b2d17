// perfbench: the analysis service's benchmark (README.md in this directory).
//
// A run builds one workload's repository from a seed, starts an in-process
// AnalysisService + CubedServer on a unix socket, drives it with CubeClient
// sessions, and checks every answer.  The untraced run reports the
// end-to-end metrics; the traced run (--trace 1) replays the workload and
// derives the per-layer metrics from the benchmark's own calls into each
// module's public functions plus deltas of the global metrics registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/repository.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "query/engine.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Quantile with linear interpolation between order statistics; 0 when
/// `v` is empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

enum class Kind { ColdSeries, IngestLookup };

[[nodiscard]] const char* kind_name(Kind kind);

/// One query as a client issued it, plus what its answer must satisfy.
struct Issued {
  std::string text;
  /// Repository ids the answer's canonical operand list must contain
  /// (ingest_lookup's freshness check).
  std::vector<std::string> expect_ids;
  /// The caller corrupted this reply on purpose (--corrupt-reply).
  bool corrupted = false;
};

/// A workload: the seeded generator of its repository and query stream,
/// the daemon configuration it runs under, and its correctness oracle.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Generates the repository into `dir` (a fresh directory) and records
  /// every ExperimentRepository::store latency in `store_ms`.
  virtual void populate(const std::filesystem::path& dir,
                        std::vector<double>& store_ms) = 0;
  virtual void configure(cube::server::ServiceConfig& service,
                         cube::server::ServerConfig& server) const = 0;

  /// The next query of client `client` (stream position `index`).
  [[nodiscard]] virtual Issued issue(std::size_t client,
                                     std::size_t index) = 0;
  /// Checks one answer; false (with a message on stderr) on a mismatch.
  [[nodiscard]] virtual bool check(const Issued& issued,
                                   const cube::server::ClientResult& result) = 0;
  /// Verification after the timed phase (cold_series' in-process oracle).
  [[nodiscard]] virtual bool verify_after(const std::filesystem::path& dir) {
    (void)dir;
    return true;
  }

  /// Background load during a timed phase (ingest_lookup's writer).
  virtual void start_background(cube::server::AnalysisService& /*service*/) {}
  virtual void stop_background() {}
  /// Stores of the background writer: (due time in seconds since the
  /// phase started, latency in ms from due time).
  [[nodiscard]] virtual std::vector<std::pair<double, double>>
  background_stores() const {
    return {};
  }
  /// AnalysisService::refresh latencies of the background writer.
  [[nodiscard]] virtual std::vector<double> background_refresh_ms() const {
    return {};
  }
  [[nodiscard]] virtual double background_max_late_ms() const { return 0.0; }

  /// Digests of the generated repository and of the seeded query stream.
  [[nodiscard]] virtual std::uint64_t repo_digest() const = 0;
  [[nodiscard]] virtual std::uint64_t stream_digest() const = 0;
};

[[nodiscard]] std::unique_ptr<Scenario> make_scenario(Kind kind,
                                                      std::uint64_t seed);

/// Client sessions per workload (closed loop).
inline constexpr std::size_t kClients = 2;

/// Target length of the rounds a timed phase is cut into.
inline constexpr double kRoundSeconds = 2.0;

/// Everything one timed phase observed.
struct LoadStats {
  std::vector<double> rt_ms;      ///< query round trip incl. decode
  std::vector<double> done_s;     ///< when each rt_ms sample completed,
                                  ///< in seconds since the phase began
  std::vector<double> raw_ms;     ///< traced: query_raw round trip
  std::vector<double> decode_ms;  ///< traced: client-side decode
  std::vector<double> server_ms;  ///< server-stamped service time
  double result_bytes = 0.0;      ///< summed payload bytes
  std::uint64_t meta_shipped = 0;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;       ///< BUSY, Error frames, thrown errors
  std::uint64_t mismatches = 0;   ///< oracle failures
  double wall_s = 0.0;
  /// Traced: texts the server answered Computed, in issue order.
  std::vector<std::string> computed_texts;

  /// Adds another phase's observations to these.
  void merge(const LoadStats& other);
};

/// Samples of `values` grouped into the rounds that tile a phase of
/// `seconds`, by the time `at_s` each was taken (late ones join the last
/// round).
[[nodiscard]] std::vector<std::vector<double>> by_round(
    const std::vector<double>& values, const std::vector<double>& at_s,
    double seconds);

/// Median across groups of the q-quantile within each non-empty group.
/// Timed phases report per-round figures this way: a burst of
/// interference from outside the benchmark moves one round's figure, not
/// the run's.
[[nodiscard]] double median_of_groups(
    const std::vector<std::vector<double>>& groups, double q);

/// Drives `kClients` closed-loop sessions for `seconds`, one connection
/// each (a broken session reconnects).  Client c continues its
/// stream at `cursor[c]` and leaves it after its last query, so a later
/// phase never repeats an earlier one's queries.  `corrupt_reply` >= 0
/// corrupts that reply (counted from 0 in this phase) of client 0 before
/// the oracle runs.
[[nodiscard]] LoadStats run_load(Scenario& scenario,
                                 cube::server::AnalysisService& service,
                                 const cube::server::ClientConfig& client,
                                 double seconds, bool traced,
                                 std::vector<std::size_t>& cursor,
                                 long corrupt_reply);

/// One per-layer metric value.
struct LayerValue {
  std::string name;
  double value = 0.0;
};

/// Per-call times of the steps inside the daemon's plan and run_plan, from
/// replaying computed queries in-process through each module's public
/// functions.
struct ReplaySamples {
  std::vector<double> parse_ms, cache_scan_ms, load_ms, eval_ms, io_load_ms,
      integrate_ms, operator_ms, operands, bytes_read;
};

/// Replays up to `count` evenly spaced entries of `texts` on `repo` (a
/// handle separate from the daemon's) and `engine` (over `repo`, cache
/// off).
void replay_queries(const std::vector<std::string>& texts, std::size_t count,
                    cube::ExperimentRepository& repo,
                    cube::query::QueryEngine& engine, ReplaySamples& out);

/// What the traced run observed: the untraced and traced load (they
/// alternate in rounds, so both see the repository grow alike), registry
/// deltas and spans over the traced rounds, and the replays.
struct TracedPhase {
  LoadStats untraced;
  LoadStats traced;
  cube::obs::MetricsRegistry delta;
  std::vector<cube::obs::ThreadSnapshot> spans;
  double inflight_peak = 0.0;
  std::vector<double> refresh_ms;
  /// The background writer's ExperimentRepository::store latencies, one
  /// group per round; empty without a writer.
  std::vector<std::vector<double>> store_groups;
  ReplaySamples replay;
  std::size_t index_entries = 0;
};

/// Derives every per-layer metric, in layer_metrics() order.
[[nodiscard]] std::vector<LayerValue> derive_layers(const TracedPhase& phase);

/// Unit of each per-layer metric, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// The per-layer numbers of one run as a CUBE experiment: layers form the
/// call tree, per-layer metrics the metric dimension, workloads the
/// threads.  Entities are created in sorted order, so two runs produce
/// digest-equal metadata and difference cleanly.
[[nodiscard]] cube::Experiment export_layers(
    const std::vector<LayerValue>& values, Kind kind,
    const std::vector<std::pair<std::string, std::string>>& attributes);

}  // namespace perfbench
