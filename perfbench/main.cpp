// perfbench entry point.
//
//   perfbench --workload cold_series|ingest_lookup --seed N --seconds S
//             --trace 0|1 [--export FILE] [--corrupt-reply N]
//             [--git-rev REV] [--source-digest D]
//
// Runs in the current directory, which it fills with scratch repositories
// and empties again.  Prints an environment stamp, the input digests, a
// table of every metric with its unit and sample count, and as the last
// line one JSON object:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any answer is wrong (correct=false), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "algebra/simd.hpp"
#include "common/digest.hpp"
#include "obs/json_export.hpp"
#include "obs/self_profile.hpp"
#include "obs/window.hpp"
#include "perfbench.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;
using namespace cube::server;

/// Set-ups per run: at least kMinSetups, repeated until kSetupSeconds are
/// spent, at most kMaxSetups; setup_s is the median of all of them.
constexpr int kMinSetups = 3;
constexpr double kSetupSeconds = 2.0;
constexpr int kMaxSetups = 12;

/// Rounds of the traced run, and queries replayed after each.
constexpr std::size_t kTraceRounds = 4;
constexpr std::size_t kReplaysPerRound = 6;

struct Args {
  Kind kind = Kind::ColdSeries;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string export_path;
  long corrupt_reply = -1;
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
};

/// One running daemon over a freshly generated repository.
struct Fixture {
  fs::path dir;
  std::unique_ptr<cube::ExperimentRepository> repo;
  std::unique_ptr<AnalysisService> service;
  std::unique_ptr<CubedServer> server;
  ClientConfig client;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  /// Stops the daemon, then removes the repository.  Removing each set-up
  /// before the next one starts keeps the files short-lived: pages of a
  /// file deleted before write-back never reach the disk, so a run leaves
  /// little disk work behind for the next.
  ~Fixture() {
    server.reset();
    service.reset();
    repo.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// ExperimentRepository::store latencies in groups: ingest_lookup's
/// writer stores (timed from when each was due) by round of a phase of
/// `seconds`, else the set-ups' stores, one group per set-up.
std::vector<std::vector<double>> store_groups(
    const Scenario& scenario, const std::vector<std::vector<double>>& setups,
    double seconds) {
  const auto writer = scenario.background_stores();
  if (writer.empty()) return setups;
  std::vector<double> at_s, ms;
  for (const auto& [due, latency] : writer) {
    at_s.push_back(due);
    ms.push_back(latency);
  }
  return by_round(ms, at_s, seconds);
}

/// Generates and stores the repository, starts the daemon.
std::unique_ptr<Fixture> set_up(Scenario& scenario, const fs::path& dir,
                                std::vector<double>& store_ms) {
  auto fx = std::make_unique<Fixture>();
  fx->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  scenario.populate(dir / "repo", store_ms);
  fx->repo = std::make_unique<cube::ExperimentRepository>(dir / "repo");
  ServiceConfig service_config;
  ServerConfig server_config;
  scenario.configure(service_config, server_config);
  // Relative to the working directory: sockaddr_un holds 107 bytes.
  server_config.socket_path = dir / "cubed.sock";
  fx->service = std::make_unique<AnalysisService>(*fx->repo, service_config);
  fx->server = std::make_unique<CubedServer>(*fx->service, server_config);
  fx->server->start();
  fx->client.socket_path = server_config.socket_path;
  return fx;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("%-30s %16s %-6s %9s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f %-6s %9zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::ostringstream json;
  json << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json << ',';
    cube::obs::write_json_string(json, metrics[i].name);
    json << ":{\"value\":";
    cube::obs::write_json_number(json, metrics[i].value);
    json << ",\"unit\":";
    cube::obs::write_json_string(json, metrics[i].unit);
    json << '}';
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_series|ingest_lookup "
               "--seed N --seconds S --trace 0|1 [--export FILE] "
               "[--corrupt-reply N] [--git-rev REV] [--source-digest D]\n");
  return 2;
}

int run(const Args& args) {
  std::unique_ptr<Scenario> scenario = make_scenario(args.kind, args.seed);
  const char* workload = kind_name(args.kind);
  const std::vector<std::pair<std::string, std::string>> stamp = {
      {"workload", workload},
      {"seed", std::to_string(args.seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd", cube::simd::backend_name(cube::simd::active_backend())},
      {"build", PERFBENCH_BUILD_TYPE},
      {"git_rev", args.git_rev},
      {"source_digest", args.source_digest},
  };
  std::printf("# env:");
  for (const auto& [key, value] : stamp) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");

  // Set up several times, so that setup_s is a median and a quick set-up
  // is not timed once only; keep the last daemon for the timed phase.
  std::vector<double> setup_s;
  std::vector<std::vector<double>> setup_store_ms;  ///< per set-up
  std::unique_ptr<Fixture> fx;
  double setup_total_s = 0.0;
  for (int k = 0; k < kMinSetups ||
                  (setup_total_s < kSetupSeconds && k < kMaxSetups);
       ++k) {
    fx.reset();
    setup_store_ms.emplace_back();
    const auto t0 = Clock::now();
    fx = set_up(*scenario, "setup" + std::to_string(k),
                setup_store_ms.back());
    setup_s.push_back(ms_since(t0) / 1000.0);
    setup_total_s += setup_s.back();
  }
  const std::string repo_digest = cube::digest_hex(scenario->repo_digest());
  const std::string stream_digest =
      cube::digest_hex(scenario->stream_digest());
  std::printf("# inputs: repo_digest=%s stream_digest=%s\n",
              repo_digest.c_str(), stream_digest.c_str());
  const fs::path repo_dir = fx->dir / "repo";
  std::vector<std::size_t> cursor(kClients, 0);

  if (!args.trace) {
    const LoadStats load =
        run_load(*scenario, *fx->service, fx->client, args.seconds, false,
                 cursor, args.corrupt_reply);
    const double rss = peak_rss_mb();
    const bool correct =
        load.mismatches == 0 && scenario->verify_after(repo_dir);
    // Latencies are medians over the phase's rounds (median_of_groups).
    const std::vector<std::vector<double>> stores =
        store_groups(*scenario, setup_store_ms, args.seconds);
    const std::vector<std::vector<double>> rounds =
        by_round(load.rt_ms, load.done_s, args.seconds);
    std::printf("# %s: %zu answers in %zu rounds, %llu errors, pooled p50 "
                "%.4f p90 %.4f p99 %.4f ms, writer max lateness %.3f ms\n",
                workload, load.rt_ms.size(), rounds.size(),
                static_cast<unsigned long long>(load.errors),
                quantile(load.rt_ms, 0.5), quantile(load.rt_ms, 0.9),
                quantile(load.rt_ms, 0.99),
                scenario->background_max_late_ms());
    const double error_share =
        load.attempted > 0 ? static_cast<double>(load.errors) /
                                 static_cast<double>(load.attempted)
                           : 1.0;
    std::printf("# error_share %.6f, store p50 %.4f p90 %.4f ms\n",
                error_share, median_of_groups(stores, 0.5),
                median_of_groups(stores, 0.9));
    const std::size_t answers = load.rt_ms.size();
    print_result(
        correct, load.attempted, load.errors,
        {{"rt_p50_ms", median_of_groups(rounds, 0.5), "ms", answers},
         {"rt_p90_ms", median_of_groups(rounds, 0.9), "ms", answers},
         {"qps", static_cast<double>(answers) / load.wall_s, "1/s", answers},
         {"answered_share", 1.0 - error_share, "ratio",
          static_cast<std::size_t>(load.attempted)},
         {"setup_s", quantile(setup_s, 0.5), "s", setup_s.size()},
         {"peak_rss_mb", rss, "MB", 1}});
    return correct ? 0 : 1;
  }

  // Traced run: rounds of the workload with tracing off and on (the
  // registry windowed over the traced half), then a pause in which a few
  // of the round's computed queries are replayed layer by layer.  Both
  // halves share each round's repository state, which cold_series and
  // ingest_lookup grow; odd rounds run the traced half first, so neither
  // half sees the larger repository more often.
  cube::obs::MetricsRegistry& registry = cube::obs::MetricsRegistry::global();
  registry.gauge("server.inflight_peak").reset();
  cube::obs::RegistryWindow window(registry);
  cube::obs::Tracer::instance().reset();
  cube::ExperimentRepository replay_repo(repo_dir);
  cube::query::QueryOptions replay_options;
  replay_options.use_cache = false;
  replay_options.store_derived = false;
  cube::query::QueryEngine replay_engine(replay_repo, replay_options);
  TracedPhase phase;
  const double slice = args.seconds / (2.0 * kTraceRounds);
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    LoadStats traced;
    for (std::size_t half = 0; half < 2; ++half) {
      if ((half == 0) != (round % 2 == 1)) {
        phase.untraced.merge(run_load(*scenario, *fx->service, fx->client,
                                      slice, false, cursor, -1));
        continue;
      }
      (void)window.advance();
      cube::obs::enable_tracing();
      traced = run_load(*scenario, *fx->service, fx->client, slice, true,
                        cursor, round == 0 ? args.corrupt_reply : -1);
      cube::obs::disable_tracing();
      phase.delta.absorb(*window.advance());
      if (!scenario->background_stores().empty()) {
        for (std::vector<double>& g :
             store_groups(*scenario, setup_store_ms, slice)) {
          phase.store_groups.push_back(std::move(g));
        }
      }
      const std::vector<double> refresh = scenario->background_refresh_ms();
      phase.refresh_ms.insert(phase.refresh_ms.end(), refresh.begin(),
                              refresh.end());
    }
    (void)replay_repo.refresh();
    replay_queries(traced.computed_texts, kReplaysPerRound, replay_repo,
                   replay_engine, phase.replay);
    phase.traced.merge(traced);
  }
  phase.spans = cube::obs::Tracer::instance().snapshot();
  phase.inflight_peak = registry.gauge("server.inflight_peak").value();
  phase.index_entries = replay_repo.entries_snapshot().size();
  const std::vector<LayerValue> layers = derive_layers(phase);
  const bool correct = phase.untraced.mismatches == 0 &&
                       phase.traced.mismatches == 0 &&
                       scenario->verify_after(repo_dir);

  if (!args.export_path.empty()) {
    std::vector<std::pair<std::string, std::string>> attributes;
    for (const auto& [key, value] : stamp) {
      attributes.emplace_back("perfbench." + key, value);
    }
    attributes.emplace_back("perfbench.repo_digest", repo_digest);
    attributes.emplace_back("perfbench.stream_digest", stream_digest);
    cube::obs::write_self_profile_file(
        export_layers(layers, args.kind, attributes), args.export_path);
  }
  std::vector<Metric> metrics;
  const std::vector<LayerMetric>& units = layer_metrics();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    metrics.push_back(Metric{layers[i].name, layers[i].value, units[i].unit,
                             phase.traced.rt_ms.size()});
  }
  print_result(correct, phase.untraced.attempted + phase.traced.attempted,
               phase.untraced.errors + phase.traced.errors, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      have_workload = true;
      if (val == "cold_series") {
        args.kind = Kind::ColdSeries;
      } else if (val == "ingest_lookup") {
        args.kind = Kind::IngestLookup;
      } else {
        return usage();
      }
    } else if (arg == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      args.trace = val == "1";
    } else if (arg == "--export") {
      args.export_path = val;
    } else if (arg == "--corrupt-reply") {
      args.corrupt_reply = std::atol(val.c_str());
    } else if (arg == "--git-rev") {
      args.git_rev = val;
    } else if (arg == "--source-digest") {
      args.source_digest = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || args.seconds <= 0.0) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
