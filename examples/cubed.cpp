// cubed: the concurrent analysis daemon (docs/SERVER.md).
//
// Serves algebra queries over a unix-domain socket against one experiment
// repository.  Every connected session shares a single AnalysisService:
// one content-addressed result cache (identical queries from different
// clients hit or coalesce onto one computation) and one thread pool.
// Admission control sheds compute work with a structured BUSY response
// when the executor's queue wait degrades, instead of letting latency
// grow unboundedly.
//
// Usage:
//   cubed --repo <dir> --socket <path> [options]
//
// Options:
//   --threads N        executor threads (default: hardware concurrency)
//   --max-inflight N   computations in flight before misses shed
//                      (default: 2 x threads)
//   --busy-wait-ms X   shed misses when the recent executor queue wait
//                      exceeds X ms (default 50)
//   --retry-ms N       backoff suggested in BUSY responses (default 100)
//   --cache-bytes N    result cache byte budget (default 256 MiB)
//   --refresh-ms N     repository refresh period; picks up experiments
//                      stored by concurrent processes (default 500,
//                      0 disables)
//   --no-store         do not persist derived results into the repository
//   --validate-loads   lint every loaded experiment (reject invalid data)
//   --budget-bytes N   reject queries whose statically predicted peak
//                      resident memory exceeds N bytes, BEFORE they reach
//                      the compute path (0 disables; docs/QUERY.md,
//                      "Static plan analysis")
//   --force-busy       shed every query (deterministic BUSY; CI smoke)
//   --no-shutdown      ignore Shutdown frames from clients
//   --name <s>         server name reported in HelloOk (default cubed)
//   --slow-log-threshold X
//                      record queries at or above X ms wall time in the
//                      slow-query log, dumped via Stats (default 0:
//                      every query competes for a slot)
//   --slow-log-size N  worst queries kept (default 32, 0 disables)
//   --self-profile-interval N
//                      store a windowed self-profile experiment into the
//                      served repository every N seconds (0 disables);
//                      windows carry cube.self.* attributes and diff
//                      against each other (docs/OBSERVABILITY.md)
//   --trace/--self-profile/--stats   observability outputs, written when
//                      the daemon shuts down
#include <iostream>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "io/repository.hpp"
#include "obs_util.hpp"
#include "server/server.hpp"

int main(int argc, char** argv) {
  std::optional<std::string> repo_dir;
  cube::server::ServiceConfig service_config;
  cube::server::ServerConfig server_config;
  unsigned long long refresh_ms = 500;
  cube::cli::ObsOptions obs;
  obs.tool = "cubed";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs.parse_arg(argc, argv, i)) {
      // handled
    } else if (arg == "--repo" && i + 1 < argc) {
      repo_dir = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      server_config.socket_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], service_config.threads)) {
        std::cerr << "error: --threads expects a number\n";
        return 1;
      }
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], service_config.max_inflight)) {
        std::cerr << "error: --max-inflight expects a number\n";
        return 1;
      }
    } else if (arg == "--busy-wait-ms" && i + 1 < argc) {
      service_config.busy_queue_wait_ms = std::stod(argv[++i]);
    } else if (arg == "--retry-ms" && i + 1 < argc) {
      service_config.busy_retry_ms =
          static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], service_config.cache_capacity_bytes)) {
        std::cerr << "error: --cache-bytes expects a number\n";
        return 1;
      }
    } else if (arg == "--refresh-ms" && i + 1 < argc) {
      refresh_ms = std::stoull(argv[++i]);
    } else if (arg == "--no-store") {
      service_config.store_derived = false;
    } else if (arg == "--validate-loads") {
      service_config.validate_loads = true;
    } else if (arg == "--budget-bytes" && i + 1 < argc) {
      std::size_t budget = 0;
      if (!cube::parse_size(argv[++i], budget)) {
        std::cerr << "error: --budget-bytes expects a number\n";
        return 1;
      }
      service_config.budget_bytes = budget;
    } else if (arg == "--force-busy") {
      service_config.force_busy = true;
    } else if (arg == "--no-shutdown") {
      server_config.allow_shutdown = false;
    } else if (arg == "--name" && i + 1 < argc) {
      server_config.name = argv[++i];
    } else if (arg == "--slow-log-threshold" && i + 1 < argc) {
      service_config.slow_log_threshold_ms = std::stod(argv[++i]);
    } else if (arg == "--slow-log-size" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], service_config.slow_log_capacity)) {
        std::cerr << "error: --slow-log-size expects a number\n";
        return 1;
      }
    } else if (arg == "--self-profile-interval" && i + 1 < argc) {
      service_config.self_profile_interval_s =
          static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::cerr << "error: unexpected argument '" << arg << "'\n";
      return 1;
    }
  }
  if (!repo_dir || server_config.socket_path.empty()) {
    std::cerr << "usage: cubed --repo <dir> --socket <path> [--threads N]"
                 " [--max-inflight N] [--busy-wait-ms X] [--retry-ms N]"
                 " [--cache-bytes N] [--refresh-ms N] [--no-store]"
                 " [--validate-loads] [--budget-bytes N]"
                 " [--force-busy] [--no-shutdown]"
                 " [--name s] [--slow-log-threshold X] [--slow-log-size N]"
                 " [--self-profile-interval N]"
              << cube::cli::ObsOptions::usage() << "\n";
    return 1;
  }
  server_config.refresh_interval_ms = static_cast<unsigned>(refresh_ms);
  // Self-profile windows are attributed to the server that produced them.
  service_config.self_profile_source = server_config.name;

  obs.begin();
  try {
    cube::ExperimentRepository repo(*repo_dir);
    cube::server::AnalysisService service(repo, service_config);
    cube::server::CubedServer server(service, server_config);
    server.start();
    std::cout << "cubed listening on " << server_config.socket_path.string()
              << " (repo " << *repo_dir << ", "
              << service.config().threads << " threads, max inflight "
              << service.config().max_inflight << ")" << std::endl;
    server.wait();
    server.stop();
    std::cout << "cubed shut down after " << server.sessions_accepted()
              << " sessions" << std::endl;
    if (!obs.finish()) return 1;
    return 0;
  } catch (const cube::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
