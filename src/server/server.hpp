// CubedServer: the transport shell around AnalysisService.
//
// Listens on a unix-domain socket; every accepted connection gets a
// session thread running the frame loop (Hello handshake, then
// Query/Ping/Stats/Shutdown).  Sessions share ONE AnalysisService — and
// through it one result cache and one thread pool — so identical queries
// from different clients hit or coalesce.
//
// Per-session state is only the set of metadata digests already sent:
// a Result carries its CUBEMET1 blob the first time a session sees that
// digest and an empty meta_blob afterwards, mirroring the repository's
// store-once blob layout on the wire.
//
// A housekeeping thread calls AnalysisService::refresh() periodically, so
// experiments appended to the repository by a concurrent CLI process
// become queryable without restarting the daemon.
//
// Failure containment: a ProtocolError on one session answers that client
// with a structured Error frame and closes that connection; IoError (the
// peer vanished) closes it quietly.  Neither touches other sessions or
// the daemon.  start() ignores SIGPIPE process-wide — a client dying
// mid-response must surface as EPIPE through the EINTR-safe writers, not
// kill the process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/service.hpp"

namespace cube::server {

struct ServerConfig {
  std::filesystem::path socket_path;
  /// Server name reported in HelloOk.
  std::string name = "cubed";
  std::uint64_t max_payload = kDefaultMaxPayload;
  /// Period of the repository refresh housekeeping; 0 disables it.
  unsigned refresh_interval_ms = 500;
  /// Honor Shutdown frames from clients (the CI smoke job and tests stop
  /// the daemon this way).
  bool allow_shutdown = true;
};

class CubedServer {
 public:
  CubedServer(AnalysisService& service, ServerConfig config);
  ~CubedServer();

  CubedServer(const CubedServer&) = delete;
  CubedServer& operator=(const CubedServer&) = delete;

  /// Binds the socket and spawns the acceptor and housekeeping threads.
  /// Throws IoError if the socket cannot be bound.
  void start();

  /// Blocks until a shutdown is requested (Shutdown frame or stop()).
  void wait();

  /// Stops accepting, unblocks and joins every session, removes the
  /// socket.  Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] std::size_t sessions_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  /// fd is written once at accept time and closed exactly once when the
  /// session is reaped (or in stop()); the session thread itself never
  /// closes it, so stop() can safely shutdown() a live descriptor to
  /// unblock the read.
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void session_loop(Session& session);
  void housekeeping_loop();
  void request_shutdown();
  void reap_finished_sessions();

  AnalysisService& service_;
  ServerConfig config_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> accepted_{0};
  std::thread acceptor_;
  std::thread housekeeper_;

  std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace cube::server
