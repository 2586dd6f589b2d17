// cubed wire protocol: length-prefixed binary frames (docs/SERVER.md).
//
// A connection carries a sequence of FRAMES, each a fixed 16-byte header
// followed by a payload:
//
//     u32 magic "CUBS"   (0x53425543 little-endian)
//     u32 type           (MsgType)
//     u64 payload_len    (bytes that follow; bounded by max_payload)
//     ... payload ...
//
// Payloads are encoded with the same little-endian codec the CUBEBIN2 /
// CUBEMET1 file formats use (io/binary_codec.hpp): u32/u64/f64 fields and
// u32-length-prefixed strings.  Experiment results travel AS the file
// formats themselves: a Result payload carries a CUBEBIN2 by-reference
// experiment body plus — the first time a session sees a given metadata
// digest — the CUBEMET1 blob it references, so a series of results over
// one metadata ships the metadata once per session, mirroring how the
// repository stores it once per store.
//
// Framing reads and writes go through the EINTR-safe helpers in
// common/posix_io.hpp: a signal or a partial socket transfer must never
// tear a frame.  Malformed input (bad magic, oversized length prefix,
// truncated payload) raises ProtocolError — a structured, recoverable
// failure the server answers with an Error frame before closing the
// session; it never crashes the daemon.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace cube::server {

inline constexpr std::uint32_t kProtocolVersion = 1;
/// "CUBS" read as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x53425543u;
/// Default ceiling on a single frame's payload.  A length prefix beyond
/// the reader's ceiling is rejected BEFORE any allocation: a garbage or
/// hostile prefix must not look like a 16-exabyte read.
inline constexpr std::uint64_t kDefaultMaxPayload = 1ull << 30;

/// The peer violated the framing or payload encoding.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

enum class MsgType : std::uint32_t {
  Hello = 1,    ///< client -> server: version + client name
  HelloOk,      ///< server -> client: version + server name + generation
  Query,        ///< client -> server: query text
  Result,       ///< server -> client: CUBEMET1? + CUBEBIN2 + stats
  Error,        ///< server -> client: structured failure
  Busy,         ///< server -> client: admission control shed the request
  Ping,         ///< client -> server: liveness probe
  Pong,         ///< server -> client
  Stats,        ///< client -> server: request the server metrics
  StatsOk,      ///< server -> client: metric samples
  Shutdown,     ///< client -> server: drain and exit
  ShutdownOk,   ///< server -> client: shutdown acknowledged
  Health,       ///< client -> server: request the health document
  HealthOk,     ///< server -> client: small deterministic JSON document
};

/// Human-readable message-type name for logs and errors.
[[nodiscard]] const char* msg_type_name(MsgType type) noexcept;

struct Frame {
  MsgType type = MsgType::Error;
  std::string payload;
};

/// Writes one frame; returns the total bytes put on the wire.  Throws
/// IoError on transport failure (including EPIPE from a vanished peer).
std::size_t write_frame(int fd, MsgType type, std::string_view payload);

/// Reads one frame.  Returns std::nullopt on a clean end-of-stream AT a
/// frame boundary (the peer closed between frames).  Throws ProtocolError
/// on bad magic, an unknown type, an oversized length prefix, or a stream
/// that ends mid-frame; IoError on transport failure.
[[nodiscard]] std::optional<Frame> read_frame(
    int fd, std::uint64_t max_payload = kDefaultMaxPayload);

// --- payloads -------------------------------------------------------------

struct HelloPayload {
  std::uint32_t version = kProtocolVersion;
  std::string client;
};

struct HelloOkPayload {
  std::uint32_t version = kProtocolVersion;
  std::string server;
  std::uint64_t generation = 0;  ///< repository generation at accept time
};

struct QueryPayload {
  std::string text;
  std::uint32_t flags = 0;  ///< reserved, must be 0
  /// Client-generated id threaded through the server's spans and the
  /// slow-query log, so a slow entry scraped from Stats can be matched to
  /// the client call that caused it.  0 = unset.  Appended to the wire
  /// format: a payload that ends after `flags` (a pre-telemetry peer)
  /// decodes with request_id 0.
  std::uint64_t request_id = 0;
};

/// How a Result was produced — the cross-client sharing ablation point.
enum class Served : std::uint32_t {
  Computed = 0,   ///< executed on the pool (cache miss)
  CacheHit = 1,   ///< served from the shared result cache
  Coalesced = 2,  ///< waited on another client's identical in-flight query
};

struct ResultPayload {
  Served served = Served::Computed;
  /// CUBEMET1 blob bytes; empty when the session already holds the
  /// referenced metadata digest.
  std::string meta_blob;
  /// CUBEBIN2 by-reference experiment bytes.
  std::string body;
  std::string canonical;  ///< canonical root expression
  double server_ms = 0.0; ///< service time observed by the server
};

/// One structured finding attached to an Error frame — the wire form of a
/// lint::Diagnostic, so clients can render rule ids and locations instead
/// of re-parsing a flattened message.
struct WireDiagnostic {
  std::string rule;          ///< stable id, e.g. "plan.metric-unit"
  std::uint32_t level = 0;   ///< lint::Level as u32 (Note/Warning/Error)
  std::string location;      ///< canonical sub-expression
  std::string message;
  std::string hint;          ///< empty when the finding has none
};

struct ErrorPayload {
  /// Coarse category: "parse", "plan", "analysis", "eval", "protocol",
  /// "internal".
  std::string category;
  std::string message;
  /// Structured findings (admission-control rejections carry the
  /// analyzer's plan.*/cost.* diagnostics here).  Absent on the wire for
  /// pre-diagnostic peers: the decoder treats a payload that ends after
  /// `message` as an empty list.
  std::vector<WireDiagnostic> diagnostics;
};

struct BusyPayload {
  std::uint32_t retry_ms = 0;   ///< suggested client backoff
  std::uint64_t inflight = 0;   ///< computations in flight at shed time
  double queue_wait_ms = 0.0;   ///< recent executor queue wait
  std::string reason;
};

/// One slow-query log entry on the wire (worst queries by wall time, with
/// per-phase durations; docs/SERVER.md).
struct WireSlowQuery {
  std::uint64_t request_id = 0;  ///< client-provided id; 0 = unset
  std::string canonical;         ///< canonical plan text (raw text if
                                 ///< the query never planned)
  /// How the query ended: "computed", "hit", "coalesced", "busy",
  /// "rejected", "error".
  std::string outcome;
  double server_ms = 0.0;
  double plan_ms = 0.0;       ///< parse + plan + admission analysis
  double compute_ms = 0.0;    ///< pool execution (owner path only)
  double serialize_ms = 0.0;  ///< wire-format encoding (owner path only)
  std::uint64_t sequence = 0; ///< arrival order, server-unique
};

struct StatsPayload {
  std::vector<obs::MetricSample> samples;
  /// The full telemetry document ({"server":…,"metrics":…,
  /// "slow_queries":…}), byte-deterministic for a given server state.
  /// Appended to the wire format: empty from a pre-telemetry peer.
  std::string json;
  /// Slow-query log, worst first.  Appended after `json`.
  std::vector<WireSlowQuery> slow;
};

struct HealthPayload {
  /// {"status":…,"uptime_s":…,…} — see docs/SERVER.md.
  std::string json;
};

[[nodiscard]] std::string encode_hello(const HelloPayload& p);
[[nodiscard]] HelloPayload decode_hello(std::string_view payload);
[[nodiscard]] std::string encode_hello_ok(const HelloOkPayload& p);
[[nodiscard]] HelloOkPayload decode_hello_ok(std::string_view payload);
[[nodiscard]] std::string encode_query(const QueryPayload& p);
[[nodiscard]] QueryPayload decode_query(std::string_view payload);
[[nodiscard]] std::string encode_result(const ResultPayload& p);
/// Writes the Result frame of encode_result() from borrowed bytes: the
/// server sends a cached body straight from the shared entry, without
/// copying it into a payload.  Returns the bytes put on the wire; throws
/// like write_frame().
std::size_t write_result_frame(int fd, Served served,
                               std::string_view meta_blob,
                               std::string_view body,
                               std::string_view canonical, double server_ms);
[[nodiscard]] ResultPayload decode_result(std::string_view payload);
[[nodiscard]] std::string encode_error(const ErrorPayload& p);
[[nodiscard]] ErrorPayload decode_error(std::string_view payload);
[[nodiscard]] std::string encode_busy(const BusyPayload& p);
[[nodiscard]] BusyPayload decode_busy(std::string_view payload);
[[nodiscard]] std::string encode_stats(const StatsPayload& p);
[[nodiscard]] StatsPayload decode_stats(std::string_view payload);
[[nodiscard]] std::string encode_health(const HealthPayload& p);
[[nodiscard]] HealthPayload decode_health(std::string_view payload);

}  // namespace cube::server
