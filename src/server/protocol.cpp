#include "server/protocol.hpp"

#include <initializer_list>

#include "common/posix_io.hpp"
#include "io/binary_codec.hpp"

namespace cube::server {

namespace {

/// Every decoder maps the codec's CheckError (truncation inside a field)
/// onto ProtocolError, so the session layer reports one structured
/// category for all malformed input.
template <typename Fn>
auto decoding(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const CheckError& e) {
    throw ProtocolError(std::string("malformed ") + what + " payload: " +
                        e.detail());
  }
}

void require_done(const detail::BinaryDecoder& d, const char* what) {
  if (!d.done()) {
    throw ProtocolError(std::string("malformed ") + what +
                        " payload: trailing bytes after the last field");
  }
}

constexpr std::size_t kHeaderSize = 16;

bool known_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(MsgType::Hello) &&
         t <= static_cast<std::uint32_t>(MsgType::HealthOk);
}

}  // namespace

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::Hello: return "Hello";
    case MsgType::HelloOk: return "HelloOk";
    case MsgType::Query: return "Query";
    case MsgType::Result: return "Result";
    case MsgType::Error: return "Error";
    case MsgType::Busy: return "Busy";
    case MsgType::Ping: return "Ping";
    case MsgType::Pong: return "Pong";
    case MsgType::Stats: return "Stats";
    case MsgType::StatsOk: return "StatsOk";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::ShutdownOk: return "ShutdownOk";
    case MsgType::Health: return "Health";
    case MsgType::HealthOk: return "HealthOk";
  }
  return "unknown";
}

namespace {

/// Writes one frame whose payload is `pieces` back to back: one header
/// write, then one write per piece, each EINTR-safe and resumed across
/// partial transfers, so a frame can never be torn by a signal.
std::size_t write_pieces(int fd, MsgType type,
                         std::initializer_list<std::string_view> pieces) {
  std::uint64_t payload = 0;
  for (const std::string_view piece : pieces) payload += piece.size();
  char header[kHeaderSize];
  detail::put_u32(header, kFrameMagic);
  detail::put_u32(header + 4, static_cast<std::uint32_t>(type));
  detail::put_u64(header + 8, payload);
  write_full(fd, header, kHeaderSize);
  for (const std::string_view piece : pieces) {
    if (!piece.empty()) write_full(fd, piece.data(), piece.size());
  }
  return kHeaderSize + payload;
}

}  // namespace

std::size_t write_frame(int fd, MsgType type, std::string_view payload) {
  return write_pieces(fd, type, {payload});
}

std::optional<Frame> read_frame(int fd, std::uint64_t max_payload) {
  char header[kHeaderSize];
  const std::size_t got = read_full(fd, header, kHeaderSize);
  if (got == 0) return std::nullopt;  // clean EOF between frames
  if (got < kHeaderSize) {
    throw ProtocolError("stream ended inside a frame header (" +
                        std::to_string(got) + " of " +
                        std::to_string(kHeaderSize) + " bytes)");
  }
  if (detail::get_u32(header) != kFrameMagic) {
    throw ProtocolError("bad frame magic (not a cubed peer?)");
  }
  const std::uint32_t raw_type = detail::get_u32(header + 4);
  if (!known_type(raw_type)) {
    throw ProtocolError("unknown message type " + std::to_string(raw_type));
  }
  const std::uint64_t len = detail::get_u64(header + 8);
  if (len > max_payload) {
    throw ProtocolError("frame payload of " + std::to_string(len) +
                        " bytes exceeds the " + std::to_string(max_payload) +
                        "-byte ceiling");
  }
  Frame frame;
  frame.type = static_cast<MsgType>(raw_type);
  frame.payload.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    const std::size_t body = read_full(fd, frame.payload.data(),
                                       frame.payload.size());
    if (body < frame.payload.size()) {
      throw ProtocolError("stream ended inside a " +
                          std::string(msg_type_name(frame.type)) +
                          " payload (" + std::to_string(body) + " of " +
                          std::to_string(len) + " bytes)");
    }
  }
  return frame;
}

// --- payload codecs -------------------------------------------------------

std::string encode_hello(const HelloPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.u32(p.version);
  e.str(p.client);
  return out;
}

HelloPayload decode_hello(std::string_view payload) {
  return decoding("Hello", [&] {
    detail::BinaryDecoder d(payload);
    HelloPayload p;
    p.version = d.u32();
    p.client = d.str();
    require_done(d, "Hello");
    return p;
  });
}

std::string encode_hello_ok(const HelloOkPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.u32(p.version);
  e.str(p.server);
  e.u64(p.generation);
  return out;
}

HelloOkPayload decode_hello_ok(std::string_view payload) {
  return decoding("HelloOk", [&] {
    detail::BinaryDecoder d(payload);
    HelloOkPayload p;
    p.version = d.u32();
    p.server = d.str();
    p.generation = d.u64();
    require_done(d, "HelloOk");
    return p;
  });
}

std::string encode_query(const QueryPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.str(p.text);
  e.u32(p.flags);
  e.u64(p.request_id);
  return out;
}

QueryPayload decode_query(std::string_view payload) {
  return decoding("Query", [&] {
    detail::BinaryDecoder d(payload);
    QueryPayload p;
    p.text = d.str();
    p.flags = d.u32();
    // Peers that predate request ids end the payload here; decode as the
    // unset id rather than a framing violation.
    if (d.done()) return p;
    p.request_id = d.u64();
    require_done(d, "Query");
    return p;
  });
}

std::string encode_result(const ResultPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.u32(static_cast<std::uint32_t>(p.served));
  e.str(p.meta_blob);
  e.str(p.body);
  e.str(p.canonical);
  e.f64(p.server_ms);
  return out;
}

std::size_t write_result_frame(int fd, Served served,
                               std::string_view meta_blob,
                               std::string_view body,
                               std::string_view canonical, double server_ms) {
  // encode_result()'s payload in three pieces, the body borrowed.
  std::string head;
  detail::BinaryEncoder before(head);
  before.u32(static_cast<std::uint32_t>(served));
  before.str(meta_blob);
  before.u32(static_cast<std::uint32_t>(body.size()));
  std::string tail;
  detail::BinaryEncoder after(tail);
  after.str(canonical);
  after.f64(server_ms);
  return write_pieces(fd, MsgType::Result, {head, body, tail});
}

ResultPayload decode_result(std::string_view payload) {
  return decoding("Result", [&] {
    detail::BinaryDecoder d(payload);
    ResultPayload p;
    const std::uint32_t served = d.u32();
    if (served > static_cast<std::uint32_t>(Served::Coalesced)) {
      throw ProtocolError("malformed Result payload: unknown served mode " +
                          std::to_string(served));
    }
    p.served = static_cast<Served>(served);
    p.meta_blob = d.str();
    p.body = d.str();
    p.canonical = d.str();
    p.server_ms = d.f64();
    require_done(d, "Result");
    return p;
  });
}

std::string encode_error(const ErrorPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.str(p.category);
  e.str(p.message);
  e.u32(static_cast<std::uint32_t>(p.diagnostics.size()));
  for (const WireDiagnostic& diag : p.diagnostics) {
    e.str(diag.rule);
    e.u32(diag.level);
    e.str(diag.location);
    e.str(diag.message);
    e.str(diag.hint);
  }
  return out;
}

ErrorPayload decode_error(std::string_view payload) {
  return decoding("Error", [&] {
    detail::BinaryDecoder d(payload);
    ErrorPayload p;
    p.category = d.str();
    p.message = d.str();
    // Peers that predate structured diagnostics end the payload here;
    // treat that as an empty list rather than a framing violation.
    if (d.done()) return p;
    const std::uint32_t n = d.u32();
    p.diagnostics.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      WireDiagnostic diag;
      diag.rule = d.str();
      diag.level = d.u32();
      diag.location = d.str();
      diag.message = d.str();
      diag.hint = d.str();
      p.diagnostics.push_back(std::move(diag));
    }
    require_done(d, "Error");
    return p;
  });
}

std::string encode_busy(const BusyPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.u32(p.retry_ms);
  e.u64(p.inflight);
  e.f64(p.queue_wait_ms);
  e.str(p.reason);
  return out;
}

BusyPayload decode_busy(std::string_view payload) {
  return decoding("Busy", [&] {
    detail::BinaryDecoder d(payload);
    BusyPayload p;
    p.retry_ms = d.u32();
    p.inflight = d.u64();
    p.queue_wait_ms = d.f64();
    p.reason = d.str();
    require_done(d, "Busy");
    return p;
  });
}

std::string encode_stats(const StatsPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.u32(static_cast<std::uint32_t>(p.samples.size()));
  for (const obs::MetricSample& s : p.samples) {
    e.str(s.name);
    e.u32(static_cast<std::uint32_t>(s.kind));
    e.u32(static_cast<std::uint32_t>(s.unit));
    e.f64(s.value);
    e.u64(s.count);
    e.f64(s.min);
    e.f64(s.max);
    e.f64(s.p50);
    e.f64(s.p90);
    e.f64(s.p99);
  }
  e.str(p.json);
  e.u32(static_cast<std::uint32_t>(p.slow.size()));
  for (const WireSlowQuery& q : p.slow) {
    e.u64(q.request_id);
    e.str(q.canonical);
    e.str(q.outcome);
    e.f64(q.server_ms);
    e.f64(q.plan_ms);
    e.f64(q.compute_ms);
    e.f64(q.serialize_ms);
    e.u64(q.sequence);
  }
  return out;
}

StatsPayload decode_stats(std::string_view payload) {
  return decoding("StatsOk", [&] {
    detail::BinaryDecoder d(payload);
    StatsPayload p;
    const std::uint32_t n = d.u32();
    p.samples.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      obs::MetricSample s;
      s.name = d.str();
      s.kind = static_cast<obs::InstrumentKind>(d.u32());
      s.unit = static_cast<obs::SampleUnit>(d.u32());
      s.value = d.f64();
      s.count = d.u64();
      s.min = d.f64();
      s.max = d.f64();
      s.p50 = d.f64();
      s.p90 = d.f64();
      s.p99 = d.f64();
      p.samples.push_back(std::move(s));
    }
    // The json document and the slow-query list are appended after the
    // sample list; a payload that ends at either boundary (a minimal
    // StatsOk) decodes with the missing fields empty.
    if (d.done()) return p;
    p.json = d.str();
    if (d.done()) return p;
    const std::uint32_t slow_n = d.u32();
    p.slow.reserve(slow_n);
    for (std::uint32_t i = 0; i < slow_n; ++i) {
      WireSlowQuery q;
      q.request_id = d.u64();
      q.canonical = d.str();
      q.outcome = d.str();
      q.server_ms = d.f64();
      q.plan_ms = d.f64();
      q.compute_ms = d.f64();
      q.serialize_ms = d.f64();
      q.sequence = d.u64();
      p.slow.push_back(std::move(q));
    }
    require_done(d, "StatsOk");
    return p;
  });
}

std::string encode_health(const HealthPayload& p) {
  std::string out;
  detail::BinaryEncoder e(out);
  e.str(p.json);
  return out;
}

HealthPayload decode_health(std::string_view payload) {
  return decoding("HealthOk", [&] {
    detail::BinaryDecoder d(payload);
    HealthPayload p;
    p.json = d.str();
    require_done(d, "HealthOk");
    return p;
  });
}

}  // namespace cube::server
