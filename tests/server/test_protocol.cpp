// Wire protocol robustness: framing round trips, and every malformed
// input class (truncation, oversized prefixes, garbage magic, unknown
// types, trailing bytes) surfaces as a structured ProtocolError — never
// a crash, a hang, or a silent misparse.
#include "server/protocol.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/posix_io.hpp"
#include "golden_inputs.hpp"

namespace {

using cube::IoError;
using cube::read_full;
using cube::write_full;
using namespace cube::server;

/// A pipe whose fds close automatically.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_write() {
    ::close(fds[1]);
    fds[1] = -1;
  }
  int r() const { return fds[0]; }
  int w() const { return fds[1]; }
};

std::string le32(std::uint32_t v) {
  std::string out(4, '\0');
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out;
}

std::string le64(std::uint64_t v) {
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out;
}

std::string header(std::uint32_t magic, std::uint32_t type,
                   std::uint64_t len) {
  return le32(magic) + le32(type) + le64(len);
}

TEST(Protocol, FrameRoundTripsThroughAPipe) {
  Pipe pipe;
  const std::string payload = "hello payload \x01\x02\x03";
  const std::size_t wrote = write_frame(pipe.w(), MsgType::Query, payload);
  EXPECT_EQ(wrote, 16 + payload.size());

  const auto frame = read_frame(pipe.r());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::Query);
  EXPECT_EQ(frame->payload, payload);
}

TEST(Protocol, EmptyPayloadFrameRoundTrips) {
  Pipe pipe;
  EXPECT_EQ(write_frame(pipe.w(), MsgType::Ping, {}), 16u);
  const auto frame = read_frame(pipe.r());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::Ping);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Protocol, CleanEofAtFrameBoundaryIsNullopt) {
  Pipe pipe;
  write_frame(pipe.w(), MsgType::Pong, {});
  pipe.close_write();
  EXPECT_TRUE(read_frame(pipe.r()).has_value());
  EXPECT_FALSE(read_frame(pipe.r()).has_value());  // EOF between frames
}

TEST(Protocol, TruncatedHeaderThrows) {
  Pipe pipe;
  write_full(pipe.w(), "CUBS\x01\x00\x00", 7);  // 7 of 16 header bytes
  pipe.close_write();
  EXPECT_THROW((void)read_frame(pipe.r()), ProtocolError);
}

TEST(Protocol, TruncatedPayloadThrows) {
  Pipe pipe;
  const std::string h = header(kFrameMagic,
                               static_cast<std::uint32_t>(MsgType::Query),
                               100);
  write_full(pipe.w(), h.data(), h.size());
  write_full(pipe.w(), "only ten b", 10);
  pipe.close_write();
  EXPECT_THROW((void)read_frame(pipe.r()), ProtocolError);
}

TEST(Protocol, GarbageMagicThrows) {
  Pipe pipe;
  const std::string h = header(0xdeadbeefu, 1, 0);
  write_full(pipe.w(), h.data(), h.size());
  pipe.close_write();
  EXPECT_THROW((void)read_frame(pipe.r()), ProtocolError);
}

TEST(Protocol, UnknownMessageTypeThrows) {
  Pipe pipe;
  const std::string h = header(kFrameMagic, 999, 0);
  write_full(pipe.w(), h.data(), h.size());
  pipe.close_write();
  EXPECT_THROW((void)read_frame(pipe.r()), ProtocolError);
}

TEST(Protocol, OversizedLengthPrefixRejectedBeforeAllocation) {
  Pipe pipe;
  // A hostile 4 EiB length prefix: the reader must reject it from the
  // header alone instead of attempting the allocation.
  const std::string h = header(kFrameMagic,
                               static_cast<std::uint32_t>(MsgType::Query),
                               1ull << 62);
  write_full(pipe.w(), h.data(), h.size());
  EXPECT_THROW((void)read_frame(pipe.r()), ProtocolError);
}

TEST(Protocol, CustomPayloadCeilingIsEnforced) {
  Pipe pipe;
  write_frame(pipe.w(), MsgType::Query, std::string(2048, 'x'));
  EXPECT_THROW((void)read_frame(pipe.r(), /*max_payload=*/1024),
               ProtocolError);
}

TEST(Protocol, BadDescriptorSurfacesIoError) {
  EXPECT_THROW((void)read_frame(-1), IoError);
  EXPECT_THROW((void)write_frame(-1, MsgType::Ping, {}), IoError);
}

TEST(Protocol, HelloRoundTrip) {
  HelloPayload p;
  p.client = "test client";
  const HelloPayload q = decode_hello(encode_hello(p));
  EXPECT_EQ(q.version, kProtocolVersion);
  EXPECT_EQ(q.client, "test client");
}

TEST(Protocol, HelloOkRoundTrip) {
  HelloOkPayload p;
  p.server = "cubed-test";
  p.generation = 42;
  const HelloOkPayload q = decode_hello_ok(encode_hello_ok(p));
  EXPECT_EQ(q.server, "cubed-test");
  EXPECT_EQ(q.generation, 42u);
}

TEST(Protocol, QueryRoundTrip) {
  QueryPayload p;
  p.text = "mean(attr(run=before))";
  const QueryPayload q = decode_query(encode_query(p));
  EXPECT_EQ(q.text, p.text);
  EXPECT_EQ(q.flags, 0u);
}

TEST(Protocol, ResultRoundTrip) {
  ResultPayload p;
  p.served = Served::Coalesced;
  p.meta_blob = std::string("CUBEMET1 pretend blob");
  p.body = std::string(1000, 'b');
  p.canonical = "mean(id:a@00aa)";
  p.server_ms = 12.5;
  const ResultPayload q = decode_result(encode_result(p));
  EXPECT_EQ(q.served, Served::Coalesced);
  EXPECT_EQ(q.meta_blob, p.meta_blob);
  EXPECT_EQ(q.body, p.body);
  EXPECT_EQ(q.canonical, p.canonical);
  EXPECT_DOUBLE_EQ(q.server_ms, 12.5);
}

TEST(Protocol, ErrorAndBusyRoundTrip) {
  const ErrorPayload e =
      decode_error(encode_error(ErrorPayload{"parse", "unexpected ')'"}));
  EXPECT_EQ(e.category, "parse");
  EXPECT_EQ(e.message, "unexpected ')'");

  BusyPayload b;
  b.retry_ms = 250;
  b.inflight = 7;
  b.queue_wait_ms = 80.5;
  b.reason = "executor queue wait degraded";
  const BusyPayload r = decode_busy(encode_busy(b));
  EXPECT_EQ(r.retry_ms, 250u);
  EXPECT_EQ(r.inflight, 7u);
  EXPECT_DOUBLE_EQ(r.queue_wait_ms, 80.5);
  EXPECT_EQ(r.reason, b.reason);
}

TEST(Protocol, ErrorDiagnosticsRoundTripAndLegacyDecode) {
  ErrorPayload p;
  p.category = "analysis";
  p.message = "rejected by static plan analysis";
  p.diagnostics.push_back(
      {"plan.metric-unit", 2, "id:clash@00ff",
       "operand #1 measures 'time' in 'occ' but operand #0 in 'sec'",
       "re-run with matching collection configs"});
  p.diagnostics.push_back(
      {"cost.summary", 0, "mean(id:a@00aa, id:clash@00ff)",
       "cold: 96 cells traversed", ""});
  const ErrorPayload q = decode_error(encode_error(p));
  EXPECT_EQ(q.category, "analysis");
  ASSERT_EQ(q.diagnostics.size(), 2u);
  EXPECT_EQ(q.diagnostics[0].rule, "plan.metric-unit");
  EXPECT_EQ(q.diagnostics[0].level, 2u);
  EXPECT_EQ(q.diagnostics[0].location, p.diagnostics[0].location);
  EXPECT_EQ(q.diagnostics[0].message, p.diagnostics[0].message);
  EXPECT_EQ(q.diagnostics[0].hint, p.diagnostics[0].hint);
  EXPECT_EQ(q.diagnostics[1].rule, "cost.summary");
  EXPECT_TRUE(q.diagnostics[1].hint.empty());

  // Peers that predate structured diagnostics end the payload after
  // `message` — decoded as an empty list, not a framing violation.
  const std::string full = encode_error(ErrorPayload{"plan", "no such id"});
  const ErrorPayload legacy =
      decode_error(std::string_view(full).substr(0, full.size() - 4));
  EXPECT_EQ(legacy.category, "plan");
  EXPECT_EQ(legacy.message, "no such id");
  EXPECT_TRUE(legacy.diagnostics.empty());
}

TEST(Protocol, StatsRoundTrip) {
  StatsPayload p;
  cube::obs::MetricSample s;
  s.name = "server.queries";
  s.kind = cube::obs::InstrumentKind::Counter;
  s.unit = cube::obs::SampleUnit::Count;
  s.value = 17.0;
  p.samples.push_back(s);
  s.name = "server.queue_wait";
  s.kind = cube::obs::InstrumentKind::Histogram;
  s.unit = cube::obs::SampleUnit::Seconds;
  s.value = 1.25;
  s.count = 9;
  s.min = 0.001;
  s.max = 0.5;
  p.samples.push_back(s);

  const StatsPayload q = decode_stats(encode_stats(p));
  ASSERT_EQ(q.samples.size(), 2u);
  EXPECT_EQ(q.samples[0].name, "server.queries");
  EXPECT_DOUBLE_EQ(q.samples[0].value, 17.0);
  EXPECT_EQ(q.samples[1].kind, cube::obs::InstrumentKind::Histogram);
  EXPECT_EQ(q.samples[1].count, 9u);
  EXPECT_DOUBLE_EQ(q.samples[1].max, 0.5);
}

TEST(Protocol, TruncatedPayloadBytesRejected) {
  QueryPayload p;
  p.text = "mean(a, b)";
  p.request_id = 0x1122334455667788ull;
  const std::string bytes = encode_query(p);
  // One prefix length is a LEGAL legacy boundary: a peer that predates
  // request ids ends the payload after `flags` (8 trailing id bytes
  // missing) and must decode with request_id == 0.  Every other prefix is
  // a framing violation.
  const std::size_t legacy_cut = bytes.size() - 8;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    if (cut == legacy_cut) {
      const QueryPayload legacy = decode_query(bytes.substr(0, cut));
      EXPECT_EQ(legacy.text, p.text);
      EXPECT_EQ(legacy.request_id, 0u);
      continue;
    }
    EXPECT_THROW((void)decode_query(bytes.substr(0, cut)), ProtocolError)
        << "prefix of " << cut << " bytes parsed";
  }
}

TEST(Protocol, QueryRequestIdRoundTrips) {
  QueryPayload p;
  p.text = "mean(attr(run=before))";
  p.request_id = 0xdeadbeefcafef00dull;
  const QueryPayload q = decode_query(encode_query(p));
  EXPECT_EQ(q.text, p.text);
  EXPECT_EQ(q.request_id, p.request_id);
}

TEST(Protocol, StatsTelemetryRoundTrips) {
  StatsPayload p;
  cube::obs::MetricSample s;
  s.name = "server.service_time";
  s.kind = cube::obs::InstrumentKind::Histogram;
  s.unit = cube::obs::SampleUnit::Seconds;
  s.count = 100;
  s.p50 = 0.010;
  s.p90 = 0.025;
  s.p99 = 0.125;
  p.samples.push_back(s);
  p.json = "{\"server\":{\"queries\":100}}";
  WireSlowQuery slow;
  slow.request_id = 42;
  slow.canonical = "mean(id:a@00aa)";
  slow.outcome = "computed";
  slow.server_ms = 125.5;
  slow.plan_ms = 1.25;
  slow.compute_ms = 120.0;
  slow.serialize_ms = 2.5;
  slow.sequence = 7;
  p.slow.push_back(slow);

  const StatsPayload q = decode_stats(encode_stats(p));
  ASSERT_EQ(q.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(q.samples[0].p50, 0.010);
  EXPECT_DOUBLE_EQ(q.samples[0].p90, 0.025);
  EXPECT_DOUBLE_EQ(q.samples[0].p99, 0.125);
  EXPECT_EQ(q.json, p.json);
  ASSERT_EQ(q.slow.size(), 1u);
  EXPECT_EQ(q.slow[0].request_id, 42u);
  EXPECT_EQ(q.slow[0].canonical, slow.canonical);
  EXPECT_EQ(q.slow[0].outcome, "computed");
  EXPECT_DOUBLE_EQ(q.slow[0].server_ms, 125.5);
  EXPECT_DOUBLE_EQ(q.slow[0].plan_ms, 1.25);
  EXPECT_DOUBLE_EQ(q.slow[0].compute_ms, 120.0);
  EXPECT_DOUBLE_EQ(q.slow[0].serialize_ms, 2.5);
  EXPECT_EQ(q.slow[0].sequence, 7u);
}

TEST(Protocol, StatsPerByteFuzzOnlyLegacyBoundariesDecode) {
  // Per-byte truncation fuzz over an encoded StatsOk: exactly two prefix
  // lengths are legal legacy boundaries (end after samples; end after
  // json), every other prefix must throw.
  StatsPayload p;
  cube::obs::MetricSample s;
  s.name = "m";
  s.kind = cube::obs::InstrumentKind::Counter;
  s.unit = cube::obs::SampleUnit::Count;
  s.value = 3.0;
  p.samples.push_back(s);
  p.json = "{}";
  WireSlowQuery slow;
  slow.canonical = "q";
  slow.outcome = "hit";
  p.slow.push_back(slow);

  const std::string bytes = encode_stats(p);
  StatsPayload no_slow = p;
  no_slow.slow.clear();
  const std::size_t after_json = encode_stats(no_slow).size() - 4;
  StatsPayload samples_only = no_slow;
  samples_only.json.clear();
  const std::size_t after_samples = encode_stats(samples_only).size() - 4 - 4;

  std::size_t decoded = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    if (cut == after_samples || cut == after_json) {
      const StatsPayload legacy = decode_stats(bytes.substr(0, cut));
      ASSERT_EQ(legacy.samples.size(), 1u);
      EXPECT_TRUE(legacy.slow.empty());
      EXPECT_EQ(legacy.json, cut == after_json ? "{}" : "");
      ++decoded;
      continue;
    }
    EXPECT_THROW((void)decode_stats(bytes.substr(0, cut)), ProtocolError)
        << "prefix of " << cut << " bytes parsed";
  }
  EXPECT_EQ(decoded, 2u);
}

TEST(Protocol, HealthRoundTrip) {
  HealthPayload p;
  p.json = "{\"status\":\"ok\",\"uptime_s\":1.5}";
  const HealthPayload q = decode_health(encode_health(p));
  EXPECT_EQ(q.json, p.json);
  EXPECT_THROW((void)decode_health(encode_health(p) + "x"), ProtocolError);
}

TEST(Protocol, TrailingPayloadBytesRejected) {
  const std::string bytes = encode_hello(HelloPayload{}) + "junk";
  EXPECT_THROW((void)decode_hello(bytes), ProtocolError);
}

TEST(Protocol, UnknownServedModeRejected) {
  ResultPayload p;
  std::string bytes = encode_result(p);
  bytes[0] = 99;  // served is the first little-endian u32
  EXPECT_THROW((void)decode_result(bytes), ProtocolError);
}

TEST(Protocol, MsgTypeNamesAreStable) {
  EXPECT_STREQ(msg_type_name(MsgType::Hello), "Hello");
  EXPECT_STREQ(msg_type_name(MsgType::Busy), "Busy");
  EXPECT_STREQ(msg_type_name(MsgType::ShutdownOk), "ShutdownOk");
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(999)), "unknown");
}

// Every payload encoder reproduces the committed golden bytes an earlier
// stream-based encoder wrote (tests/golden_inputs.hpp).
TEST(Protocol, PayloadsMatchTheCommittedEncodings) {
  for (const cube::testing::GoldenFile& file :
       cube::testing::golden_payload_files()) {
    std::ifstream in(std::string(CUBE_GOLDEN_DIR) + "/" + file.name,
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << file.name;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(file.bytes, golden.str()) << file.name;
  }
}

TEST(Protocol, ResultFrameFromBorrowedBytesEqualsThePayloadFrame) {
  ResultPayload p;
  p.served = Served::CacheHit;
  p.meta_blob = std::string("met\0a", 5);
  p.body = std::string(1000, '\x7f');
  p.canonical = "max(id:x@0000000000000001)";
  p.server_ms = 0.5;
  for (const bool ship_meta : {true, false}) {
    if (!ship_meta) p.meta_blob.clear();
    Pipe want;
    Pipe got;
    const std::size_t want_n =
        write_frame(want.w(), MsgType::Result, encode_result(p));
    const std::size_t got_n = write_result_frame(
        got.w(), p.served, p.meta_blob, p.body, p.canonical, p.server_ms);
    EXPECT_EQ(got_n, want_n);
    std::string want_bytes(want_n, '\0');
    std::string got_bytes(got_n, '\0');
    ASSERT_EQ(read_full(want.r(), want_bytes.data(), want_n), want_n);
    ASSERT_EQ(read_full(got.r(), got_bytes.data(), got_n), got_n);
    EXPECT_EQ(got_bytes, want_bytes);
  }
}

}  // namespace
