// Inputs of the committed golden encodings under tests/golden/.
//
// The golden files hold the bytes an earlier, stream-based encoder wrote
// for these inputs; the byte-identity tests re-encode the same inputs and
// compare.  The inputs cover dense and sparse storage, an empty severity,
// NaN and -0.0 values (the encoders skip -0.0 like any zero and keep NaN),
// a non-ASCII attribute, topology coordinates, and every wire payload.
// Changing an input here invalidates its golden file.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "io/binary_format.hpp"
#include "io/meta_format.hpp"
#include "server/protocol.hpp"
#include "testutil.hpp"

namespace cube::testing {

/// make_small's metadata with coordinates on process 0.
inline std::unique_ptr<Metadata> golden_metadata() {
  auto md = small_metadata();
  md->processes()[0]->set_coords({4, 5});
  return md;
}

/// The pattern of make_small with a NaN, a -0.0, two +0.0 cells and two
/// attributes, one of them non-ASCII.
inline Experiment golden_experiment(StorageKind kind) {
  Experiment e(golden_metadata(), kind);
  e.set_name("golden");
  e.set_attribute("site", "Z\xC3\xBCrich \xE2\x9C\x93");  // "Zürich ✓"
  e.set_attribute("config", "barriers");
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        e.severity().set(mi, ci, ti,
                         static_cast<double>((mi + 1) * 100 + (ci + 1) * 10 +
                                             (ti + 1)) /
                             8.0);
      }
    }
  }
  e.severity().set(0, 0, 0, std::numeric_limits<double>::quiet_NaN());
  e.severity().set(0, 1, 2, -0.0);
  e.severity().set(1, 2, 3, 0.0);
  e.severity().set(2, 3, 1, 0.0);
  return e;
}

/// An experiment with no non-zero cell.
inline Experiment golden_empty() {
  Experiment e(golden_metadata(), StorageKind::Dense);
  e.set_name("empty");
  return e;
}

/// One golden file: its name under tests/golden/ and the bytes the
/// current encoders produce for it.
struct GoldenFile {
  std::string name;
  std::string bytes;
};

/// The file-format goldens: CUBEBIN1, CUBEBIN2 and CUBEMET1.
inline std::vector<GoldenFile> golden_format_files() {
  const Experiment dense = golden_experiment(StorageKind::Dense);
  const Experiment sparse = golden_experiment(StorageKind::Sparse);
  const Experiment empty = golden_empty();
  return {
      {"bin1_dense.bin", to_cube_binary(dense)},
      {"bin1_sparse.bin", to_cube_binary(sparse)},
      {"bin1_empty.bin", to_cube_binary(empty)},
      {"bin2_dense.bin", to_cube_binary_ref(dense)},
      {"bin2_sparse.bin", to_cube_binary_ref(sparse)},
      {"bin2_empty.bin", to_cube_binary_ref(empty)},
      {"met1_golden.meta", to_cube_meta(dense.metadata())},
  };
}

/// The wire-payload goldens, one per payload encoder.
inline std::vector<GoldenFile> golden_payload_files() {
  using namespace cube::server;
  const Experiment dense = golden_experiment(StorageKind::Dense);
  ResultPayload result;
  result.served = Served::Coalesced;
  result.meta_blob = to_cube_meta(dense.metadata());
  result.body = to_cube_binary_ref(dense);
  result.canonical =
      "diff(id:a@00000000000000ab, id:b\xC3\xBC@0000000000000001)";
  result.server_ms = 1.25;

  ErrorPayload error;
  error.category = "analysis";
  error.message = "plan.metric-unit: units differ";
  error.diagnostics.push_back(WireDiagnostic{
      "plan.metric-unit", 2, "diff(a, b)", "time: sec vs occ", "align units"});
  error.diagnostics.push_back(
      WireDiagnostic{"cost.over-budget", 1, "mean(s\xC3\xBC)", "", ""});

  StatsPayload stats;
  obs::MetricSample counter;
  counter.name = "server.queries";
  counter.value = 42.0;
  obs::MetricSample histogram;
  histogram.name = "server.service_time";
  histogram.kind = obs::InstrumentKind::Histogram;
  histogram.unit = obs::SampleUnit::Seconds;
  histogram.value = 0.5;
  histogram.count = 7;
  histogram.min = -0.0;
  histogram.max = std::numeric_limits<double>::quiet_NaN();
  histogram.p50 = 0.01;
  histogram.p90 = 0.02;
  histogram.p99 = 0.03;
  stats.samples = {counter, histogram};
  stats.json = "{\"server\":{}}";
  stats.slow.push_back(
      WireSlowQuery{9, "mean(x)", "computed", 3.5, 0.5, 2.5, 0.25, 17});

  return {
      {"result.payload", encode_result(result)},
      {"result_empty.payload", encode_result(ResultPayload{})},
      {"error.payload", encode_error(error)},
      {"hello.payload", encode_hello(HelloPayload{1, "cube_client"})},
      {"hello_ok.payload",
       encode_hello_ok(HelloOkPayload{1, "cubed", 1234567890123ull})},
      {"query.payload", encode_query(QueryPayload{"mean(series(r))", 0, 77})},
      {"busy.payload",
       encode_busy(BusyPayload{100, 3, 51.5, "executor queue wait degraded"})},
      {"stats.payload", encode_stats(stats)},
      {"health.payload", encode_health(HealthPayload{"{\"status\":\"ok\"}"})},
  };
}

}  // namespace cube::testing
