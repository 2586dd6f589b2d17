#include "io/binary_format.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/binary_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

obs::Counter& bytes_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.bin.bytes_read", obs::SampleUnit::Bytes);
  return c;
}

obs::Counter& sev_bytes_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.sev.bytes_read", obs::SampleUnit::Bytes);
  return c;
}

obs::Counter& bytes_written_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.bin.bytes_written", obs::SampleUnit::Bytes);
  return c;
}

/// Adds the stream-position delta across `write` to io.bin.bytes_written
/// (string streams and files both support tellp; -1 positions are skipped).
template <typename WriteFn>
void write_counted(std::ostream& out, const WriteFn& write) {
  const auto before = out.tellp();
  write();
  const auto after = out.tellp();
  if (before != std::streampos(-1) && after != std::streampos(-1)) {
    bytes_written_counter().add(static_cast<std::uint64_t>(after - before));
  }
}

constexpr char kMagic[8] = {'C', 'U', 'B', 'E', 'B', 'I', 'N', '1'};
// By-reference variant: metadata is NOT inline; the stream embeds the
// structural digest of a metadata blob instead (see meta_format.hpp).
constexpr char kRefMagic[8] = {'C', 'U', 'B', 'E', 'B', 'I', 'N', '2'};

void encode_attributes(detail::BinaryEncoder& e, const Experiment& exp) {
  e.u32(static_cast<std::uint32_t>(exp.attributes().size()));
  for (const auto& [k, v] : exp.attributes()) {
    e.str(k);
    e.str(v);
  }
}

// Severity encoding runs over the non-virtual bulk layer
// (docs/STORAGE.md): dense stores stream their contiguous cell span,
// sparse stores their key-sorted non-zeros — which IS ascending (m, c, t)
// order, so the bytes are identical to the per-cell triple loop this
// replaces (and to what decode_severity expects).
void encode_severity(detail::BinaryEncoder& e, const Experiment& exp) {
  const SeverityStore& sev = exp.severity();
  const std::size_t cnodes = sev.num_cnodes();
  const std::size_t threads = sev.num_threads();
  const auto entry = [&](std::uint64_t cell, Severity v) {
    const std::uint64_t rest = cell % (cnodes * threads);
    e.u32(static_cast<std::uint32_t>(cell / (cnodes * threads)));
    e.u32(static_cast<std::uint32_t>(rest / threads));
    e.u32(static_cast<std::uint32_t>(rest % threads));
    e.f64(v);
  };
  e.u32(static_cast<std::uint32_t>(sev.nonzero_count()));
  if (sev.kind() == StorageKind::Dense) {
    const auto cells = static_cast<const DenseSeverity&>(sev).cells();
    for (std::uint64_t cell = 0; cell < cells.size(); ++cell) {
      if (cells[cell] != 0.0) entry(cell, cells[cell]);
    }
    return;
  }
  for (const auto& [cell, v] :
       static_cast<const SparseSeverity&>(sev).sorted_cells()) {
    if (v != 0.0) entry(cell, v);
  }
}

std::vector<std::pair<std::string, std::string>> decode_attributes(
    detail::BinaryDecoder& d) {
  const std::uint32_t num_attrs = d.u32();
  std::vector<std::pair<std::string, std::string>> attrs;
  attrs.reserve(num_attrs);
  for (std::uint32_t i = 0; i < num_attrs; ++i) {
    std::string k = d.str();
    std::string v = d.str();
    attrs.emplace_back(std::move(k), std::move(v));
  }
  return attrs;
}

void decode_severity(detail::BinaryDecoder& d, Experiment& experiment) {
  const Metadata& md = experiment.metadata();
  const std::uint32_t num_values = d.u32();
  // Each triple is 3 u32 indices + 1 f64 value on the wire.
  sev_bytes_read_counter().add(static_cast<std::uint64_t>(num_values) *
                               (3 * sizeof(std::uint32_t) + sizeof(double)));
  for (std::uint32_t i = 0; i < num_values; ++i) {
    const std::uint32_t m = d.u32();
    const std::uint32_t c = d.u32();
    const std::uint32_t t = d.u32();
    const double v = d.f64();
    if (m >= md.num_metrics() || c >= md.num_cnodes() ||
        t >= md.num_threads()) {
      throw CheckError(
          "sev.out-of-range",
          "metric #" + std::to_string(m) + " / cnode #" + std::to_string(c) +
              " / thread #" + std::to_string(t),
          "severity triple #" + std::to_string(i) +
              " lies outside the metric x cnode x thread cross product (" +
              std::to_string(md.num_metrics()) + " x " +
              std::to_string(md.num_cnodes()) + " x " +
              std::to_string(md.num_threads()) + ")");
    }
    experiment.severity().set(m, c, t, v);
  }
  if (!d.done()) {
    throw CheckError("file.trailing-bytes", "",
                     "trailing bytes after CUBE binary stream");
  }
}

}  // namespace

void write_cube_binary(const Experiment& experiment, std::ostream& out) {
  OBS_SPAN("io.bin.write");
  write_counted(out, [&] {
    out.write(kMagic, sizeof kMagic);
    detail::BinaryEncoder e(out);
    encode_attributes(e, experiment);
    detail::encode_metadata(e, experiment.metadata());
    encode_severity(e, experiment);
  });
}

void write_cube_binary_ref(const Experiment& experiment, std::ostream& out) {
  OBS_SPAN("io.bin.write");
  write_counted(out, [&] {
    out.write(kRefMagic, sizeof kRefMagic);
    detail::BinaryEncoder e(out);
    encode_attributes(e, experiment);
    e.u64(experiment.metadata().digest());
    encode_severity(e, experiment);
  });
}

void write_cube_binary_file(const Experiment& experiment,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create file '" + path + "'");
  write_cube_binary(experiment, out);
  out.flush();
  if (!out) throw IoError("write to '" + path + "' failed");
}

std::string to_cube_binary(const Experiment& experiment) {
  std::ostringstream os(std::ios::binary);
  write_cube_binary(experiment, os);
  return os.str();
}

std::string to_cube_binary_ref(const Experiment& experiment) {
  std::ostringstream os(std::ios::binary);
  write_cube_binary_ref(experiment, os);
  return os.str();
}

Experiment read_cube_binary(std::string_view data, StorageKind storage,
                            const MetadataResolver& resolver) {
  OBS_SPAN("io.bin.read");
  bytes_read_counter().add(data.size());
  const bool by_ref = data.size() >= sizeof kRefMagic &&
                      std::memcmp(data.data(), kRefMagic,
                                  sizeof kRefMagic) == 0;
  if (!by_ref && (data.size() < sizeof kMagic ||
                  std::memcmp(data.data(), kMagic, sizeof kMagic) != 0)) {
    throw CheckError("file.bad-magic", "",
                     "not a CUBE binary stream (bad magic)");
  }
  detail::BinaryDecoder d(data.substr(sizeof kMagic));
  auto attrs = decode_attributes(d);

  Experiment experiment = [&]() -> Experiment {
    if (by_ref) {
      const std::uint64_t digest = d.u64();
      if (!resolver) {
        throw Error(
            "by-reference CUBE binary stream requires a metadata resolver "
            "(metadata digest " +
            digest_hex(digest) + ")");
      }
      auto md = resolver(digest);
      if (md == nullptr) {
        throw CheckError(
            "meta.unresolved-ref", "",
            "no metadata blob resolves digest " + digest_hex(digest));
      }
      return Experiment(std::move(md), storage);
    }
    return Experiment(detail::decode_metadata(d), storage);
  }();

  for (auto& [k, v] : attrs) {
    experiment.set_attribute(std::move(k), std::move(v));
  }
  decode_severity(d, experiment);
  return experiment;
}

Experiment read_cube_binary_file(const std::string& path, StorageKind storage,
                                 const MetadataResolver& resolver) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_cube_binary(buffer.str(), storage, resolver);
}

}  // namespace cube
