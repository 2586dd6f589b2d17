#include "io/binary_format.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/binary_codec.hpp"
#include "common/file_io.hpp"
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

constexpr char kMagic[8] = {'C', 'U', 'B', 'E', 'B', 'I', 'N', '1'};
// By-reference variant: metadata is NOT inline; the stream embeds the
// structural digest of a metadata blob instead (see meta_format.hpp).
constexpr char kRefMagic[8] = {'C', 'U', 'B', 'E', 'B', 'I', 'N', '2'};
/// One severity triple: 3 u32 indices + 1 f64 value.
constexpr std::size_t kTripleBytes = 3 * 4 + 8;

void encode_attributes(detail::BinaryEncoder& e, const Experiment& exp) {
  e.u32(static_cast<std::uint32_t>(exp.attributes().size()));
  for (const auto& [k, v] : exp.attributes()) {
    e.str(k);
    e.str(v);
  }
}

/// Bytes of the magic, the attribute section and the severity section:
/// everything but the metadata (inline) or its digest (by reference).
std::size_t framed_size(const Experiment& exp, std::size_t nonzeros) {
  std::size_t size = sizeof kMagic + 4 + 4 + kTripleBytes * nonzeros;
  for (const auto& [k, v] : exp.attributes()) size += 8 + k.size() + v.size();
  return size;
}

// Severity encoding runs over the non-virtual bulk layer
// (docs/STORAGE.md): dense stores walk their cell span, sparse stores
// their key-sorted non-zeros — both ascending (m, c, t), the order
// decode_severity expects.  One 20-byte append per triple.
void encode_severity(detail::BinaryEncoder& e, const SeverityStore& sev,
                     std::size_t nonzeros) {
  const std::uint64_t cnodes = sev.num_cnodes();
  const std::uint64_t threads = sev.num_threads();
  const auto entry = [&](std::uint64_t m, std::uint64_t c, std::uint64_t t,
                         Severity v) {
    char triple[kTripleBytes];
    detail::put_u32(triple, static_cast<std::uint32_t>(m));
    detail::put_u32(triple + 4, static_cast<std::uint32_t>(c));
    detail::put_u32(triple + 8, static_cast<std::uint32_t>(t));
    detail::put_f64(triple + 12, v);
    e.bytes({triple, kTripleBytes});
  };
  e.u32(static_cast<std::uint32_t>(nonzeros));
  if (sev.kind() == StorageKind::Dense) {
    const auto cells = static_cast<const DenseSeverity&>(sev).cells();
    const std::uint64_t metrics = sev.num_metrics();
    std::uint64_t cell = 0;
    for (std::uint64_t m = 0; m < metrics; ++m) {
      for (std::uint64_t c = 0; c < cnodes; ++c) {
        for (std::uint64_t t = 0; t < threads; ++t, ++cell) {
          if (cells[cell] != 0.0) entry(m, c, t, cells[cell]);
        }
      }
    }
    return;
  }
  for (const auto& [cell, v] :
       static_cast<const SparseSeverity&>(sev).sorted_cells()) {
    if (v == 0.0) continue;
    const std::uint64_t rest = cell % (cnodes * threads);
    entry(cell / (cnodes * threads), rest / threads, rest % threads, v);
  }
}

/// The whole stream: magic, attributes, `body` (inline metadata or its
/// digest), severity.  Counted in io.bin.bytes_written.
template <typename Body>
std::string encode_stream(const Experiment& experiment, const char* magic,
                          std::size_t body_size, const Body& body) {
  OBS_SPAN("io.bin.write");
  const std::size_t nonzeros = experiment.severity().nonzero_count();
  std::string out;
  out.reserve(framed_size(experiment, nonzeros) + body_size);
  detail::BinaryEncoder e(out);
  e.bytes({magic, sizeof kMagic});
  encode_attributes(e, experiment);
  body(e);
  encode_severity(e, experiment.severity(), nonzeros);
  bytes_written_counter().add(out.size());
  return out;
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
  sev_bytes_read_counter().add(static_cast<std::uint64_t>(num_values) *
                               kTripleBytes);
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

std::string to_cube_binary(const Experiment& experiment) {
  // The inline metadata grows the buffer past its reservation.
  return encode_stream(experiment, kMagic, 0, [&](detail::BinaryEncoder& e) {
    detail::encode_metadata(e, experiment.metadata());
  });
}

std::string to_cube_binary_ref(const Experiment& experiment) {
  return encode_stream(experiment, kRefMagic, 8, [&](detail::BinaryEncoder& e) {
    e.u64(experiment.metadata().digest());
  });
}

void write_cube_binary_file(const Experiment& experiment,
                            const std::string& path) {
  write_bytes(path, to_cube_binary(experiment));
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
  return read_cube_binary(read_bytes(path), storage, resolver);
}

}  // namespace cube
