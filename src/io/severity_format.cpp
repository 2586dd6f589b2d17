#include "io/severity_format.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/binary_codec.hpp"
#include "common/file_io.hpp"
#include "obs/metrics.hpp"

namespace cube {

namespace {

obs::Counter& sev_bytes_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.sev.bytes_read", obs::SampleUnit::Bytes);
  return c;
}

constexpr std::string_view kMagic = "CUBESEV1";
constexpr std::uint64_t kKindDense = 0;
constexpr std::uint64_t kKindSparse = 1;
constexpr std::size_t kHeaderBytes = 56;

[[nodiscard]] std::string_view bytes_of(const void* data, std::size_t n) {
  return std::string_view(static_cast<const char*>(data), n);
}

struct SparseColumns {
  std::vector<std::uint64_t> keys;
  std::vector<Severity> values;
};

[[nodiscard]] SparseColumns sparse_columns(const SparseSeverity& store) {
  SparseColumns cols;
  const auto cells = store.sorted_cells();
  cols.keys.reserve(cells.size());
  cols.values.reserve(cells.size());
  for (const auto& [k, v] : cells) {
    if (v == 0.0) continue;
    cols.keys.push_back(k);
    cols.values.push_back(v);
  }
  return cols;
}

struct Header {
  std::uint64_t kind = 0;
  std::uint64_t metrics = 0;
  std::uint64_t cnodes = 0;
  std::uint64_t threads = 0;
  std::uint64_t entries = 0;
  std::uint64_t digest = 0;
};

[[nodiscard]] Header parse_header(std::string_view data,
                                  const std::string& what) {
  if (data.size() < kHeaderBytes || data.substr(0, kMagic.size()) != kMagic) {
    throw Error(what + ": not a CUBESEV1 severity blob");
  }
  Header h;
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(data[off + i]);
    }
    return v;
  };
  h.kind = u64_at(8);
  h.metrics = u64_at(16);
  h.cnodes = u64_at(24);
  h.threads = u64_at(32);
  h.entries = u64_at(40);
  h.digest = u64_at(48);
  if (h.kind != kKindDense && h.kind != kKindSparse) {
    throw Error(what + ": unknown severity blob kind " +
                std::to_string(h.kind));
  }
  // All size arithmetic below must be overflow-checked: a corrupt or
  // crafted header with huge counts would otherwise wrap the products,
  // sneak past the exact-size check, and hand out-of-bounds spans to the
  // mmap path.
  const auto checked_mul = [&](std::uint64_t a, std::uint64_t b) {
    if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
      throw Error(what + ": severity blob geometry overflows");
    }
    return a * b;
  };
  const std::uint64_t cells =
      checked_mul(checked_mul(h.metrics, h.cnodes), h.threads);
  const std::uint64_t record_size =
      h.kind == kKindDense ? sizeof(Severity)
                           : sizeof(std::uint64_t) + sizeof(Severity);
  if (h.entries > (data.size() - kHeaderBytes) / record_size) {
    throw Error(what + ": severity blob entry count " +
                std::to_string(h.entries) + " exceeds the blob's " +
                std::to_string(data.size()) + " bytes");
  }
  if (h.kind == kKindDense && h.entries != cells) {
    throw Error(what + ": dense severity blob entry count " +
                std::to_string(h.entries) + " does not match geometry (" +
                std::to_string(cells) + " cells)");
  }
  if (h.kind == kKindSparse && h.entries > cells) {
    throw Error(what + ": sparse severity blob has more entries than cells");
  }
  const std::size_t payload =
      h.kind == kKindDense
          ? static_cast<std::size_t>(h.entries) * sizeof(Severity)
          : static_cast<std::size_t>(h.entries) *
                (sizeof(std::uint64_t) + sizeof(Severity));
  if (data.size() != kHeaderBytes + payload) {
    throw Error(what + ": severity blob is " + std::to_string(data.size()) +
                " bytes, header implies " +
                std::to_string(kHeaderBytes + payload));
  }
  return h;
}

}  // namespace

std::string sev_blob_name(std::uint64_t digest) {
  return digest_hex(digest) + ".sev";
}

SeverityResolver directory_severity_resolver(std::filesystem::path directory,
                                             bool map) {
  return [dir = std::move(directory), map](
             std::uint64_t digest,
             StorageKind /*kind*/) -> std::unique_ptr<SeverityStore> {
    const std::string name = sev_blob_name(digest);
    std::error_code ec;
    std::filesystem::path path = dir / "sev" / name.substr(0, 2) / name;
    if (!std::filesystem::exists(path, ec)) {
      path = dir / "sev" / name;
      if (!std::filesystem::exists(path, ec)) return nullptr;
    }
    return map ? map_cube_sev_file(path) : read_cube_sev_file(path);
  };
}

bool is_cube_sev(std::string_view data) noexcept {
  return data.size() >= kMagic.size() &&
         data.substr(0, kMagic.size()) == kMagic;
}

std::string to_cube_sev(const SeverityStore& store) {
  // One buffer, sized up front: the header (little-endian, like the
  // CUBEBIN/CUBEMET codecs), then the payload columns.
  std::string out;
  detail::BinaryEncoder e(out);
  const auto header = [&](std::uint64_t kind, std::uint64_t entries,
                          std::uint64_t digest, std::size_t payload) {
    out.reserve(kHeaderBytes + payload);
    e.bytes(kMagic);
    for (const std::uint64_t field :
         {kind, std::uint64_t{store.num_metrics()},
          std::uint64_t{store.num_cnodes()}, std::uint64_t{store.num_threads()},
          entries, digest}) {
      e.u64(field);
    }
  };
  if (store.kind() == StorageKind::Dense) {
    const auto cells = static_cast<const DenseSeverity&>(store).cells();
    const std::string_view payload =
        bytes_of(cells.data(), cells.size() * sizeof(Severity));
    header(kKindDense, cells.size(), fnv1a(payload), payload.size());
    e.bytes(payload);
    return out;
  }
  const SparseColumns cols =
      sparse_columns(static_cast<const SparseSeverity&>(store));
  const std::string_view keys =
      bytes_of(cols.keys.data(), cols.keys.size() * sizeof(std::uint64_t));
  const std::string_view values =
      bytes_of(cols.values.data(), cols.values.size() * sizeof(Severity));
  header(kKindSparse, cols.keys.size(),
         Fnv1a().update(keys).update(values).value(),
         keys.size() + values.size());
  e.bytes(keys);
  e.bytes(values);
  return out;
}

std::unique_ptr<SeverityStore> read_cube_sev(std::string_view data) {
  const Header h = parse_header(data, "severity blob");
  const std::string_view payload = data.substr(kHeaderBytes);
  sev_bytes_read_counter().add(payload.size());
  if (fnv1a(payload) != h.digest) {
    throw Error("severity blob payload digest mismatch (corrupt blob)");
  }
  if (h.kind == kKindDense) {
    auto store = std::make_unique<DenseSeverity>(h.metrics, h.cnodes,
                                                 h.threads);
    auto cells = store->cells_mut(0, store->num_cells());
    std::memcpy(cells.data(), payload.data(),
                cells.size() * sizeof(Severity));
    return store;
  }
  auto store =
      std::make_unique<SparseSeverity>(h.metrics, h.cnodes, h.threads);
  std::vector<std::pair<std::uint64_t, Severity>> entries(h.entries);
  const char* keys = payload.data();
  const char* values = keys + h.entries * sizeof(std::uint64_t);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < h.entries; ++i) {
    std::uint64_t k = 0;
    Severity v = 0.0;
    std::memcpy(&k, keys + i * sizeof(std::uint64_t), sizeof(k));
    std::memcpy(&v, values + i * sizeof(Severity), sizeof(v));
    if (i > 0 && k <= prev) {
      throw Error("severity blob sparse keys out of order");
    }
    prev = k;
    entries[i] = {k, v};
  }
  store->set_cells(entries);
  return store;
}

std::unique_ptr<SeverityStore> read_cube_sev_file(
    const std::filesystem::path& path) {
  try {
    return read_cube_sev(read_bytes(path));
  } catch (const Error& e) {
    throw Error(path.string() + ": " + e.what());
  }
}

std::unique_ptr<SeverityStore> map_cube_sev_file(
    const std::filesystem::path& path) {
  auto mapping = std::make_shared<MappedFile>(path);
  const std::string_view data = bytes_of(mapping->data(), mapping->size());
  const Header h = parse_header(data, path.string());
  // The mapping makes every payload byte loadable; count them all, like
  // the owned reader — the analyzer's zero-severity-bytes proof treats a
  // map as a load (pages WILL fault under the reduction).
  sev_bytes_read_counter().add(data.size() - kHeaderBytes);
  const std::byte* payload = mapping->data() + kHeaderBytes;
  if (h.kind == kKindDense) {
    const std::span<const Severity> cells(
        reinterpret_cast<const Severity*>(payload),
        static_cast<std::size_t>(h.entries));
    return std::make_unique<DenseSeverity>(h.metrics, h.cnodes, h.threads,
                                           cells, std::move(mapping));
  }
  const std::span<const std::uint64_t> keys(
      reinterpret_cast<const std::uint64_t*>(payload),
      static_cast<std::size_t>(h.entries));
  const std::span<const Severity> values(
      reinterpret_cast<const Severity*>(payload +
                                        h.entries * sizeof(std::uint64_t)),
      static_cast<std::size_t>(h.entries));
  return std::make_unique<SparseSeverity>(h.metrics, h.cnodes, h.threads,
                                          keys, values, std::move(mapping));
}

SevBlobStat stat_cube_sev_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open " + path.string());
  }
  char buf[kHeaderBytes];
  in.read(buf, static_cast<std::streamsize>(kHeaderBytes));
  if (in.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
    throw Error(path.string() + ": not a CUBESEV1 severity blob");
  }
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw Error("cannot stat " + path.string());
  }
  const std::string_view header(buf, kHeaderBytes);
  if (header.substr(0, kMagic.size()) != kMagic) {
    throw Error(path.string() + ": not a CUBESEV1 severity blob");
  }
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(buf[off + i]);
    }
    return v;
  };
  SevBlobStat stat;
  const std::uint64_t kind = u64_at(8);
  stat.metrics = u64_at(16);
  stat.cnodes = u64_at(24);
  stat.threads = u64_at(32);
  stat.entries = u64_at(40);
  if (kind != kKindDense && kind != kKindSparse) {
    throw Error(path.string() + ": unknown severity blob kind " +
                std::to_string(kind));
  }
  stat.kind = kind == kKindDense ? StorageKind::Dense : StorageKind::Sparse;
  const auto checked_mul = [&](std::uint64_t a, std::uint64_t b) {
    if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
      throw Error(path.string() + ": severity blob geometry overflows");
    }
    return a * b;
  };
  const std::uint64_t cells =
      checked_mul(checked_mul(stat.metrics, stat.cnodes), stat.threads);
  const std::uint64_t record_size =
      kind == kKindDense ? sizeof(Severity)
                         : sizeof(std::uint64_t) + sizeof(Severity);
  if (kind == kKindDense && stat.entries != cells) {
    throw Error(path.string() + ": dense severity blob entry count " +
                std::to_string(stat.entries) +
                " does not match geometry (" + std::to_string(cells) +
                " cells)");
  }
  if (kind == kKindSparse && stat.entries > cells) {
    throw Error(path.string() +
                ": sparse severity blob has more entries than cells");
  }
  stat.payload_bytes = checked_mul(stat.entries, record_size);
  if (static_cast<std::uint64_t>(file_size) !=
      kHeaderBytes + stat.payload_bytes) {
    throw Error(path.string() + ": severity blob is " +
                std::to_string(file_size) + " bytes, header implies " +
                std::to_string(kHeaderBytes + stat.payload_bytes));
  }
  return stat;
}

void check_cube_sev_file(const std::filesystem::path& path) {
  const std::string data = read_bytes(path);
  const Header h = parse_header(data, path.string());
  const std::string_view payload =
      std::string_view(data).substr(kHeaderBytes);
  if (fnv1a(payload) != h.digest) {
    throw Error(path.string() + ": severity blob payload digest mismatch");
  }
  if (h.kind == kKindSparse) {
    const char* keys = payload.data();
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < h.entries; ++i) {
      std::uint64_t k = 0;
      std::memcpy(&k, keys + i * sizeof(std::uint64_t), sizeof(k));
      if (i > 0 && k <= prev) {
        throw Error(path.string() + ": severity blob sparse keys out of order");
      }
      prev = k;
    }
  }
}

}  // namespace cube
