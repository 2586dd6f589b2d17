#include "io/meta_format.hpp"

#include <cstring>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/binary_codec.hpp"
#include "common/file_io.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

constexpr char kMetaMagic[8] = {'C', 'U', 'B', 'E', 'M', 'E', 'T', '1'};

obs::Counter& meta_bytes_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.meta.bytes_read", obs::SampleUnit::Bytes);
  return c;
}

obs::Counter& meta_bytes_written_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.meta.bytes_written", obs::SampleUnit::Bytes);
  return c;
}

}  // namespace

bool is_cube_meta(std::string_view data) noexcept {
  return data.size() >= sizeof kMetaMagic &&
         std::memcmp(data.data(), kMetaMagic, sizeof kMetaMagic) == 0;
}

std::string to_cube_meta(const Metadata& metadata) {
  OBS_SPAN("io.meta.write");
  if (!metadata.frozen()) {
    throw Error("metadata blob requires frozen metadata");
  }
  std::string out;
  detail::BinaryEncoder e(out);
  e.bytes({kMetaMagic, sizeof kMetaMagic});
  e.u64(metadata.digest());
  detail::encode_metadata(e, metadata);
  meta_bytes_written_counter().add(out.size());
  out.shrink_to_fit();  // the daemon caches blobs: drop the growth slack
  return out;
}

void write_cube_meta_file(const Metadata& metadata, const std::string& path) {
  write_bytes(path, to_cube_meta(metadata));
}

std::shared_ptr<const Metadata> read_cube_meta(std::string_view data) {
  OBS_SPAN("io.meta.read");
  meta_bytes_read_counter().add(data.size());
  if (!is_cube_meta(data)) {
    throw CheckError("file.bad-magic", "",
                     "not a CUBE metadata blob (bad magic)");
  }
  detail::BinaryDecoder d(data.substr(sizeof kMetaMagic));
  const std::uint64_t recorded = d.u64();
  auto md = detail::decode_metadata(d);
  if (!d.done()) {
    throw CheckError("file.trailing-bytes", "",
                     "trailing bytes after CUBE metadata blob");
  }
  auto frozen = freeze_metadata(std::move(md));
  if (frozen->digest() != recorded) {
    throw CheckError("meta.digest-mismatch", "",
                     "metadata blob digest mismatch (recorded " +
                         digest_hex(recorded) + ", content hashes to " +
                         digest_hex(frozen->digest()) + ")");
  }
  return frozen;
}

std::shared_ptr<const Metadata> read_cube_meta_file(const std::string& path) {
  return read_cube_meta(read_bytes(path));
}

std::string meta_blob_name(std::uint64_t digest) {
  return digest_hex(digest) + ".meta";
}

MetadataResolver directory_resolver(std::filesystem::path directory,
                                    MetadataInterner* interner) {
  return [directory = std::move(directory),
          interner](std::uint64_t digest) -> std::shared_ptr<const Metadata> {
    if (interner != nullptr) {
      if (auto live = interner->lookup(digest)) return live;
    }
    // Sharded layout first (meta/<ab>/<digest>.meta), flat as fallback.
    const std::string name = meta_blob_name(digest);
    std::error_code ec;
    std::filesystem::path path =
        directory / "meta" / name.substr(0, 2) / name;
    if (!std::filesystem::exists(path, ec)) {
      path = directory / "meta" / name;
    }
    auto md = read_cube_meta_file(path.string());
    if (md->digest() != digest) {
      // read_cube_meta verified content against the blob's own record; this
      // guards against a blob filed under the wrong name.
      throw CheckError("meta.misfiled-blob", meta_blob_name(digest),
                       "blob holds digest " + digest_hex(md->digest()) +
                           ", not the digest its file name claims");
    }
    return interner != nullptr ? interner->intern(std::move(md)) : md;
  };
}

}  // namespace cube
