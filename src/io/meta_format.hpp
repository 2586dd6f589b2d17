// Metadata blob format: one frozen Metadata, content-addressed by its
// structural digest.
//
// Layout: magic "CUBEMET1", the u64 structural digest, then the metadata
// sections in CUBEBIN1 order (see binary_codec.hpp).  The digest doubles
// as an integrity check: the reader recomputes it at freeze and rejects a
// blob whose content does not hash to its recorded digest.
//
// Blobs back the by-reference experiment formats (FORMAT.md, "Metadata by
// reference"): the repository stores each distinct metadata once under
// meta/<digest>.meta, and experiment files reference it by digest.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "model/metadata.hpp"

namespace cube {

/// Maps a metadata digest to the frozen instance it denotes.  Readers of
/// by-reference experiment files call this for the <metaref> / embedded
/// digest; throwing or returning nullptr fails the read.
using MetadataResolver =
    std::function<std::shared_ptr<const Metadata>(std::uint64_t digest)>;

/// Resolver over the repository blob layout: reads the blob under
/// `directory` at `meta/<ab>/<digest>.meta` (the sharded layout, <ab> =
/// first two digest hex digits) or `meta/<digest>.meta` (legacy flat
/// layout).  With `interner`, repeated digests return the SAME
/// instance (pointer-equal), which is what makes a loaded run series share
/// its metadata in memory.  The interner must outlive the resolver.
[[nodiscard]] MetadataResolver directory_resolver(
    std::filesystem::path directory, MetadataInterner* interner = nullptr);

/// Blob file name for a digest: "<016x hex>.meta".
[[nodiscard]] std::string meta_blob_name(std::uint64_t digest);

/// Serializes frozen metadata as a blob.  Throws Error if not frozen.
void write_cube_meta_file(const Metadata& metadata, const std::string& path);
[[nodiscard]] std::string to_cube_meta(const Metadata& metadata);

/// Deserializes a blob into frozen metadata.  Throws cube::Error on a bad
/// magic, truncation, or a digest mismatch.
[[nodiscard]] std::shared_ptr<const Metadata> read_cube_meta(
    std::string_view data);
[[nodiscard]] std::shared_ptr<const Metadata> read_cube_meta_file(
    const std::string& path);

/// True if `data` starts with the metadata blob magic.
[[nodiscard]] bool is_cube_meta(std::string_view data) noexcept;

}  // namespace cube
