// Compact binary experiment format (extension).
//
// The paper relies on XML only and discusses database backends as future
// work; this binary codec is the repository's ablation point for the
// storage representation (bench A4 in DESIGN.md compares XML vs binary
// size and throughput).
//
// Layout: magic "CUBEBIN1", then length-prefixed sections in a fixed
// order — attributes, metrics, regions, call sites, cnodes, system tree,
// and the non-zero severity triples.  All integers are little-endian
// fixed-width; strings are u32-length-prefixed UTF-8.
//
// The by-reference variant (magic "CUBEBIN2") replaces the inline
// metadata sections with the u64 structural digest of a metadata blob
// (meta_format.hpp); severity ids are the dense indices of the referenced
// metadata.  Reading one requires a MetadataResolver.
#pragma once

#include <string>

#include "io/meta_format.hpp"
#include "model/experiment.hpp"

namespace cube {

/// Serializes the experiment to the binary format (inline metadata).
void write_cube_binary_file(const Experiment& experiment,
                            const std::string& path);
[[nodiscard]] std::string to_cube_binary(const Experiment& experiment);

/// Serializes by reference: attributes + metadata digest + severity.  The
/// referenced blob must be stored separately (the repository does this).
[[nodiscard]] std::string to_cube_binary_ref(const Experiment& experiment);

/// Deserializes either variant; throws cube::Error on a malformed or
/// truncated buffer, or on a by-reference stream without a resolver.
[[nodiscard]] Experiment read_cube_binary(
    std::string_view data, StorageKind storage = StorageKind::Dense,
    const MetadataResolver& resolver = {});
[[nodiscard]] Experiment read_cube_binary_file(
    const std::string& path, StorageKind storage = StorageKind::Dense,
    const MetadataResolver& resolver = {});

}  // namespace cube
