// Columnar severity blob format: one store's cells, content-addressed and
// mmap-friendly (the out-of-core severity form — docs/STORAGE.md).
//
// Layout (all integers little-endian u64, doubles IEEE-754 LE):
//
//   offset  0   magic   "CUBESEV1" (8 bytes)
//   offset  8   kind    0 = dense, 1 = sparse
//   offset 16   metrics
//   offset 24   cnodes
//   offset 32   threads
//   offset 40   entries dense: cell count (= metrics*cnodes*threads)
//                       sparse: number of stored (key, value) pairs
//   offset 48   digest  FNV-1a over the payload bytes
//   offset 56   payload dense:  entries doubles, flattened row-major
//                               [metric][cnode][thread] cell order
//               sparse: entries u64 flattened keys, strictly ascending,
//                       then entries doubles (matching values, non-zero)
//
// The payload starts 8-aligned, and the sparse value column follows an
// 8-byte key column, so a page-aligned mmap of the file yields aligned
// u64/f64 views — severity stores borrow them directly (severity.hpp,
// file-backed mode).
//
// Integrity: read_cube_sev (owned) verifies the payload digest.
// map_cube_sev_file validates the header/geometry only — verifying the
// digest would fault in every page, defeating the point of mapping; use
// check_cube_sev_file (lint, validators) for a full check.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "model/severity.hpp"

namespace cube {

/// Maps a severity digest to a store instance; readers of experiment
/// envelopes with a <sevref> call this.  Throwing or returning nullptr
/// fails the read.
using SeverityResolver = std::function<std::unique_ptr<SeverityStore>(
    std::uint64_t digest, StorageKind kind)>;

/// Blob file name for a digest: "<016x hex>.sev".
[[nodiscard]] std::string sev_blob_name(std::uint64_t digest);

/// Resolver over the repository blob layout: looks for the blob under
/// `directory` at sev/<ab>/<digest>.sev (the sharded layout) and then
/// sev/<digest>.sev.  With `map` (the default) the blob is mmapped into a
/// file-backed store; otherwise it is read into an owned store with the
/// digest verified.  Returns nullptr when no blob exists.
[[nodiscard]] SeverityResolver directory_severity_resolver(
    std::filesystem::path directory, bool map = true);

/// Serializes a store as a CUBESEV1 blob.  Dense stores write every cell;
/// sparse stores write the sorted non-zero columns.
[[nodiscard]] std::string to_cube_sev(const SeverityStore& store);

/// Deserializes a blob into an owned store, verifying the payload digest.
/// Throws cube::Error on bad magic, truncation, geometry mismatch, or a
/// digest mismatch.
[[nodiscard]] std::unique_ptr<SeverityStore> read_cube_sev(
    std::string_view data);
[[nodiscard]] std::unique_ptr<SeverityStore> read_cube_sev_file(
    const std::filesystem::path& path);

/// Maps a blob and returns a file-backed store borrowing its pages: dense
/// cells or sparse sorted columns are viewed in place, and
/// release_cells() drops consumed pages so series larger than RAM stream
/// at bounded resident memory.  Header and geometry are validated; the
/// payload digest is NOT (see header comment).
[[nodiscard]] std::unique_ptr<SeverityStore> map_cube_sev_file(
    const std::filesystem::path& path);

/// Full integrity check (header, geometry, payload digest, sparse key
/// order).  Throws cube::Error describing the first problem found.
void check_cube_sev_file(const std::filesystem::path& path);

/// Header fields of a severity blob, read without touching the payload.
struct SevBlobStat {
  StorageKind kind = StorageKind::Dense;
  std::uint64_t metrics = 0;
  std::uint64_t cnodes = 0;
  std::uint64_t threads = 0;
  /// Dense: cell count; sparse: stored (key, value) pairs.
  std::uint64_t entries = 0;
  /// Payload size the header implies (and the file carries past the
  /// 56-byte header) — what a full load would fault in.
  std::uint64_t payload_bytes = 0;
};

/// Reads ONLY the 56-byte header of a blob and returns its geometry —
/// the static analyzer's cost model runs on this, so the read must never
/// fault severity pages and does not count toward io.sev.bytes_read.
/// Validates magic/kind/geometry against the file size; throws
/// cube::Error on a malformed header.
[[nodiscard]] SevBlobStat stat_cube_sev_file(
    const std::filesystem::path& path);

/// True if `data` starts with the severity blob magic.
[[nodiscard]] bool is_cube_sev(std::string_view data) noexcept;

}  // namespace cube
