// The repository index entry: one stored experiment's id, file, format,
// blob references, and queryable attributes.  Shared by the repository
// (repository.hpp) and the segmented index codec (index_segments.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace cube {

/// Attribute under which the query engine records a derived cube's cache
/// key when persisting it into the repository.  The repository indexes it
/// like any attribute; ExperimentRepository::cached() is its lookup.
inline constexpr const char* kCacheKeyAttribute = "cube::cache-key";

/// On-disk encoding of a stored experiment.
enum class RepoFormat {
  Xml,      ///< by-reference XML (v1.1), severity inline
  Binary,   ///< CUBEBIN2, severity inline
  Columnar  ///< XML envelope (v1.2) + mmap-friendly CUBESEV1 severity blob
};

/// One index entry.
struct RepoEntry {
  std::string id;        ///< unique within the repository
  std::string file;      ///< file name relative to the repository root
  RepoFormat format = RepoFormat::Xml;
  /// Hex digest of the referenced metadata blob; empty for a legacy entry
  /// whose file carries its metadata inline.
  std::string meta;
  /// Hex digest of the referenced CUBESEV1 severity blob; empty unless
  /// the entry is columnar.
  std::string sev;
  /// FNV-1a of the experiment file's bytes, computed by store() over the
  /// buffer it writes — the value digest_file() gives for the file.  Absent
  /// only while an entry written by an older binary awaits its one-time
  /// hash (the repository fills it when it reads the record), or when that
  /// hash failed because the file was unreadable.
  std::optional<std::uint64_t> digest;
  /// Size of the experiment file in bytes, recorded alongside `digest`.
  std::uint64_t bytes = 0;
  /// The experiment's attributes at store time (name, kind, provenance,
  /// plus anything the producing tool attached) — the queryable part.
  std::map<std::string, std::string> attributes;
};

/// Index-file spelling of a format ("xml" / "binary" / "columnar").
[[nodiscard]] constexpr const char* repo_format_name(RepoFormat f) noexcept {
  switch (f) {
    case RepoFormat::Binary:
      return "binary";
    case RepoFormat::Columnar:
      return "columnar";
    case RepoFormat::Xml:
      break;
  }
  return "xml";
}

/// Inverse of repo_format_name; unknown spellings parse as Xml (the
/// tolerant default the legacy index reader always used).
[[nodiscard]] inline RepoFormat parse_repo_format(std::string_view name) {
  if (name == "binary") return RepoFormat::Binary;
  if (name == "columnar") return RepoFormat::Columnar;
  return RepoFormat::Xml;
}

}  // namespace cube
