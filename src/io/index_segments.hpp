// Segmented, append-friendly repository index (the sharded layout's
// replacement for the monolithic rewritten index.xml).
//
// On disk, under <repository>/index/:
//
//   MANIFEST          the segment list, one name per line after a header
//                     line; rewritten atomically (temp + rename) only when
//                     the list changes (seal, compaction).  Its presence
//                     marks a sharded-layout repository.
//   seg-NNNNNN.log    record logs.  All but the last listed segment are
//                     sealed; the last is ACTIVE and append-only.
//
// Each record is length-prefixed and checksummed:
//
//   R <payload-bytes> <fnv1a-hex>\n
//   <payload>\n
//
// where <payload> is a one-element XML fragment: an <entry .../> (store)
// or <remove id="..."/> (tombstone).  Replaying the segments in manifest
// order reproduces the entry list; a store() is ONE record append instead
// of an O(repo) index rewrite.
//
// Crash safety, extending the atomic-rename discipline of the legacy
// index: appends are single buffered writes, so a crash leaves at most a
// torn final frame, which the checksummed framing detects — readers stop
// at the tear and lose only the unfinished record; the next append by a
// (re)opened writer truncates the tear first.  Seals and compactions
// commit through the MANIFEST rename: segments not (yet) listed are
// simply never read, so a crash at any intermediate step is lossless
// (cube_lint reports the leftovers as orphan/stale segments).
//
// Readers refresh cheaply: an unchanged MANIFEST means only the active
// segment can have grown, so refresh() stats one file and parses only the
// appended tail — the generation-aware counterpart of the legacy
// whole-index digest compare.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_safety.hpp"
#include "io/entry_table.hpp"
#include "io/repo_entry.hpp"

namespace cube {

struct XmlNode;
class XmlWriter;

/// Manages the index/ directory of one repository.  Not thread-safe: the
/// owning ExperimentRepository serializes access through its own lock.
/// The class is itself a thread-safety capability: mutators require it,
/// and the owner vouches for its exclusive lock with assert_owned() —
/// clang's analysis then rejects any new mutating call site that forgot
/// to take the repository lock first.
class CUBE_CAPABILITY("repository index") SegmentedIndex {
 public:
  /// Tells the thread-safety analysis that the owner's exclusive lock
  /// serializes this object (a no-op at runtime).  Call under
  /// ExperimentRepository::mutex_ before mutating.
  void assert_owned() const CUBE_ASSERT_CAPABILITY(this) {}

  static constexpr const char* kIndexDirName = "index";
  static constexpr const char* kManifestName = "MANIFEST";
  /// Active segment is sealed (and a fresh one started) past this many
  /// records, bounding the tail a refresh() may have to re-parse.
  static constexpr std::uint64_t kSealRecords = 1024;
  /// compact() is worthwhile once this many dead records accumulated and
  /// they outnumber the live entries.
  static constexpr std::uint64_t kCompactMinDead = 64;

  /// True if `repo_dir` holds a segmented index (the sharded layout
  /// marker).
  [[nodiscard]] static bool present(const std::filesystem::path& repo_dir);

  /// Binds to <repo_dir>/index without touching the disk; call create()
  /// or load() next.
  explicit SegmentedIndex(std::filesystem::path repo_dir);

  /// Initializes an empty index: the directory, one empty active
  /// segment, and the MANIFEST.  Fails if a MANIFEST already exists.
  void create() CUBE_REQUIRES(*this);

  /// Full replay: reads the MANIFEST and every listed segment, rebuilding
  /// `entries` (cleared first) in store order.  Torn final frames are
  /// tolerated (see header comment).  Throws IoError/ParseError on a
  /// missing or corrupt manifest/segment.
  void load(EntryTable& entries) CUBE_REQUIRES(*this);

  /// Picks up changes written by another process: a changed MANIFEST
  /// triggers a full reload; an unchanged one re-parses only the active
  /// segment's appended tail and applies it to `entries` incrementally.
  /// Returns true if `entries` changed.
  bool refresh(EntryTable& entries) CUBE_REQUIRES(*this);

  /// Appends one store record to the active segment, sealing it first if
  /// full.  The caller updates its entry list itself.
  void append(const RepoEntry& entry) CUBE_REQUIRES(*this);

  /// Appends one tombstone record.
  void append_remove(const std::string& id) CUBE_REQUIRES(*this);

  struct CompactResult {
    std::size_t superseded = 0;   ///< segment files replaced
    bool entries_changed = false; ///< external records were merged into `live`
  };

  /// Rewrites the index as [one compacted segment holding `live`, one
  /// fresh active segment], committing via the MANIFEST rename, then
  /// deletes the superseded segments (best effort).  Before writing, any
  /// records another process appended since the last load/refresh are
  /// replayed into `live` (a changed MANIFEST triggers a full reload, an
  /// unchanged one a tail re-parse) so compaction never destroys them.
  CompactResult compact(EntryTable& live) CUBE_REQUIRES(*this);

  /// True when enough tombstone/overwrite waste accumulated that
  /// compact() is worthwhile (`live_count` = current entry count).
  [[nodiscard]] bool should_compact(std::size_t live_count) const noexcept;

  /// Records replayed minus records still live — the compaction debt.
  [[nodiscard]] std::uint64_t dead_records(std::size_t live_count)
      const noexcept {
    return records_total_ > live_count ? records_total_ - live_count : 0;
  }

  [[nodiscard]] std::filesystem::path index_dir() const {
    return repo_dir_ / kIndexDirName;
  }

  /// The MANIFEST's segment list as of the last load/refresh/mutation.
  [[nodiscard]] const std::vector<std::string>& segment_names()
      const noexcept {
    return names_;
  }

  /// Segment-shaped files in index/ the MANIFEST does not list.
  /// `orphans`: numbered after the last listed segment — typically an
  /// interrupted compaction's output that never committed.  `stale`:
  /// numbered at or before the last listed segment, plus *.tmp leftovers
  /// — superseded files an interrupted compaction did not delete.  Names
  /// are relative to the repository root.
  struct StraySegments {
    std::vector<std::string> orphans;
    std::vector<std::string> stale;
  };
  [[nodiscard]] StraySegments stray_segments() const;

  /// Deletes every stray segment file; returns how many were removed.
  std::size_t remove_stray_segments() CUBE_REQUIRES(*this);

 private:
  struct SegmentState {
    std::string name;
    std::uint64_t parsed_bytes = 0;  ///< valid record prefix last seen
    std::uint64_t records = 0;       ///< records in that prefix
    bool torn_tail = false;  ///< bytes past parsed_bytes are garbage
  };

  [[nodiscard]] std::filesystem::path segment_path(
      const std::string& name) const {
    return index_dir() / name;
  }
  [[nodiscard]] std::string next_segment_name() const;
  void write_manifest(const std::vector<std::string>& names);
  void read_manifest();
  /// Parses the records in `data` (which starts at byte `offset` of the
  /// segment), appending them to `records`; returns the valid byte
  /// prefix and the record count.
  struct ParseResult {
    std::uint64_t valid_bytes = 0;
    std::uint64_t records = 0;
  };
  ParseResult parse_records(std::string_view data, std::uint64_t offset,
                            const std::string& name,
                            std::vector<IndexRecord>& records);
  /// Re-parses the active segment's tail past what was last seen and
  /// applies it to `entries` (a truncated segment triggers a full
  /// reload); returns true if `entries` changed.
  bool read_active_tail(EntryTable& entries) CUBE_REQUIRES(*this);
  /// Seals the active segment and starts a fresh one (MANIFEST rewrite).
  void seal_active();
  void append_frame(std::string_view payload);

  std::filesystem::path repo_dir_;
  std::vector<std::string> names_;      ///< manifest order
  std::vector<SegmentState> segments_;  ///< parallel to names_
  std::uint64_t manifest_digest_ = 0;   ///< fnv1a of MANIFEST bytes held
  std::uint64_t records_total_ = 0;     ///< records applied since load()
};

/// Renders / parses one record payload (exposed for tests and lint).
[[nodiscard]] std::string render_entry_record(const RepoEntry& entry);
[[nodiscard]] std::string render_remove_record(const std::string& id);

/// The <entry> element both index layouts share: the segment record
/// payload and each child of the legacy index.xml.  Attributes a reader
/// does not know are ignored, so records written by a newer binary stay
/// readable; `digest`/`bytes` are optional (older binaries omit them).
void write_entry_xml(XmlWriter& w, const RepoEntry& entry);
[[nodiscard]] RepoEntry entry_from_xml(const XmlNode& node);

}  // namespace cube
