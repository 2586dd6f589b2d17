// Experiment repository: a file-backed store of CUBE experiments.
//
// The paper (§6): "implementing the CUBE algebra on top of a database
// management system in addition to a pure XML file representation would be
// a natural extension, and interfacing to an existing performance database
// might open a large amount of performance data to our approach.  On the
// other hand, CUBE — by relying on XML files only — provides
// cross-experiment capabilities without the burden of maintaining a whole
// database-management system."
//
// This module takes the middle road the paper hints at: a directory of
// CUBE files plus an index of their attributes, giving store / load /
// list / query-by-attribute over whole experiments — enough to manage the
// run series that mean/stddev/merge consume — without any DBMS.
//
// Metadata is content-addressed: store() writes each distinct metadata
// once as a blob and the experiment files reference it by digest
// (FORMAT.md, "Metadata by reference").  Storing a 32-run series
// therefore writes the metadata once, and loading the series parses it
// once — every loaded experiment shares one in-memory instance through
// the repository's interner.  Columnar entries (RepoFormat::Columnar)
// additionally content-address their severity as a CUBESEV1 blob, which
// loads mmap instead of parse — the out-of-core form.
//
// TWO ON-DISK LAYOUTS coexist (docs/STORAGE.md):
//
//  * Legacy: one index.xml rewritten atomically on every mutation; blobs
//    flat under meta/; experiment files at the root.  O(repo) per store.
//  * Sharded: a segmented append-only index under index/ (one record
//    append per store — see index_segments.hpp), blobs sharded by digest
//    prefix (meta/<ab>/, sev/<ab>/), experiment files sharded by id
//    digest (exp/<ab>/).  O(1) per store, compaction in the background.
//
// Existing legacy repositories open unchanged; fresh directories
// initialize sharded; migrate() upgrades legacy to sharded in place.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "io/entry_table.hpp"
#include "io/index_segments.hpp"
#include "io/meta_format.hpp"
#include "io/repo_entry.hpp"
#include "io/severity_format.hpp"
#include "model/experiment.hpp"

namespace cube {

/// Which on-disk layout a repository uses (see file comment).
enum class RepoLayout {
  Auto,     ///< open whatever exists; initialize fresh directories sharded
  Legacy,   ///< initialize fresh directories with the single-index layout
  Sharded,  ///< initialize fresh directories with the sharded layout
};

/// Directory-backed experiment store.
///
/// LOOKUPS.  The index is held with an id -> position map and a
/// (key, value) -> positions posting map (io/entry_table.hpp), so find(),
/// select(), series() and cached() cost O(matches), not O(repository).
/// Each index record carries the experiment file's content digest and
/// size, recorded by store() from the bytes it writes, so a query plans
/// without opening or hashing any file.  Indexed files must change only
/// through store(): an edit behind the repository's back leaves the
/// recorded digest stale, which cube_lint (repo.digest-mismatch) and the
/// query engine's opt-in validate_loads detect.
///
/// CONCURRENCY.  One ExperimentRepository instance is safe to share
/// between threads: mutations (store/remove/migrate/refresh/compact) take
/// an exclusive lock, readers (load/find/select/series/cached/query/
/// load_all/entries_snapshot) a shared one, and the metadata interner
/// synchronizes itself.  This is what lets the analysis daemon serve many
/// sessions over one instance.
/// ACROSS processes the index is append-coherent but not push-updated: a
/// writer's changes are seen by other processes only when they call
/// refresh() — which, under the sharded layout, stats one file and parses
/// only the active segment's appended tail when the segment list is
/// unchanged.  Two processes STORING concurrently into the same directory
/// remain out of scope — last write wins.
class ExperimentRepository {
 public:
  /// Opens (or initializes) a repository at `directory`; the directory is
  /// created if absent.  An existing repository opens under whatever
  /// layout it has regardless of `layout`; a fresh directory initializes
  /// sharded unless RepoLayout::Legacy is requested.  Throws
  /// IoError/ParseError on a corrupt index.
  explicit ExperimentRepository(std::filesystem::path directory,
                                RepoLayout layout = RepoLayout::Auto);

  /// Stores the experiment and returns its id (derived from the
  /// experiment's name, uniquified with a numeric suffix on collision).
  /// The metadata blob is written only if its digest is new (encoded only
  /// then); columnar stores do the same for the severity blob.  The
  /// experiment file is serialized to a buffer BEFORE the exclusive lock
  /// is taken, and its FNV-1a digest and size are recorded in the index.
  /// `file_bytes`, when given, is that buffer already encoded by the
  /// caller (to_cube_binary_ref for RepoFormat::Binary, to_cube_xml_ref
  /// for Xml) and is written as it is; the query engine encodes a root
  /// once for the file and the daemon's reply this way.  Under the
  /// sharded layout this is one record append — O(1) in repository size.
  std::string store(const Experiment& experiment,
                    RepoFormat format = RepoFormat::Xml,
                    std::shared_ptr<const std::string> file_bytes = nullptr);

  /// Loads an experiment by id; throws cube::Error if unknown.  Metadata
  /// of blob-backed entries is interned: experiments over the same digest
  /// share one instance.  Columnar entries come back file-backed (their
  /// severity pages are mmapped, not copied).
  [[nodiscard]] Experiment load(const std::string& id) const;

  /// Loads an experiment file through this repository's blob resolvers
  /// and interner — for callers that resolved the path themselves (the
  /// query engine's planner).  `path` need not be listed in the index.
  [[nodiscard]] Experiment load_path(
      const std::filesystem::path& path, RepoFormat format,
      StorageKind storage = StorageKind::Dense) const;

  /// The digest -> metadata resolver over this repository's meta/
  /// directory, backed by its interner.  Valid while the repository lives.
  [[nodiscard]] MetadataResolver resolver() const;

  /// The digest -> severity-store resolver over this repository's sev/
  /// directory; blobs come back mmapped (file-backed stores).
  [[nodiscard]] SeverityResolver sev_resolver() const;

  /// Header-only stat of the severity blob `digest` references, or
  /// std::nullopt when no such blob exists.  Reads the 56-byte CUBESEV1
  /// header and never faults a payload page — the static plan analyzer's
  /// cost model runs on this (io.sev.bytes_read stays untouched).
  [[nodiscard]] std::optional<SevBlobStat> stat_sev_blob(
      std::uint64_t digest) const;

  /// The metadata interner; exposed so other layers (query engine) can
  /// share instances with repository loads.
  [[nodiscard]] MetadataInterner& interner() const noexcept {
    return interner_;
  }

  /// Upgrades the repository in place: rewrites every legacy entry
  /// (inline metadata) to the blob-backed layout, and converts a legacy
  /// single-index repository to the sharded layout (blobs into prefix
  /// shards, experiment files into exp/<ab>/, index.xml replaced by the
  /// segmented index).  Returns how many entries were rewritten or
  /// relocated.  Query results are bit-identical before and after.
  std::size_t migrate();

  /// Removes an entry and its file; throws cube::Error if unknown.  Blobs
  /// the entry was the last referent of are deleted too.
  void remove(const std::string& id);

  /// Blob files (meta/ and sev/) referenced by no index entry (e.g. left
  /// over from a crash between blob write and index append).  Returned as
  /// file names relative to the repository root.
  [[nodiscard]] std::vector<std::string> orphan_blobs() const;

  /// Deletes all orphan blobs; returns how many were removed.
  std::size_t remove_orphan_blobs();

  /// Merges the segmented index into one compacted segment if enough
  /// tombstone/overwrite waste accumulated (the daemon's housekeeping
  /// calls this).  Returns the number of segment files superseded; 0 when
  /// compaction is not worthwhile or the layout is legacy.
  std::size_t compact_if_needed();

  /// Unconditional compact(); same return convention.
  std::size_t compact();

  /// Deletes segment files a crashed compaction left behind (those the
  /// MANIFEST does not list).  Returns how many were removed; 0 under the
  /// legacy layout.
  std::size_t remove_stray_segments();

  /// Picks up changes written by ANOTHER process (a CLI storing into a
  /// repository a daemon serves).  Legacy: re-reads the index if its
  /// bytes changed.  Sharded: re-reads only changed segments — an
  /// unchanged segment list costs one stat.  Returns true (and bumps
  /// generation()) when the entry list changed.  Throws
  /// IoError/ParseError if the index became unreadable.
  bool refresh();

  /// Monotonic change counter: bumped by every store/remove/migrate and
  /// by each refresh() that picked up external changes.  Cheap to poll.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// All entries, in store order.  NOT safe against a concurrent mutator
  /// (the reference's vector can reallocate mid-iteration): use it from
  /// single-threaded tools, and entries_snapshot() anywhere a store may
  /// run concurrently.
  [[nodiscard]] const std::vector<RepoEntry>& entries() const noexcept {
    return table_.entries();
  }

  /// Copy of the entry list under the shared lock — the concurrency-safe
  /// counterpart of entries(), for offline tools.  Per-query code uses the
  /// lookups below, which copy only the matching entries.
  [[nodiscard]] std::vector<RepoEntry> entries_snapshot() const;

  /// The entry with `id` (the first, should a hand-edited legacy index
  /// list it twice), or std::nullopt.
  [[nodiscard]] std::optional<RepoEntry> find(const std::string& id) const;

  /// Calls `fn(entry)` on the entry with `id` (as find() resolves it)
  /// under the shared lock, without copying it; returns false, without
  /// calling `fn`, when there is none.  `fn` must not call back into the
  /// repository.
  template <typename Fn>
  bool with_entry(std::string_view id, Fn&& fn) const {
    std::shared_lock lock(mutex_);
    const RepoEntry* entry = table_.find(id);
    if (entry == nullptr) return false;
    fn(*entry);
    return true;
  }

  /// Entries whose attributes hold every (key, value) pair, in store
  /// order; every entry when `pairs` is empty.
  [[nodiscard]] std::vector<RepoEntry> select(
      const EntryTable::Pairs& pairs) const;

  /// Entries whose id starts with `prefix`, in store order.
  [[nodiscard]] std::vector<RepoEntry> series(const std::string& prefix) const;

  /// Derived cubes stored under cache key `key_hex` (entries whose
  /// kCacheKeyAttribute equals it), in store order.
  [[nodiscard]] std::vector<RepoEntry> cached(const std::string& key_hex) const;

  /// Entries whose attribute `key` equals `value`.
  [[nodiscard]] std::vector<RepoEntry> query(
      const std::string& key, const std::string& value) const;

  /// Loads several experiments at once (e.g. a run series for mean()).
  [[nodiscard]] std::vector<Experiment> load_all(
      const std::vector<RepoEntry>& selection) const;

  [[nodiscard]] const std::filesystem::path& directory() const noexcept {
    return directory_;
  }

  /// The layout this repository actually uses (never Auto).
  [[nodiscard]] RepoLayout layout() const noexcept { return layout_; }

  /// The segmented index, or nullptr under the legacy layout.  For
  /// offline tooling (cube_lint); not guarded against concurrent
  /// mutation.
  [[nodiscard]] const SegmentedIndex* segmented_index() const noexcept {
    return index_.get();
  }

 private:
  void read_index();
  void write_index() const;
  /// Fills the digest of the entries that arrived without one (records
  /// of older binaries): from unrecorded_ when this handle hashed the
  /// same file before, else by hashing it once.  An unreadable file
  /// leaves the digest absent; planning it then fails.
  void digest_unrecorded();
  /// Copies of the entries at `positions`; caller holds mutex_.
  [[nodiscard]] std::vector<RepoEntry> copy_at(
      const std::vector<std::size_t>& positions) const;
  /// Records a mutated/added entry in the on-disk index (segment append
  /// or legacy index rewrite).
  void index_store(const RepoEntry& entry);
  /// Writes the blob for `metadata` if absent; returns its hex digest.
  std::string ensure_blob(const Metadata& metadata) const;
  /// True if any entry references the meta / sev blob digest `hex`.
  [[nodiscard]] bool blob_referenced(const std::string& hex) const;
  [[nodiscard]] bool sev_referenced(const std::string& hex) const;
  /// Writes `bytes` as the entry's experiment file.
  void write_experiment_file(const RepoEntry& entry,
                             std::string_view bytes) const;
  /// Shared body of compact()/compact_if_needed(); caller holds mutex_.
  std::size_t do_compact();

  std::filesystem::path directory_;
  RepoLayout layout_ = RepoLayout::Legacy;
  /// Entries in store order with their id and attribute lookup maps.
  EntryTable table_;
  /// A digest computed on read because the entry's record lacks one,
  /// with the file, meta and sev references the entry had when hashed.
  struct Unrecorded {
    std::string file;
    std::string meta;
    std::string sev;
    std::uint64_t digest = 0;
    std::uint64_t bytes = 0;
  };
  /// Digests computed on read, by id.  A full reload (a seal or
  /// compaction by another process) brings those records back without a
  /// digest; an entry whose references are unchanged takes it from here
  /// instead of being hashed again.  migrate() records them and clears
  /// the map.
  std::map<std::string, Unrecorded> unrecorded_;
  std::unique_ptr<SegmentedIndex> index_;  ///< sharded layout only
  mutable MetadataInterner interner_;
  /// Guards table_ and index writes; see the class comment.
  mutable std::shared_mutex mutex_;
  std::atomic<std::uint64_t> generation_{0};
  /// Legacy layout: FNV-1a of the index bytes this instance last read or
  /// wrote; refresh() compares the on-disk index against it.
  mutable std::uint64_t index_digest_ = 0;
};

}  // namespace cube
