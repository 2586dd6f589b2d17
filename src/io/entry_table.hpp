// The repository's in-memory index: its entries in store order plus the
// two lookup maps selector resolution runs on, so resolving id(),
// attr(), series() and a cache key costs O(matches) instead of a scan of
// the whole repository.
//
//  * id -> position: positions sorted by id, so an id is one binary
//    search and a series() prefix one contiguous range.
//  * (key, value) -> ascending positions: serves attribute selection; the
//    cache-key lookup is the posting list of (cube::cache-key, <hex>).
//    Lists are keyed by the pair's 64-bit digest and candidates are
//    checked against their attributes, so a digest collision costs a
//    comparison, never a wrong match.
//
// Both maps hold 32-bit positions rather than copies of the strings: the
// daemon keeps one table per repository handle, and a posting per unique
// attribute value (every entry's cube::name) would otherwise cost more
// than the entry itself.  Appends and in-place replacements update the
// maps incrementally (an append inserts one position into the id order:
// a 4-byte-per-entry move, not a re-sort).  An erase shifts every later
// position, so it rebuilds them in full.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/repo_entry.hpp"

namespace cube {

/// One replayed index record: a store of `entry`, or a tombstone
/// (`remove`) for the id in entry.id.
struct IndexRecord {
  bool remove = false;
  RepoEntry entry;
};

/// Entries plus lookup maps.  Not thread-safe: ExperimentRepository
/// serializes access through its own lock.
class EntryTable {
 public:
  using Pairs = std::vector<std::pair<std::string, std::string>>;

  [[nodiscard]] const std::vector<RepoEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// The first entry with `id`, or nullptr.
  [[nodiscard]] const RepoEntry* find(std::string_view id) const;

  /// Ascending positions (store order) of the entries whose attributes
  /// hold every pair; every position when `pairs` is empty.
  [[nodiscard]] std::vector<std::size_t> select(const Pairs& pairs) const;

  /// Ascending positions of the entries whose id starts with `prefix`.
  [[nodiscard]] std::vector<std::size_t> series(std::string_view prefix) const;

  /// Replaces the whole list.  Duplicate ids (a hand-edited legacy
  /// index) are kept; lookups resolve to the first occurrence, as load()
  /// always did.
  void assign(std::vector<RepoEntry> entries);

  /// Appends `entry`, or replaces in place the entry with the same id —
  /// the index replay rule.
  void upsert(RepoEntry entry);

  /// Removes the first entry with `id`; false if there is none.
  bool erase(std::string_view id);

  /// A free id for a new entry: `base` if no entry has it, else
  /// "<base>-<k>" for the lowest free k >= 2.  A per-base hint remembers
  /// where the last search for `base` ended, so storing one name n times
  /// costs O(1) probes per store rather than O(n).  A removal or reload
  /// (which rebuild the maps, O(n) anyway) drops the hints, so the ids
  /// stay those of a search from k = 2.
  [[nodiscard]] std::string unique_id(const std::string& base);

  /// Applies replayed index records in order.  A batch without
  /// tombstones is a run of upserts; one with tombstones replays into
  /// slots and rebuilds the maps once, keeping a full replay linear.
  void replay(std::vector<IndexRecord> records);

  /// Mutable access for the fields no map indexes (file, format, meta,
  /// sev, digest, bytes).  Changing id or attributes through it would
  /// desynchronize the maps.
  [[nodiscard]] RepoEntry& at(std::size_t position) {
    return entries_[position];
  }

  /// Positions of the entries that arrived without a digest since the
  /// last call, ascending; clears the list.
  [[nodiscard]] std::vector<std::size_t> take_undigested();

 private:
  using Position = std::uint32_t;

  void rebuild();
  /// First element of by_id_ whose id is not less than `id`.
  [[nodiscard]] std::vector<Position>::const_iterator id_lower_bound(
      std::string_view id) const;
  /// Adds entries_[position] to both maps.
  void index(std::size_t position);
  /// Adds / removes entries_[position]'s attributes in the posting map.
  void index_attributes(std::size_t position);
  void unindex_attributes(std::size_t position);

  std::vector<RepoEntry> entries_;
  /// Positions ordered by (id, position): equal ids keep store order, so
  /// the first of a run is the first occurrence.
  std::vector<Position> by_id_;
  /// Digest of (key, value) -> ascending positions.
  std::unordered_map<std::uint64_t, std::vector<Position>> postings_;
  std::vector<std::size_t> undigested_;
  /// Base id -> a k such that "<base>-2" ... "<base>-(k-1)" are taken.
  std::unordered_map<std::string, std::size_t> next_suffix_;
};

}  // namespace cube
