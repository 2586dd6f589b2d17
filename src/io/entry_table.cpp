#include "io/entry_table.hpp"

#include <algorithm>
#include <optional>

#include "common/digest.hpp"

namespace cube {

namespace {

/// Posting-map key of one attribute pair; the key's length separates it
/// from the value.
std::uint64_t pair_digest(std::string_view key, std::string_view value) {
  return Fnv1a()
      .update(key)
      .update(static_cast<std::uint64_t>(key.size()))
      .update(value)
      .value();
}


bool holds(const RepoEntry& entry, const EntryTable::Pairs& pairs) {
  return std::all_of(pairs.begin(), pairs.end(), [&](const auto& pair) {
    const auto it = entry.attributes.find(pair.first);
    return it != entry.attributes.end() && it->second == pair.second;
  });
}

}  // namespace

std::vector<EntryTable::Position>::const_iterator EntryTable::id_lower_bound(
    std::string_view id) const {
  return std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [this](Position p, std::string_view v) { return entries_[p].id < v; });
}

const RepoEntry* EntryTable::find(std::string_view id) const {
  const auto it = id_lower_bound(id);
  if (it == by_id_.end() || entries_[*it].id != id) return nullptr;
  return &entries_[*it];
}

std::vector<std::size_t> EntryTable::select(const Pairs& pairs) const {
  std::vector<std::size_t> out;
  if (pairs.empty()) {
    out.resize(entries_.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
    return out;
  }
  // Walk the shortest posting list; check every pair per candidate (this
  // also rejects candidates that only share a pair digest).
  const std::vector<Position>* shortest = nullptr;
  for (const auto& [key, value] : pairs) {
    const auto it = postings_.find(pair_digest(key, value));
    if (it == postings_.end()) return out;
    if (shortest == nullptr || it->second.size() < shortest->size()) {
      shortest = &it->second;
    }
  }
  for (const Position position : *shortest) {
    if (holds(entries_[position], pairs)) out.push_back(position);
  }
  return out;
}

std::vector<std::size_t> EntryTable::series(std::string_view prefix) const {
  std::vector<std::size_t> out;
  const std::string* previous = nullptr;
  for (auto it = id_lower_bound(prefix);
       it != by_id_.end() && entries_[*it].id.starts_with(prefix); ++it) {
    // A duplicated id (hand-edited legacy index) resolves to its first
    // occurrence, the first of its run, like find().
    if (previous == nullptr || *previous != entries_[*it].id) {
      out.push_back(*it);
    }
    previous = &entries_[*it].id;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void EntryTable::assign(std::vector<RepoEntry> entries) {
  entries_ = std::move(entries);
  rebuild();
}

void EntryTable::upsert(RepoEntry entry) {
  const RepoEntry* existing = find(entry.id);
  std::size_t position = 0;
  if (existing == nullptr) {
    position = entries_.size();
    entries_.push_back(std::move(entry));
    index(position);
  } else {
    position = static_cast<std::size_t>(existing - entries_.data());
    unindex_attributes(position);
    entries_[position] = std::move(entry);
    index_attributes(position);
  }
  if (!entries_[position].digest) undigested_.push_back(position);
}

bool EntryTable::erase(std::string_view id) {
  const RepoEntry* existing = find(id);
  if (existing == nullptr) return false;
  entries_.erase(entries_.begin() + (existing - entries_.data()));
  rebuild();
  return true;
}

std::string EntryTable::unique_id(const std::string& base) {
  if (find(base) == nullptr) return base;
  std::size_t& hint = next_suffix_.try_emplace(base, 2).first->second;
  for (;; ++hint) {
    std::string candidate = base + "-" + std::to_string(hint);
    if (find(candidate) == nullptr) return candidate;
  }
}

void EntryTable::replay(std::vector<IndexRecord> records) {
  const bool tombstones =
      std::any_of(records.begin(), records.end(),
                  [](const IndexRecord& r) { return r.remove; });
  if (!tombstones) {
    for (IndexRecord& record : records) upsert(std::move(record.entry));
    return;
  }
  std::vector<std::optional<RepoEntry>> slots;
  slots.reserve(entries_.size() + records.size());
  std::unordered_map<std::string, std::size_t> slot_of;
  for (RepoEntry& entry : entries_) {
    slot_of.emplace(entry.id, slots.size());
    slots.emplace_back(std::move(entry));
  }
  for (IndexRecord& record : records) {
    const auto it = slot_of.find(record.entry.id);
    if (record.remove) {
      if (it != slot_of.end()) {
        slots[it->second].reset();
        slot_of.erase(it);
      }
    } else if (it != slot_of.end()) {
      slots[it->second] = std::move(record.entry);
    } else {
      slot_of.emplace(record.entry.id, slots.size());
      slots.emplace_back(std::move(record.entry));
    }
  }
  entries_.clear();
  for (std::optional<RepoEntry>& slot : slots) {
    if (slot) entries_.push_back(std::move(*slot));
  }
  rebuild();
}

std::vector<std::size_t> EntryTable::take_undigested() {
  std::vector<std::size_t> out = std::move(undigested_);
  undigested_.clear();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void EntryTable::rebuild() {
  next_suffix_.clear();  // entries may have gone: search from 2 again
  by_id_.clear();
  postings_.clear();
  undigested_.clear();
  by_id_.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_id_.push_back(static_cast<Position>(i));
    index_attributes(i);
    if (!entries_[i].digest) undigested_.push_back(i);
  }
  std::stable_sort(by_id_.begin(), by_id_.end(),
                   [this](Position a, Position b) {
                     return entries_[a].id < entries_[b].id;
                   });
}

void EntryTable::index(std::size_t position) {
  // A new entry has the largest position: it goes last among equal ids.
  const std::string& id = entries_[position].id;
  by_id_.insert(std::upper_bound(by_id_.begin(), by_id_.end(), id,
                                 [this](const std::string& v, Position p) {
                                   return v < entries_[p].id;
                                 }),
                static_cast<Position>(position));
  index_attributes(position);
}

void EntryTable::index_attributes(std::size_t position) {
  for (const auto& [key, value] : entries_[position].attributes) {
    std::vector<Position>& list = postings_[pair_digest(key, value)];
    // Usually the end (appends, rebuilds); two pairs of one entry that
    // share a digest add the position once.
    const auto at = std::lower_bound(list.begin(), list.end(), position);
    if (at == list.end() || *at != position) {
      list.insert(at, static_cast<Position>(position));
    }
  }
}

void EntryTable::unindex_attributes(std::size_t position) {
  for (const auto& [key, value] : entries_[position].attributes) {
    const auto it = postings_.find(pair_digest(key, value));
    if (it == postings_.end()) continue;
    std::vector<Position>& list = it->second;
    const auto at = std::lower_bound(list.begin(), list.end(), position);
    if (at != list.end() && *at == position) list.erase(at);
    if (list.empty()) postings_.erase(it);
  }
}

}  // namespace cube
