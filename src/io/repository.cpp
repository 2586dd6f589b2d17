#include "io/repository.hpp"

#include <cctype>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "io/binary_format.hpp"
#include "io/cube_format.hpp"
#include "common/file_io.hpp"
#include "io/xml_parser.hpp"
#include "io/xml_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

constexpr const char* kIndexFile = "index.xml";
constexpr const char* kMetaDir = "meta";
constexpr const char* kSevDir = "sev";
constexpr const char* kExpDir = "exp";

obs::Counter& loads_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("repo.loads");
  return c;
}

obs::Counter& stores_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("repo.stores");
  return c;
}

obs::Gauge& entries_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("repo.entries");
  return g;
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
        c == '_' || c == '.') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "experiment";
  // Keep ids readable: derived experiments can have very long provenance
  // names.
  if (out.size() > 40) out.resize(40);
  return out;
}

/// Two-hex-digit shard directory name for a blob file name ("<016x>.ext")
/// or bare hex digest: its first two characters.
std::string shard_of(const std::string& hex_name) {
  return hex_name.substr(0, 2);
}

/// Shard directory for an experiment id: first two hex digits of the id's
/// FNV-1a digest (ids themselves are not hex, so they are hashed first).
std::string id_shard(const std::string& id) {
  return digest_hex(fnv1a(id)).substr(0, 2);
}

const char* extension_for(RepoFormat format) {
  switch (format) {
    case RepoFormat::Binary:
      return ".cubx";
    case RepoFormat::Columnar:
      return ".cubc";
    case RepoFormat::Xml:
      break;
  }
  return ".cube";
}

void ensure_parent_dir(const std::filesystem::path& file) {
  const std::filesystem::path dir = file.parent_path();
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create directory '" + dir.string() +
                  "': " + ec.message());
  }
}

/// Atomically places the bytes `encode()` returns at `target`, creating
/// parent directories — unless the target exists: blobs are immutable and
/// content-addressed, so a stored blob costs one probe and no encode.
template <typename Encode>
void place_blob(const std::filesystem::path& target, const Encode& encode) {
  std::error_code ec;
  if (std::filesystem::exists(target, ec)) return;
  ensure_parent_dir(target);
  replace_file(target, encode());
}

/// Existing location of blob `name` under `dir` — one shard level down,
/// or flat (legacy) — or its sharded location when there is none.
std::filesystem::path find_blob(const std::filesystem::path& dir,
                                const std::string& name) {
  const std::filesystem::path sharded = dir / shard_of(name) / name;
  const std::filesystem::path flat = dir / name;
  return !std::filesystem::exists(sharded) && std::filesystem::exists(flat)
             ? flat
             : sharded;
}

/// The experiment file of `entry` (its format; a columnar file references
/// the severity blob entry.sev).
std::string encode_experiment(const Experiment& experiment,
                              const RepoEntry& entry) {
  if (entry.format == RepoFormat::Binary) return to_cube_binary_ref(experiment);
  if (entry.format == RepoFormat::Xml) return to_cube_xml_ref(experiment);
  std::uint64_t sev_digest = 0;
  if (!parse_hex64(entry.sev, sev_digest)) {
    throw Error("repository entry '" + entry.id +
                "' has a malformed severity digest '" + entry.sev + "'");
  }
  return to_cube_xml_sev_ref(experiment, sev_digest);
}

}  // namespace

ExperimentRepository::ExperimentRepository(std::filesystem::path directory,
                                           RepoLayout layout)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw IoError("cannot create repository directory '" +
                  directory_.string() + "': " + ec.message());
  }
  if (SegmentedIndex::present(directory_)) {
    layout_ = RepoLayout::Sharded;
    index_ = std::make_unique<SegmentedIndex>(directory_);
    index_->assert_owned();  // construction: no concurrent access yet
    index_->load(table_);
  } else if (std::filesystem::exists(directory_ / kIndexFile)) {
    layout_ = RepoLayout::Legacy;
    read_index();
  } else if (layout == RepoLayout::Legacy) {
    layout_ = RepoLayout::Legacy;
    write_index();
  } else {
    layout_ = RepoLayout::Sharded;
    index_ = std::make_unique<SegmentedIndex>(directory_);
    index_->assert_owned();  // construction: no concurrent access yet
    index_->create();
  }
  digest_unrecorded();
  entries_gauge().set(static_cast<double>(table_.size()));
}

void ExperimentRepository::read_index() {
  const std::string bytes = read_bytes(directory_ / kIndexFile);
  index_digest_ = fnv1a(bytes);
  const auto root = parse_xml(bytes);
  if (root->name != "repository") {
    throw Error("'" + directory_.string() + "' is not a CUBE repository");
  }
  std::vector<RepoEntry> entries;
  for (const XmlNode* node : root->children_named("entry")) {
    entries.push_back(entry_from_xml(*node));
  }
  table_.assign(std::move(entries));
}

void ExperimentRepository::write_index() const {
  // Crash safety: replace_file() writes a temporary file and renames it
  // over index.xml.  Render to a buffer first: the digest of the bytes
  // about to land on disk is what refresh() later compares the on-disk
  // index against.
  std::ostringstream rendered;
  {
    XmlWriter w(rendered);
    w.declaration();
    w.open_element("repository");
    for (const RepoEntry& entry : table_.entries()) {
      write_entry_xml(w, entry);
    }
    w.finish();
  }
  const std::string bytes = rendered.str();
  replace_file(directory_ / kIndexFile, bytes);
  index_digest_ = fnv1a(bytes);
}

void ExperimentRepository::digest_unrecorded() {
  for (const std::size_t position : table_.take_undigested()) {
    RepoEntry& entry = table_.at(position);
    const auto known = unrecorded_.find(entry.id);
    if (known != unrecorded_.end() && known->second.file == entry.file &&
        known->second.meta == entry.meta && known->second.sev == entry.sev) {
      entry.digest = known->second.digest;
      entry.bytes = known->second.bytes;
      continue;
    }
    const std::filesystem::path path = directory_ / entry.file;
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (ec) continue;
    try {
      entry.digest = digest_file(path);
    } catch (const Error&) {
      continue;
    }
    entry.bytes = bytes;
    unrecorded_[entry.id] =
        Unrecorded{entry.file, entry.meta, entry.sev, *entry.digest, bytes};
  }
}

std::vector<RepoEntry> ExperimentRepository::copy_at(
    const std::vector<std::size_t>& positions) const {
  std::vector<RepoEntry> out;
  out.reserve(positions.size());
  for (const std::size_t position : positions) {
    out.push_back(table_.entries()[position]);
  }
  return out;
}

void ExperimentRepository::index_store(const RepoEntry& entry) {
  if (index_) {
    index_->assert_owned();
    index_->append(entry);
  } else {
    write_index();
  }
}

MetadataResolver ExperimentRepository::resolver() const {
  return directory_resolver(directory_, &interner_);
}

SeverityResolver ExperimentRepository::sev_resolver() const {
  return directory_severity_resolver(directory_);
}

std::optional<SevBlobStat> ExperimentRepository::stat_sev_blob(
    std::uint64_t digest) const {
  const std::filesystem::path path =
      find_blob(directory_ / kSevDir, digest_hex(digest) + ".sev");
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  return stat_cube_sev_file(path);
}

std::string ExperimentRepository::ensure_blob(const Metadata& metadata) const {
  const std::string hex = digest_hex(metadata.digest());
  const std::string name = hex + ".meta";
  // One probe, at the layout's own location: migrate() moves every blob
  // of a repository it shards into the shards.
  place_blob(layout_ == RepoLayout::Sharded
                 ? directory_ / kMetaDir / shard_of(name) / name
                 : directory_ / kMetaDir / name,
             [&] { return to_cube_meta(metadata); });
  return hex;
}

bool ExperimentRepository::blob_referenced(const std::string& hex) const {
  for (const RepoEntry& e : table_.entries()) {
    if (e.meta == hex) return true;
  }
  return false;
}

bool ExperimentRepository::sev_referenced(const std::string& hex) const {
  for (const RepoEntry& e : table_.entries()) {
    if (e.sev == hex) return true;
  }
  return false;
}

void ExperimentRepository::write_experiment_file(
    const RepoEntry& entry, std::string_view bytes) const {
  const std::filesystem::path path = directory_ / entry.file;
  ensure_parent_dir(path);
  write_bytes(path, bytes);
}

std::string ExperimentRepository::store(
    const Experiment& experiment, RepoFormat format,
    std::shared_ptr<const std::string> file_bytes) {
  OBS_SPAN("repo.store");
  // No byte of the files depends on the id: encode and hash before the
  // lock, which then covers only the id, the writes and the record.
  RepoEntry entry;
  entry.format = format;
  entry.attributes =
      std::map<std::string, std::string>(experiment.attributes().begin(),
                                         experiment.attributes().end());
  std::string sev_bytes;
  if (format == RepoFormat::Columnar) {
    sev_bytes = to_cube_sev(experiment.severity());
    entry.sev = digest_hex(fnv1a(sev_bytes));
  }
  const std::string encoded =
      file_bytes ? std::string() : encode_experiment(experiment, entry);
  const std::string_view bytes = file_bytes ? *file_bytes : encoded;
  // The digest of exactly the bytes written: what digest_file() would
  // compute, so cache keys match those of hashing the file.
  entry.digest = fnv1a(bytes);
  entry.bytes = bytes.size();
  const std::string base =
      sanitize(experiment.name().empty() ? "experiment" : experiment.name());

  std::unique_lock lock(mutex_);
  entry.id = table_.unique_id(base);
  const std::string id = entry.id;
  const std::string file_name = id + extension_for(format);
  entry.file =
      layout_ == RepoLayout::Sharded
          ? (std::filesystem::path(kExpDir) / id_shard(id) / file_name)
                .generic_string()
          : file_name;
  // Crash ordering: blobs first, then the experiment file, then the index
  // record — at every intermediate point the index only references
  // complete files, and leftovers are mere orphan blobs.
  entry.meta = ensure_blob(experiment.metadata());
  if (format == RepoFormat::Columnar) {
    // Severity blobs are new with the sharded layout, so they shard
    // regardless of how the rest of the repository is laid out.
    place_blob(directory_ / kSevDir / shard_of(entry.sev) /
                   (entry.sev + ".sev"),
               [&]() -> const std::string& { return sev_bytes; });
  }
  write_experiment_file(entry, bytes);
  table_.upsert(std::move(entry));  // id is unique: appends
  index_store(table_.entries().back());
  generation_.fetch_add(1, std::memory_order_release);
  entries_gauge().set(static_cast<double>(table_.size()));
  lock.unlock();
  // Future loads of this digest should share the instance just stored.
  (void)interner_.intern(experiment.metadata_ptr());
  stores_counter().add(1);
  return id;
}

Experiment ExperimentRepository::load(const std::string& id) const {
  std::filesystem::path path;
  RepoFormat format = RepoFormat::Xml;
  {
    std::shared_lock lock(mutex_);
    const RepoEntry* entry = table_.find(id);
    if (entry == nullptr) {
      throw Error("repository has no experiment with id '" + id + "'");
    }
    path = directory_ / entry->file;
    format = entry->format;
  }
  return load_path(path, format);
}

Experiment ExperimentRepository::load_path(const std::filesystem::path& path,
                                           RepoFormat format,
                                           StorageKind storage) const {
  OBS_SPAN("repo.load");
  loads_counter().add(1);
  return format == RepoFormat::Binary
             ? read_cube_binary_file(path.string(), storage, resolver())
             : read_cube_xml_file(path.string(), storage, resolver(),
                                  sev_resolver());
}

bool ExperimentRepository::refresh() {
  std::unique_lock lock(mutex_);
  bool changed = false;
  if (index_) {
    index_->assert_owned();
    changed = index_->refresh(table_);
  } else {
    std::uint64_t on_disk = 0;
    try {
      on_disk = digest_file(directory_ / kIndexFile);
    } catch (const Error&) {
      throw IoError("cannot re-read repository index in '" +
                    directory_.string() + "'");
    }
    if (on_disk != index_digest_) {
      read_index();
      changed = true;
    }
  }
  if (!changed) return false;
  digest_unrecorded();
  generation_.fetch_add(1, std::memory_order_release);
  entries_gauge().set(static_cast<double>(table_.size()));
  return true;
}

std::vector<RepoEntry> ExperimentRepository::entries_snapshot() const {
  std::shared_lock lock(mutex_);
  return table_.entries();
}

std::optional<RepoEntry> ExperimentRepository::find(
    const std::string& id) const {
  std::shared_lock lock(mutex_);
  const RepoEntry* entry = table_.find(id);
  if (entry == nullptr) return std::nullopt;
  return *entry;
}

std::vector<RepoEntry> ExperimentRepository::select(
    const EntryTable::Pairs& pairs) const {
  std::shared_lock lock(mutex_);
  return copy_at(table_.select(pairs));
}

std::vector<RepoEntry> ExperimentRepository::series(
    const std::string& prefix) const {
  std::shared_lock lock(mutex_);
  return copy_at(table_.series(prefix));
}

std::vector<RepoEntry> ExperimentRepository::cached(
    const std::string& key_hex) const {
  return select({{kCacheKeyAttribute, key_hex}});
}

std::size_t ExperimentRepository::migrate() {
  std::unique_lock lock(mutex_);
  std::size_t changed = 0;
  // Phase 0: record the digests computed when records of an older binary
  // were read, so later opens need not hash those files again.
  if (index_) {
    index_->assert_owned();
    for (const auto& recorded : unrecorded_) {
      const RepoEntry* entry = table_.find(recorded.first);
      if (entry == nullptr || !entry->digest || entry->meta.empty()) {
        continue;  // gone, unreadable, or rewritten (re-recorded) below
      }
      index_->append(*entry);
      ++changed;
    }
  }
  unrecorded_.clear();
  // Phase 1: rewrite legacy entries (metadata inline in the experiment
  // file) to the blob-backed form.  The file keeps its location; only its
  // content and index record change.
  for (std::size_t i = 0; i < table_.size(); ++i) {
    RepoEntry& entry = table_.at(i);
    if (!entry.meta.empty()) continue;
    const std::filesystem::path path = directory_ / entry.file;
    const Experiment experiment = load_path(path, entry.format);
    entry.meta = ensure_blob(experiment.metadata());
    const std::string bytes = encode_experiment(experiment, entry);
    write_experiment_file(entry, bytes);
    entry.digest = fnv1a(bytes);
    entry.bytes = bytes.size();
    (void)interner_.intern(experiment.metadata_ptr());
    if (index_) {
      index_->assert_owned();
      index_->append(entry);
    }
    ++changed;
  }
  // Phase 2: convert a legacy single-index repository to the sharded
  // layout — blobs into prefix shards, experiment files under exp/<ab>/,
  // index.xml replaced by the segmented index.  Each step moves complete
  // files; the layout switch commits with the MANIFEST write, after which
  // index.xml is deleted.
  if (layout_ == RepoLayout::Legacy) {
    std::error_code ec;
    const std::filesystem::path meta_dir = directory_ / kMetaDir;
    if (std::filesystem::is_directory(meta_dir, ec)) {
      for (const auto& file :
           std::filesystem::directory_iterator(meta_dir, ec)) {
        if (!file.is_regular_file()) continue;
        const std::filesystem::path& p = file.path();
        if (p.extension() != ".meta") continue;
        const std::filesystem::path target =
            meta_dir / shard_of(p.filename().string()) / p.filename();
        ensure_parent_dir(target);
        std::error_code mv;
        std::filesystem::rename(p, target, mv);
        if (mv) {
          throw IoError("cannot shard metadata blob '" + p.string() +
                        "': " + mv.message());
        }
      }
    }
    for (std::size_t i = 0; i < table_.size(); ++i) {
      RepoEntry& entry = table_.at(i);
      const std::string file_name =
          std::filesystem::path(entry.file).filename().string();
      const std::string target_rel =
          (std::filesystem::path(kExpDir) / id_shard(entry.id) / file_name)
              .generic_string();
      if (entry.file == target_rel) continue;
      const std::filesystem::path target = directory_ / target_rel;
      ensure_parent_dir(target);
      std::error_code mv;
      std::filesystem::rename(directory_ / entry.file, target, mv);
      if (mv) {
        throw IoError("cannot relocate experiment file '" + entry.file +
                      "': " + mv.message());
      }
      entry.file = target_rel;
      ++changed;
    }
    index_ = std::make_unique<SegmentedIndex>(directory_);
    index_->assert_owned();
    index_->create();
    for (const RepoEntry& entry : table_.entries()) index_->append(entry);
    layout_ = RepoLayout::Sharded;
    std::filesystem::remove(directory_ / kIndexFile, ec);
    std::filesystem::remove(
        directory_ / (std::string(kIndexFile) + ".tmp"), ec);
  } else if (changed > 0 && !index_) {
    write_index();
  }
  // Phase 3: sweep the debris an interrupted seal or compaction may have
  // left in index/ — uncommitted (orphan) and superseded (stale) segment
  // files plus *.tmp leftovers.  The MANIFEST commit already made them
  // unreachable, so deleting them is the whole recovery.
  if (index_) {
    index_->assert_owned();
    changed += index_->remove_stray_segments();
  }
  if (changed > 0) {
    generation_.fetch_add(1, std::memory_order_release);
  }
  return changed;
}

void ExperimentRepository::remove(const std::string& id) {
  std::unique_lock lock(mutex_);
  const RepoEntry* found = table_.find(id);
  if (found == nullptr) {
    throw Error("repository has no experiment with id '" + id + "'");
  }
  const std::string file = found->file;
  const std::string meta = found->meta;
  const std::string sev = found->sev;
  table_.erase(id);
  unrecorded_.erase(id);
  // Crash ordering mirrors store(): the index commits first, the files go
  // second — a crash in between leaves orphans (which
  // remove_orphan_blobs()/gc reclaim), never an index record that
  // references deleted files.
  if (index_) {
    index_->assert_owned();
    index_->append_remove(id);
  } else {
    write_index();
  }
  std::error_code ec;
  std::filesystem::remove(directory_ / file, ec);
  if (!meta.empty() && !blob_referenced(meta)) {
    std::filesystem::remove(find_blob(directory_ / kMetaDir, meta + ".meta"),
                            ec);
  }
  if (!sev.empty() && !sev_referenced(sev)) {
    std::filesystem::remove(find_blob(directory_ / kSevDir, sev + ".sev"), ec);
  }
  generation_.fetch_add(1, std::memory_order_release);
  entries_gauge().set(static_cast<double>(table_.size()));
}

std::vector<std::string> ExperimentRepository::orphan_blobs() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> orphans;
  const auto scan = [&](const char* dir_name, const char* extension,
                        const auto& referenced) {
    const std::filesystem::path dir = directory_ / dir_name;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) return;
    // Recursive: blobs live flat (legacy) or one shard level down.
    for (const auto& file :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
      if (!file.is_regular_file()) continue;
      const std::filesystem::path& p = file.path();
      if (p.extension() != extension) continue;
      if (!referenced(p.stem().string())) {
        orphans.push_back(p.lexically_relative(directory_).generic_string());
      }
    }
  };
  scan(kMetaDir, ".meta",
       [this](const std::string& hex) { return blob_referenced(hex); });
  scan(kSevDir, ".sev",
       [this](const std::string& hex) { return sev_referenced(hex); });
  return orphans;
}

std::size_t ExperimentRepository::remove_orphan_blobs() {
  std::size_t removed = 0;
  for (const std::string& rel : orphan_blobs()) {
    std::error_code ec;
    if (std::filesystem::remove(directory_ / rel, ec) && !ec) ++removed;
  }
  return removed;
}

std::size_t ExperimentRepository::do_compact() {
  index_->assert_owned();
  const SegmentedIndex::CompactResult result = index_->compact(table_);
  if (result.entries_changed) {
    // Compaction replayed records another process appended since our
    // last refresh; surface them like refresh() would.
    digest_unrecorded();
    generation_.fetch_add(1, std::memory_order_release);
    entries_gauge().set(static_cast<double>(table_.size()));
  }
  return result.superseded;
}

std::size_t ExperimentRepository::compact_if_needed() {
  std::unique_lock lock(mutex_);
  if (!index_ || !index_->should_compact(table_.size())) return 0;
  return do_compact();
}

std::size_t ExperimentRepository::compact() {
  std::unique_lock lock(mutex_);
  if (!index_) return 0;
  return do_compact();
}

std::size_t ExperimentRepository::remove_stray_segments() {
  std::unique_lock lock(mutex_);
  if (!index_) return 0;
  index_->assert_owned();
  return index_->remove_stray_segments();
}

std::vector<RepoEntry> ExperimentRepository::query(
    const std::string& key, const std::string& value) const {
  return select({{key, value}});
}

std::vector<Experiment> ExperimentRepository::load_all(
    const std::vector<RepoEntry>& selection) const {
  std::vector<Experiment> out;
  out.reserve(selection.size());
  for (const RepoEntry& entry : selection) {
    out.push_back(load(entry.id));
  }
  return out;
}

}  // namespace cube
