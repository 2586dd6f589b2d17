#include "io/index_segments.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/file_io.hpp"
#include "io/xml_parser.hpp"
#include "io/xml_writer.hpp"

namespace cube {

namespace {

constexpr const char* kManifestHeader = "cube-repo-manifest 1";

/// "seg-NNNNNN.log" -> NNNNNN, or 0 if the name does not match.
[[nodiscard]] std::uint64_t segment_number(std::string_view name) {
  if (name.size() != 14 || name.substr(0, 4) != "seg-" ||
      name.substr(10) != ".log") {
    return 0;
  }
  std::uint64_t n = 0;
  for (const char c : name.substr(4, 6)) {
    if (c < '0' || c > '9') return 0;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

[[nodiscard]] std::string segment_name_for(std::uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%06llu.log",
                static_cast<unsigned long long>(number));
  return buf;
}

[[nodiscard]] std::string frame_record(std::string_view payload) {
  std::string out = "R " + std::to_string(payload.size()) + " " +
                    digest_hex(fnv1a(payload)) + "\n";
  out.append(payload);
  out.push_back('\n');
  return out;
}

}  // namespace

void write_entry_xml(XmlWriter& w, const RepoEntry& entry) {
  w.open_element("entry");
  w.attribute("id", entry.id);
  w.attribute("file", entry.file);
  w.attribute("format", std::string_view(repo_format_name(entry.format)));
  if (!entry.meta.empty()) w.attribute("meta", entry.meta);
  if (!entry.sev.empty()) w.attribute("sev", entry.sev);
  if (entry.digest) {
    w.attribute("digest", digest_hex(*entry.digest));
    w.attribute("bytes", std::to_string(entry.bytes));
  }
  for (const auto& [key, value] : entry.attributes) {
    w.open_element("attr");
    w.attribute("key", key);
    w.attribute("value", value);
    w.close_element();
  }
  w.close_element();
}

RepoEntry entry_from_xml(const XmlNode& node) {
  RepoEntry entry;
  entry.id = std::string(node.required_attr("id"));
  entry.file = std::string(node.required_attr("file"));
  entry.format = parse_repo_format(node.attr("format").value_or("xml"));
  entry.meta = std::string(node.attr("meta").value_or(""));
  entry.sev = std::string(node.attr("sev").value_or(""));
  // A malformed digest/bytes pair reads as absent: the repository then
  // hashes the file once, as it does for records of older binaries.
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;
  const std::string_view digest_text = node.attr("digest").value_or("");
  const std::string_view bytes_text = node.attr("bytes").value_or("");
  const auto parsed = std::from_chars(
      bytes_text.data(), bytes_text.data() + bytes_text.size(), bytes);
  if (parse_hex64(digest_text, digest) && parsed.ec == std::errc() &&
      parsed.ptr == bytes_text.data() + bytes_text.size()) {
    entry.digest = digest;
    entry.bytes = bytes;
  }
  for (const XmlNode* attr : node.children_named("attr")) {
    entry.attributes[std::string(attr->required_attr("key"))] =
        std::string(attr->required_attr("value"));
  }
  return entry;
}

std::string render_entry_record(const RepoEntry& entry) {
  std::ostringstream out;
  {
    XmlWriter w(out);
    write_entry_xml(w, entry);
  }
  return std::move(out).str();
}

std::string render_remove_record(const std::string& id) {
  std::ostringstream out;
  {
    XmlWriter w(out);
    w.open_element("remove");
    w.attribute("id", id);
    w.close_element();
  }
  return std::move(out).str();
}

bool SegmentedIndex::present(const std::filesystem::path& repo_dir) {
  std::error_code ec;
  return std::filesystem::exists(
      repo_dir / kIndexDirName / kManifestName, ec);
}

SegmentedIndex::SegmentedIndex(std::filesystem::path repo_dir)
    : repo_dir_(std::move(repo_dir)) {}

void SegmentedIndex::create() {
  const std::filesystem::path dir = index_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create index directory '" + dir.string() + "': " +
                  ec.message());
  }
  if (std::filesystem::exists(dir / kManifestName)) {
    throw Error("segmented index already exists in '" + dir.string() + "'");
  }
  const std::string first = segment_name_for(1);
  write_bytes(segment_path(first), "");
  names_ = {first};
  segments_ = {SegmentState{first, 0, 0, false}};
  records_total_ = 0;
  write_manifest(names_);
}

void SegmentedIndex::read_manifest() {
  const std::filesystem::path path = index_dir() / kManifestName;
  const std::string bytes = read_bytes(path);
  manifest_digest_ = fnv1a(bytes);
  names_.clear();
  std::istringstream in(bytes);
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    throw Error("'" + path.string() + "' is not a repository index manifest");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (segment_number(line) == 0) {
      throw Error("manifest lists malformed segment name '" + line + "'");
    }
    names_.push_back(line);
  }
  if (names_.empty()) {
    throw Error("manifest '" + path.string() + "' lists no segments");
  }
}

void SegmentedIndex::write_manifest(const std::vector<std::string>& names) {
  std::string bytes = std::string(kManifestHeader) + "\n";
  for (const std::string& name : names) {
    bytes += name;
    bytes += '\n';
  }
  replace_file(index_dir() / kManifestName, bytes);
  names_ = names;
  manifest_digest_ = fnv1a(bytes);
}

namespace {

IndexRecord parse_record(std::string_view payload, const std::string& name) {
  std::unique_ptr<XmlNode> node;
  try {
    node = parse_xml(payload);
  } catch (const Error& e) {
    throw IoError("segment '" + name +
                  "': checksummed record holds malformed XML: " + e.what());
  }
  IndexRecord record;
  if (node->name == "remove") {
    record.remove = true;
    record.entry.id = std::string(node->required_attr("id"));
    return record;
  }
  if (node->name != "entry") {
    throw IoError("segment '" + name + "': unknown record element <" +
                  node->name + ">");
  }
  record.entry = entry_from_xml(*node);
  return record;
}

}  // namespace

SegmentedIndex::ParseResult SegmentedIndex::parse_records(
    std::string_view data, std::uint64_t offset, const std::string& name,
    std::vector<IndexRecord>& records) {
  ParseResult result;
  result.valid_bytes = offset;
  std::size_t pos = 0;
  while (pos < data.size()) {
    // Header: "R <len> <16 hex>\n".  Anything malformed or incomplete is
    // a torn tail: a crash mid-append.  Stop; bytes before pos stay valid.
    const std::size_t eol = data.find('\n', pos);
    if (eol == std::string_view::npos) break;
    const std::string_view header = data.substr(pos, eol - pos);
    if (header.size() < 20 || header.substr(0, 2) != "R ") break;
    const std::size_t sep = header.rfind(' ');
    if (sep < 2 || sep + 17 != header.size()) break;
    std::uint64_t len = 0;
    bool numeric = sep > 2;
    for (const char c : header.substr(2, sep - 2)) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      len = len * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) break;
    std::uint64_t digest = 0;
    bool hex_ok = true;
    for (const char c : header.substr(sep + 1)) {
      digest <<= 4;
      if (c >= '0' && c <= '9') {
        digest |= static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digest |= static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        hex_ok = false;
        break;
      }
    }
    if (!hex_ok) break;
    const std::size_t payload_at = eol + 1;
    if (payload_at + len + 1 > data.size()) break;  // frame incomplete
    const std::string_view payload = data.substr(payload_at, len);
    if (data[payload_at + len] != '\n') break;
    if (fnv1a(payload) != digest) break;  // torn or bit-rotted tail
    records.push_back(parse_record(payload, name));
    pos = payload_at + len + 1;
    result.valid_bytes = offset + pos;
    ++result.records;
  }
  return result;
}

void SegmentedIndex::load(EntryTable& entries) {
  read_manifest();
  segments_.clear();
  records_total_ = 0;
  std::vector<IndexRecord> records;
  for (const std::string& name : names_) {
    const std::filesystem::path path = segment_path(name);
    const std::string data = read_bytes(path);
    const ParseResult parsed = parse_records(data, 0, name, records);
    SegmentState state;
    state.name = name;
    state.parsed_bytes = parsed.valid_bytes;
    state.records = parsed.records;
    state.torn_tail = parsed.valid_bytes < data.size();
    records_total_ += parsed.records;
    segments_.push_back(std::move(state));
  }
  entries.assign({});
  entries.replay(std::move(records));
}

bool SegmentedIndex::read_active_tail(EntryTable& entries) {
  SegmentState& active = segments_.back();
  const std::filesystem::path path = segment_path(active.name);
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw IoError("cannot stat segment '" + path.string() + "'");
  }
  if (size < active.parsed_bytes) {
    // External truncation — not a supported transition; recover by replay.
    load(entries);
    return true;
  }
  if (size == active.parsed_bytes && !active.torn_tail) return false;
  const std::string tail = read_bytes(path, active.parsed_bytes);
  std::vector<IndexRecord> records;
  const ParseResult parsed =
      parse_records(tail, active.parsed_bytes, active.name, records);
  active.parsed_bytes = parsed.valid_bytes;
  active.records += parsed.records;
  active.torn_tail = parsed.valid_bytes < size;
  records_total_ += parsed.records;
  entries.replay(std::move(records));
  return parsed.records > 0;
}

bool SegmentedIndex::refresh(EntryTable& entries) {
  const std::string manifest_bytes =
      read_bytes(index_dir() / kManifestName);
  if (fnv1a(manifest_bytes) != manifest_digest_) {
    // Segment list changed (another process sealed or compacted): replay
    // everything.
    load(entries);
    return true;
  }
  // Same manifest: only the active segment can have grown.
  return read_active_tail(entries);
}

void SegmentedIndex::append_frame(std::string_view payload) {
  SegmentState& active = segments_.back();
  const std::filesystem::path path = segment_path(active.name);
  if (active.torn_tail) {
    // A previous writer crashed mid-append: drop the torn frame before
    // adding ours, or it would shadow every later record from readers.
    std::error_code ec;
    std::filesystem::resize_file(path, active.parsed_bytes, ec);
    if (ec) {
      throw IoError("cannot repair torn segment '" + path.string() + "': " +
                    ec.message());
    }
    active.torn_tail = false;
  }
  const std::string frame = frame_record(payload);
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out) {
    throw IoError("cannot append to segment '" + path.string() + "'");
  }
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out) {
    throw IoError("append to segment '" + path.string() + "' failed");
  }
  active.parsed_bytes += frame.size();
  active.records += 1;
  records_total_ += 1;
}

std::string SegmentedIndex::next_segment_name() const {
  std::uint64_t max = 0;
  for (const std::string& name : names_) {
    max = std::max(max, segment_number(name));
  }
  return segment_name_for(max + 1);
}

void SegmentedIndex::seal_active() {
  const std::string fresh = next_segment_name();
  write_bytes(segment_path(fresh), "");
  std::vector<std::string> names = names_;
  names.push_back(fresh);
  segments_.push_back(SegmentState{fresh, 0, 0, false});
  write_manifest(names);
}

void SegmentedIndex::append(const RepoEntry& entry) {
  if (segments_.back().records >= kSealRecords) seal_active();
  append_frame(render_entry_record(entry));
}

void SegmentedIndex::append_remove(const std::string& id) {
  if (segments_.back().records >= kSealRecords) seal_active();
  append_frame(render_remove_record(id));
}

bool SegmentedIndex::should_compact(std::size_t live_count) const noexcept {
  const std::uint64_t dead = dead_records(live_count);
  return dead >= kCompactMinDead && dead > live_count;
}

SegmentedIndex::CompactResult SegmentedIndex::compact(EntryTable& live) {
  CompactResult result;
  // Another process may have written since our last load/refresh; those
  // records must survive the compaction or they are silently destroyed
  // (and the follow-up refresh() would see the just-written MANIFEST as
  // unchanged, so they would never be reloaded either).  A changed
  // MANIFEST means the segment list itself moved under us: replay
  // everything.  An unchanged one means only the active segment can have
  // grown: merge its appended tail.
  if (fnv1a(read_bytes(index_dir() / kManifestName)) !=
      manifest_digest_) {
    load(live);
    result.entries_changed = true;
  } else {
    result.entries_changed = read_active_tail(live);
  }
  // Write the compacted segment under the next free number, a fresh
  // active segment after it, then commit both through the MANIFEST
  // rename.  Old segments stay readable until the commit; afterwards
  // they are stale and deleted (cube_lint flags leftovers of a crash
  // here as stale segments — recovery needs nothing else).
  std::uint64_t max = 0;
  for (const std::string& name : names_) {
    max = std::max(max, segment_number(name));
  }
  const std::string compacted = segment_name_for(max + 1);
  const std::string fresh = segment_name_for(max + 2);
  std::string body;
  std::uint64_t body_records = 0;
  for (const RepoEntry& entry : live.entries()) {
    body += frame_record(render_entry_record(entry));
    ++body_records;
  }
  replace_file(segment_path(compacted), body);
  write_bytes(segment_path(fresh), "");
  const std::vector<std::string> old = names_;
  write_manifest({compacted, fresh});  // the commit point
  for (const std::string& name : old) {
    std::error_code ec;
    std::filesystem::remove(segment_path(name), ec);
  }
  segments_ = {
      SegmentState{compacted, static_cast<std::uint64_t>(body.size()),
                   body_records, false},
      SegmentState{fresh, 0, 0, false}};
  records_total_ = body_records;
  result.superseded = old.size();
  return result;
}

SegmentedIndex::StraySegments SegmentedIndex::stray_segments() const {
  StraySegments out;
  std::error_code ec;
  std::uint64_t last_listed = 0;
  for (const std::string& name : names_) {
    last_listed = std::max(last_listed, segment_number(name));
  }
  for (const auto& file :
       std::filesystem::directory_iterator(index_dir(), ec)) {
    const std::string name = file.path().filename().string();
    if (name == kManifestName) continue;
    const std::string rel =
        (std::filesystem::path(kIndexDirName) / name).string();
    if (file.path().extension() == ".tmp") {
      out.stale.push_back(rel);
      continue;
    }
    const std::uint64_t number = segment_number(name);
    if (number == 0) continue;  // not segment-shaped; none of our business
    if (std::find(names_.begin(), names_.end(), name) != names_.end()) {
      continue;
    }
    if (number > last_listed) {
      out.orphans.push_back(rel);
    } else {
      out.stale.push_back(rel);
    }
  }
  std::sort(out.orphans.begin(), out.orphans.end());
  std::sort(out.stale.begin(), out.stale.end());
  return out;
}

std::size_t SegmentedIndex::remove_stray_segments() {
  const StraySegments stray = stray_segments();
  std::size_t removed = 0;
  const auto drop = [&](const std::vector<std::string>& names) {
    for (const std::string& rel : names) {
      std::error_code ec;
      if (std::filesystem::remove(repo_dir_ / rel, ec) && !ec) ++removed;
    }
  };
  drop(stray.orphans);
  drop(stray.stale);
  return removed;
}

}  // namespace cube
