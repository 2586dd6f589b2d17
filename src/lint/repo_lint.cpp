#include "lint/repo_lint.hpp"

#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/index_segments.hpp"
#include "io/meta_format.hpp"
#include "io/repository.hpp"
#include "io/severity_format.hpp"
#include "lint/file_lint.hpp"

namespace cube::lint {

namespace {

// Attribute names the query engine stamps onto cached results; see
// src/query/planner.hpp (kCacheExprAttribute / kCacheOperandsAttribute).
// Spelled out here because lint sits below the query layer (the engine
// calls INTO lint for load validation); the cache key itself is named by
// the repository index (kCacheKeyAttribute).
constexpr const char* kCacheExpr = "cube::cache-expr";
constexpr const char* kCacheOperands = "cube::cache-operands";

/// One `id:<entry>@<hexdigest>` operand reference of a canonical cache
/// expression.
struct OperandRef {
  std::string id;
  std::string hex;
};

/// Extracts every operand reference from a canonical expression like
/// `difference(id:before@00ab...,id:after@00cd...)`.
std::vector<OperandRef> parse_operand_refs(const std::string& expr) {
  std::vector<OperandRef> refs;
  std::size_t pos = 0;
  while ((pos = expr.find("id:", pos)) != std::string::npos) {
    pos += 3;
    const std::size_t at = expr.find('@', pos);
    if (at == std::string::npos) break;
    std::size_t end = at + 1;
    while (end < expr.size() &&
           std::isxdigit(static_cast<unsigned char>(expr[end])) != 0) {
      ++end;
    }
    refs.push_back(
        OperandRef{expr.substr(pos, at - pos), expr.substr(at + 1, end - at - 1)});
    pos = end;
  }
  return refs;
}

constexpr const char* kDigestMismatch = "repo.digest-mismatch";

std::string digest_mismatch_message(std::uint64_t recorded,
                                    std::uint64_t actual) {
  return "file hashes to " + digest_hex(actual) +
         " but its index record carries digest " + digest_hex(recorded);
}

constexpr const char* kDigestMismatchHint =
    "the file was changed outside the repository; queries still key it "
    "by the recorded digest, so cached results over it are wrong — "
    "re-store the experiment through the repository";

/// Splits a kCacheOperands attribute ("hex hex hex ...") into tokens.
std::vector<std::string> split_operand_digests(const std::string& value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < value.size()) {
    const std::size_t end = value.find(' ', pos);
    const std::size_t stop = end == std::string::npos ? value.size() : end;
    if (stop > pos) out.push_back(value.substr(pos, stop - pos));
    pos = stop + 1;
  }
  return out;
}

void lint_cache_entry(const RepoEntry& entry,
                      const std::map<std::string, const RepoEntry*>& by_id,
                      const std::map<std::string, std::uint64_t>& current,
                      const std::set<std::string>& file_digests,
                      DiagnosticSink& sink) {
  // Digest-keyed staleness (the daemon's shared result cache, which keys
  // entries purely by content digests): each recorded operand digest must
  // still be the digest of SOME repository file — under any id.  A digest
  // that resolves nowhere can never be planned again, so no cache key
  // reaching this entry can ever be rebuilt: the entry is dead weight.
  const auto operands = entry.attributes.find(kCacheOperands);
  if (operands != entry.attributes.end()) {
    for (const std::string& hex : split_operand_digests(operands->second)) {
      if (file_digests.count(hex) == 0) {
        sink.warning(
            "repo.stale-cache-operand", "operand digest " + hex,
            "cached result records an operand digest that no repository "
            "file currently hashes to",
            "a digest-keyed result cache (cubed) can never serve or "
            "revalidate this entry; remove it to reclaim space");
      }
    }
  }
  const auto expr = entry.attributes.find(kCacheExpr);
  if (expr == entry.attributes.end()) {
    sink.warning("repo.stale-cache",
                 "attribute \"" + std::string(kCacheKeyAttribute) + "\"",
                 "cached result records no canonical expression",
                 "without " + std::string(kCacheExpr) +
                     " the entry can never be reused; remove it");
    return;
  }
  for (const OperandRef& ref : parse_operand_refs(expr->second)) {
    const auto it = by_id.find(ref.id);
    if (it == by_id.end()) {
      sink.warning("repo.stale-cache", "operand \"" + ref.id + "\"",
                   "cached result references an experiment that has left "
                   "the repository",
                   "the cache key can never be produced again; remove the "
                   "entry");
      continue;
    }
    const auto now = current.find(it->second->file);
    if (now == current.end()) {
      continue;  // the missing/unreadable file gets its own diagnostic
    }
    if (digest_hex(now->second) != ref.hex) {
      sink.warning("repo.stale-cache", "operand \"" + ref.id + "\"",
                   "operand file changed since the result was cached "
                   "(recorded digest " + ref.hex + ", file now hashes to " +
                       digest_hex(now->second) + ")",
                   "the engine will recompute and re-store; remove the "
                   "stale entry to reclaim space");
    }
  }
}

/// Collects every blob file under `dir` with the given extension, flat or
/// one shard level down, in deterministic order.
std::set<std::filesystem::path> collect_blobs(
    const std::filesystem::path& dir, const std::string& extension) {
  std::set<std::filesystem::path> blobs;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return blobs;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      blobs.insert(entry.path());
    }
  }
  return blobs;
}

/// Relative display name of a blob ("meta/ab/<hex>.meta" or
/// "meta/<hex>.meta").
std::string blob_rel(const std::filesystem::path& root,
                     const std::filesystem::path& blob) {
  return blob.lexically_relative(root).generic_string();
}

/// Checks the blob's shard placement: a blob inside a shard directory
/// whose name is not the first two hex digits of the blob name can never
/// be found by a resolver.
void lint_blob_placement(const std::filesystem::path& repo_root,
                         const std::filesystem::path& blob,
                         DiagnosticSink& sink) {
  const std::string shard = blob.parent_path().filename().string();
  const std::string name = blob.filename().string();
  // Flat (legacy) placement: the parent is meta/ or sev/ itself.
  if (shard == "meta" || shard == "sev") return;
  if (name.size() >= 2 && shard == name.substr(0, 2)) return;
  sink.error("repo.misfiled-blob", blob_rel(repo_root, blob),
             "blob sits in shard directory '" + shard +
                 "/' but its digest shards to '" + name.substr(0, 2) + "/'",
             "resolvers look a digest up only in its own shard (and the "
             "legacy flat location); this blob is unreachable — move it to "
             "the right shard");
}

void lint_blobs(const ExperimentRepository& repo, DiagnosticSink& sink,
                const Options& options) {
  const std::filesystem::path root = repo.directory();
  for (const std::filesystem::path& blob : collect_blobs(root / "meta",
                                                         ".meta")) {
    sink.set_subject(blob_rel(root, blob));
    lint_blob_placement(root, blob, sink);
    try {
      auto md = read_cube_meta_file(blob.string());
      if (meta_blob_name(md->digest()) != blob.filename().string()) {
        sink.error("meta.misfiled-blob", "",
                   "blob holds digest " + digest_hex(md->digest()) +
                       ", not the digest its file name claims",
                   "a resolver looking the content up by its digest will "
                   "never find it here");
      }
      Options blob_options = options;
      blob_options.check_digest = false;  // read_cube_meta_file verified it
      lint_metadata(*md, sink, blob_options);
    } catch (const CheckError& e) {
      sink.error(e.rule(), e.location(), e.detail());
    } catch (const Error& e) {
      sink.error("file.unreadable", "", e.what());
    }
  }
  for (const std::filesystem::path& blob : collect_blobs(root / "sev",
                                                         ".sev")) {
    sink.set_subject(blob_rel(root, blob));
    lint_blob_placement(root, blob, sink);
    try {
      check_cube_sev_file(blob);
      // Severity blobs are content-addressed by the digest of the whole
      // file; a name not matching the bytes is unreachable by resolvers.
      const std::string expected = sev_blob_name(digest_file(blob));
      if (expected != blob.filename().string()) {
        sink.error("sev.misfiled-blob", "",
                   "blob bytes hash to " + expected +
                       ", not the digest its file name claims",
                   "a resolver looking the severity up by its digest will "
                   "never find it here");
      }
    } catch (const CheckError& e) {
      sink.error(e.rule(), e.location(), e.detail());
    } catch (const Error& e) {
      sink.error("file.unreadable", "", e.what());
    }
  }
  for (const std::string& orphan : repo.orphan_blobs()) {
    sink.set_subject({});
    sink.warning("repo.orphan-blob", orphan,
                 "blob is referenced by no index entry",
                 "likely left over from a crash between blob write and "
                 "index write; remove_orphan_blobs() reclaims it");
  }
}

/// Segment files the MANIFEST does not list — crash leftovers of an
/// interrupted seal or compaction (sharded layout only).
void lint_segments(const ExperimentRepository& repo, DiagnosticSink& sink) {
  const SegmentedIndex* index = repo.segmented_index();
  if (index == nullptr) return;
  const SegmentedIndex::StraySegments strays = index->stray_segments();
  sink.set_subject({});
  for (const std::string& rel : strays.orphans) {
    sink.warning("repo.orphan-segment", rel,
                 "segment file is not listed in the index MANIFEST",
                 "an interrupted compaction or seal wrote it but never "
                 "committed; it is never read — remove_stray_segments() "
                 "reclaims it");
  }
  for (const std::string& rel : strays.stale) {
    sink.warning("repo.stale-segment", rel,
                 "superseded segment file left behind by a compaction",
                 "the MANIFEST no longer lists it, so it is dead weight; "
                 "remove_stray_segments() reclaims it");
  }
}

}  // namespace

void lint_repository(const std::filesystem::path& directory,
                     DiagnosticSink& sink, const Options& options) {
  const std::string old_subject = sink.subject();
  std::error_code ec;
  if (!std::filesystem::is_directory(directory, ec)) {
    sink.error("repo.bad-index", directory.string(),
               "not a directory");
    return;
  }
  const bool sharded = SegmentedIndex::present(directory);
  if (!sharded && !std::filesystem::exists(directory / "index.xml", ec)) {
    sink.error("repo.bad-index", directory.string(),
               "directory carries neither an index/MANIFEST nor an "
               "index.xml",
               "an experiment repository is identified by its index; is "
               "this the right path?");
    return;
  }

  std::unique_ptr<ExperimentRepository> repo;
  try {
    repo = std::make_unique<ExperimentRepository>(directory);
  } catch (const Error& e) {
    sink.error("repo.bad-index",
               (directory / (sharded ? "index/MANIFEST" : "index.xml"))
                   .generic_string(),
               e.what());
    return;
  }

  std::map<std::string, const RepoEntry*> by_id;
  for (const RepoEntry& entry : repo->entries()) {
    if (!by_id.emplace(entry.id, &entry).second) {
      sink.error("repo.duplicate-id", "entry \"" + entry.id + "\"",
                 "the id appears more than once in the index",
                 "load(id) resolves to the first occurrence; the later "
                 "entry is unreachable");
    }
  }

  // What every entry file hashes to now (keyed by file name), for the
  // recorded-digest and cache staleness checks.
  std::map<std::string, std::uint64_t> current;
  std::set<std::string> file_digests;
  for (const RepoEntry& entry : repo->entries()) {
    try {
      const std::uint64_t digest = digest_file(directory / entry.file);
      current.emplace(entry.file, digest);
      file_digests.insert(digest_hex(digest));
    } catch (const Error&) {
      // unreadable files get their own diagnostic below
    }
  }

  for (const RepoEntry& entry : repo->entries()) {
    sink.set_subject("entry \"" + entry.id + "\"");
    const std::filesystem::path file = directory / entry.file;
    if (!std::filesystem::is_regular_file(file, ec)) {
      sink.error("repo.missing-file", entry.file,
                 "file listed in the index does not exist");
      continue;
    }
    const auto now = current.find(entry.file);
    if (entry.digest && now != current.end() &&
        now->second != *entry.digest) {
      sink.error(kDigestMismatch, entry.file,
                 digest_mismatch_message(*entry.digest, now->second),
                 kDigestMismatchHint);
    }
    // Blobs may sit flat (legacy) or in their digest-prefix shard.
    const auto blob_present = [&](const char* dir_name,
                                  const std::string& name) {
      std::error_code probe;
      return std::filesystem::is_regular_file(
                 directory / dir_name / name.substr(0, 2) / name, probe) ||
             std::filesystem::is_regular_file(directory / dir_name / name,
                                              probe);
    };
    if (!entry.meta.empty() && !blob_present("meta", entry.meta + ".meta")) {
      sink.error("repo.missing-blob", "meta/" + entry.meta + ".meta",
                 "metadata blob referenced by the entry does not exist",
                 "every experiment over this metadata is unloadable");
      continue;  // loading below could only repeat the failure
    }
    if (!entry.sev.empty() && !blob_present("sev", entry.sev + ".sev")) {
      sink.error("repo.missing-blob", "sev/" + entry.sev + ".sev",
                 "severity blob referenced by the entry does not exist",
                 "the columnar experiment is unloadable");
      continue;
    }
    lint_file(file, sink, options, repo->resolver(), repo->sev_resolver());
    if (entry.attributes.count(kCacheKeyAttribute) != 0) {
      lint_cache_entry(entry, by_id, current, file_digests, sink);
    }
  }

  lint_blobs(*repo, sink, options);
  lint_segments(*repo, sink);
  sink.set_subject(old_subject);
}

void require_digest(const std::filesystem::path& path,
                    std::uint64_t recorded) {
  const std::uint64_t actual = digest_file(path);
  if (actual == recorded) return;
  throw ValidationError(path.string() +
                        " failed validation with 1 error(s): [" +
                        kDigestMismatch + "] " +
                        digest_mismatch_message(recorded, actual) + " (" +
                        kDigestMismatchHint + ")");
}

}  // namespace cube::lint
