// Repository-level lint: index integrity, blob reachability, orphans,
// stale cache entries — plus the opt-in load validation hooks in the
// repository and the query engine.
#include "lint/repo_lint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/cube_format.hpp"
#include "io/meta_format.hpp"
#include "io/repository.hpp"
#include "lint/lint.hpp"
#include "query/engine.hpp"
#include "testutil.hpp"

namespace {

using cube::Experiment;
using cube::ExperimentRepository;
using cube::StorageKind;
using cube::ValidationError;
using cube::lint::DiagnosticSink;
using cube::testing::make_small;
using cube::testing::make_variant;

class RepoLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_repolint_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    std::filesystem::remove_all(dir_);
    repo_ = std::make_unique<ExperimentRepository>(dir_);
  }
  void TearDown() override {
    repo_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string store_salted(const std::string& name, double salt) {
    Experiment e = make_small(StorageKind::Dense, name);
    e.set_attribute("series", "s");
    for (std::size_t m = 0; m < e.metadata().num_metrics(); ++m) {
      for (std::size_t c = 0; c < e.metadata().num_cnodes(); ++c) {
        for (std::size_t t = 0; t < e.metadata().num_threads(); ++t) {
          e.severity().add(m, c, t, salt);
        }
      }
    }
    return repo_->store(e);
  }

  /// Runs one cacheable query so the repository gains a cached derived
  /// entry (sequential engine: deterministic, TSan-friendly).
  void run_query(const std::string& text) {
    cube::query::QueryOptions options;
    options.threads = 1;
    cube::query::QueryEngine engine(*repo_, options);
    (void)engine.run(text);
  }

  /// On-disk path of a stored entry's file (sharded: exp/<ab>/<id>.cube).
  std::filesystem::path entry_file(const std::string& id) {
    for (const auto& entry : repo_->entries_snapshot()) {
      if (entry.id == id) return dir_ / entry.file;
    }
    ADD_FAILURE() << "no entry with id " << id;
    return {};
  }

  std::filesystem::path dir_;
  std::unique_ptr<ExperimentRepository> repo_;
};

TEST_F(RepoLintTest, CleanRepositoryWithCacheReportsNothing) {
  const std::string a = store_salted("run-a", 0.5);
  const std::string b = store_salted("run-b", 1.5);
  run_query("mean(" + a + ", " + b + ")");

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  std::ostringstream report;
  sink.write_text(report);
  EXPECT_EQ(sink.errors(), 0u) << report.str();
  EXPECT_EQ(sink.warnings(), 0u) << report.str();
}

TEST_F(RepoLintTest, MissingEntryFile) {
  const std::string id = store_salted("gone", 0.5);
  std::filesystem::remove(entry_file(id));
  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.missing-file"));
  EXPECT_EQ(sink.exit_code(), 2);
}

TEST_F(RepoLintTest, MissingMetadataBlob) {
  store_salted("blobless", 0.5);
  std::filesystem::remove_all(dir_ / "meta");
  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.missing-blob"));
}

TEST_F(RepoLintTest, OrphanAndMisfiledBlobs) {
  store_salted("keeper", 0.5);
  // A valid blob no entry references: orphaned but correctly filed.
  const Experiment stray = make_variant();
  cube::write_cube_meta_file(
      stray.metadata(),
      (dir_ / "meta" / cube::meta_blob_name(stray.metadata().digest()))
          .string());
  // The same blob under a name claiming a different digest: misfiled.
  cube::write_cube_meta_file(
      stray.metadata(),
      (dir_ / "meta" / "00000000deadbeef.meta").string());

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.orphan-blob"));
  EXPECT_TRUE(sink.has_rule("meta.misfiled-blob"));
}

TEST_F(RepoLintTest, RemovedOperandMakesCacheEntryStale) {
  const std::string a = store_salted("op-a", 0.5);
  const std::string b = store_salted("op-b", 1.5);
  run_query("mean(" + a + ", " + b + ")");
  repo_->remove(a);

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.stale-cache"));
  bool names_operand = false;
  for (const auto& d : sink.diagnostics()) {
    if (d.rule == "repo.stale-cache" &&
        d.location.find(a) != std::string::npos) {
      names_operand = true;
    }
  }
  EXPECT_TRUE(names_operand);
}

TEST_F(RepoLintTest, RewrittenOperandMakesCacheEntryStale) {
  const std::string a = store_salted("rw-a", 0.5);
  const std::string b = store_salted("rw-b", 1.5);
  run_query("mean(" + a + ", " + b + ")");
  // Re-materialize operand `a` with different data under the SAME file
  // name: the recorded operand digest no longer matches the file.
  Experiment changed = make_small(StorageKind::Dense, "rw-a");
  changed.severity().set(0, 0, 0, 42.0);
  cube::write_cube_xml_file(changed, entry_file(a).string());

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.stale-cache"));
}

TEST_F(RepoLintTest, HandEditedFileBreaksItsRecordedDigest) {
  const std::string id = store_salted("edited", 0.5);
  const std::string kept = store_salted("kept", 1.5);
  // A valid experiment, written over the stored file behind the
  // repository's back: it still loads, but its index record now carries
  // the digest of the bytes it replaced.
  Experiment changed = make_small(StorageKind::Dense, "edited");
  changed.severity().set(0, 0, 0, 42.0);
  cube::write_cube_xml_file(changed, entry_file(id).string());

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  std::size_t mismatches = 0;
  for (const auto& d : sink.diagnostics()) {
    if (d.rule != "repo.digest-mismatch") continue;
    ++mismatches;
    EXPECT_EQ(d.level, cube::lint::Level::Error);
    EXPECT_NE(d.location.find("entry \"" + id + "\""), std::string::npos)
        << d.location;
  }
  EXPECT_EQ(mismatches, 1u);  // `kept` still matches its record
  EXPECT_EQ(sink.exit_code(), 2);
}

TEST_F(RepoLintTest, UnresolvableOperandDigestFlagsServerCacheEntry) {
  // The daemon's shared result cache is keyed purely by content digests
  // (cube::cache-operands).  Corrupt an operand file in place: its bytes
  // now hash to a digest no cache entry recorded, so the recorded operand
  // digest resolves to NO current repository file and the cached result
  // can never be served again.
  const std::string a = store_salted("srv-a", 0.5);
  const std::string b = store_salted("srv-b", 1.5);
  run_query("mean(" + a + ", " + b + ")");

  // Sanity: the derived entry records its operand digests.
  bool recorded = false;
  for (const auto& entry : repo_->entries_snapshot()) {
    if (entry.attributes.count("cube::cache-operands") != 0) recorded = true;
  }
  ASSERT_TRUE(recorded);

  Experiment changed = make_small(StorageKind::Dense, "srv-a");
  changed.severity().set(0, 0, 0, 1234.5);
  cube::write_cube_xml_file(changed, entry_file(a).string());

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.stale-cache-operand"));
}

TEST_F(RepoLintTest, ResolvedOperandDigestsKeepServerCacheClean) {
  // Re-storing an operand's CONTENT under a different id keeps the digest
  // resolvable — the digest-keyed rule must stay quiet even though ids
  // moved around.
  const std::string a = store_salted("mv-a", 0.5);
  const std::string b = store_salted("mv-b", 1.5);
  run_query("mean(" + a + ", " + b + ")");

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  for (const auto& d : sink.diagnostics()) {
    EXPECT_NE(d.rule, "repo.stale-cache-operand") << d.message;
  }
}

TEST_F(RepoLintTest, DuplicateIndexId) {
  // Duplicate ids can only come from a hand-edited legacy index: the
  // segmented index replays later records as replacements by id.
  const std::filesystem::path legacy_dir = dir_ / "legacy";
  {
    ExperimentRepository legacy(legacy_dir, cube::RepoLayout::Legacy);
    Experiment e = make_small(StorageKind::Dense, "twin");
    legacy.store(e);
  }
  // Duplicate the entry block in index.xml by hand.
  const std::filesystem::path index = legacy_dir / "index.xml";
  std::ifstream in(index);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::string text = buffer.str();
  const auto begin = text.find("  <entry");
  const auto end = text.find("</entry>") + 9;
  ASSERT_NE(begin, std::string::npos);
  text.insert(end, text.substr(begin, end - begin));
  std::ofstream(index) << text;

  DiagnosticSink sink;
  cube::lint::lint_repository(legacy_dir, sink);
  EXPECT_TRUE(sink.has_rule("repo.duplicate-id"));
}

TEST_F(RepoLintTest, MisfiledShardedBlobReported) {
  store_salted("placed", 0.5);
  // Copy the one metadata blob into a shard directory that cannot match
  // its digest prefix; the original stays put, so nothing is orphaned.
  std::filesystem::path blob;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(dir_ / "meta")) {
    if (file.is_regular_file()) blob = file.path();
  }
  ASSERT_FALSE(blob.empty());
  const std::string wrong =
      blob.filename().string().substr(0, 2) == "zz" ? "yy" : "zz";
  std::filesystem::create_directories(dir_ / "meta" / wrong);
  std::filesystem::copy_file(blob, dir_ / "meta" / wrong / blob.filename());

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.misfiled-blob"));
  EXPECT_EQ(sink.exit_code(), 2);
}

TEST_F(RepoLintTest, MisnamedSeverityBlobReported) {
  Experiment e = make_small(StorageKind::Dense, "columnar");
  repo_->store(e, cube::RepoFormat::Columnar);
  // Duplicate the severity blob under a name claiming another digest
  // (inside that name's correct shard, so only the content check fires).
  std::filesystem::path blob;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(dir_ / "sev")) {
    if (file.is_regular_file()) blob = file.path();
  }
  ASSERT_FALSE(blob.empty());
  std::filesystem::create_directories(dir_ / "sev" / "00");
  std::filesystem::copy_file(blob,
                             dir_ / "sev" / "00" / "00000000deadbeef.sev");

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("sev.misfiled-blob"));
}

TEST_F(RepoLintTest, MissingSeverityBlobReported) {
  Experiment e = make_small(StorageKind::Dense, "columnar");
  repo_->store(e, cube::RepoFormat::Columnar);
  std::filesystem::remove_all(dir_ / "sev");
  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.missing-blob"));
}

TEST_F(RepoLintTest, OrphanSegmentReported) {
  store_salted("one", 0.5);
  std::ofstream(dir_ / "index" / "seg-000099.log")
      << "R 3 0000000000000000\nxxx\n";
  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.orphan-segment"));
  EXPECT_FALSE(sink.has_rule("repo.stale-segment"));
}

TEST_F(RepoLintTest, StaleSegmentAndTempLeftoverReported) {
  for (int i = 0; i < 4; ++i) store_salted("e" + std::to_string(i), i + 0.5);
  repo_->remove("e0");
  repo_->compact();
  // Resurrect the superseded first segment and a torn manifest temp.
  std::ofstream(dir_ / "index" / "seg-000001.log") << "stale bytes";
  std::ofstream(dir_ / "index" / "MANIFEST.tmp") << "half-written";
  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_TRUE(sink.has_rule("repo.stale-segment"));
  EXPECT_FALSE(sink.has_rule("repo.orphan-segment"));
}

TEST_F(RepoLintTest, NotARepository) {
  DiagnosticSink sink;
  cube::lint::lint_repository(dir_ / "nowhere", sink);
  EXPECT_TRUE(sink.has_rule("repo.bad-index"));
  DiagnosticSink sink2;
  std::filesystem::create_directories(dir_ / "plain");
  cube::lint::lint_repository(dir_ / "plain", sink2);
  EXPECT_TRUE(sink2.has_rule("repo.bad-index"));
}

TEST_F(RepoLintTest, CorruptedEntryFileSurfacesFileRule) {
  const std::string id = store_salted("chopped", 0.5);
  const std::filesystem::path file = entry_file(id);
  std::ifstream in(file, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string bytes = buffer.str();
  std::ofstream(file, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);

  DiagnosticSink sink;
  cube::lint::lint_repository(dir_, sink);
  EXPECT_EQ(sink.exit_code(), 2);
  bool prefixed = false;
  for (const auto& d : sink.diagnostics()) {
    if (d.location.find("entry \"" + id + "\"") != std::string::npos) {
      prefixed = true;
    }
  }
  EXPECT_TRUE(prefixed);  // findings name the entry they belong to
}

TEST_F(RepoLintTest, QueryEngineValidateLoadsFlag) {
  Experiment bad = make_small(StorageKind::Dense, "bad-op");
  bad.severity().set(0, 0, 0, std::numeric_limits<double>::quiet_NaN());
  const std::string id = repo_->store(bad);

  cube::query::QueryOptions options;
  options.threads = 1;
  options.store_derived = false;
  {
    cube::query::QueryEngine engine(*repo_, options);
    EXPECT_NO_THROW((void)engine.run("max(" + id + ", " + id + ")"));
  }
  options.validate_loads = true;
  {
    cube::query::QueryEngine engine(*repo_, options);
    EXPECT_THROW((void)engine.run("max(" + id + ", " + id + ")"),
                 ValidationError);
  }
}

}  // namespace
