// The repository's lookup maps and recorded digests: find/select/series/
// cached must answer exactly what a linear scan over entries_snapshot()
// answers, through every mutation path (store, remove, refresh() from a
// second handle, compaction, migrate() of a legacy index), and the digest
// an index record carries must be the file's digest_file() for every
// format.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "io/cube_format.hpp"
#include "io/repository.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;
using Pairs = EntryTable::Pairs;

// ---- linear-scan oracle over a snapshot -----------------------------------

bool holds(const RepoEntry& entry, const Pairs& pairs) {
  for (const auto& [key, value] : pairs) {
    const auto it = entry.attributes.find(key);
    if (it == entry.attributes.end() || it->second != value) return false;
  }
  return true;
}

std::vector<RepoEntry> scan_select(const std::vector<RepoEntry>& all,
                                   const Pairs& pairs) {
  std::vector<RepoEntry> out;
  for (const RepoEntry& e : all) {
    if (holds(e, pairs)) out.push_back(e);
  }
  return out;
}

std::vector<RepoEntry> scan_series(const std::vector<RepoEntry>& all,
                                   const std::string& prefix) {
  std::vector<RepoEntry> out;
  for (const RepoEntry& e : all) {
    if (e.id.rfind(prefix, 0) == 0) out.push_back(e);
  }
  return out;
}

std::optional<RepoEntry> scan_find(const std::vector<RepoEntry>& all,
                                   const std::string& id) {
  for (const RepoEntry& e : all) {
    if (e.id == id) return e;
  }
  return std::nullopt;
}

std::string describe(const RepoEntry& e) {
  std::ostringstream out;
  out << e.id << '|' << e.file << '|' << repo_format_name(e.format) << '|'
      << e.meta << '|' << e.sev << '|'
      << (e.digest ? digest_hex(*e.digest) : std::string("-")) << '|'
      << e.bytes;
  for (const auto& [k, v] : e.attributes) out << '|' << k << '=' << v;
  return out.str();
}

std::vector<std::string> describe(const std::vector<RepoEntry>& entries) {
  std::vector<std::string> out;
  for (const RepoEntry& e : entries) out.push_back(describe(e));
  return out;
}

/// Every lookup of `repo` against the oracle over its own snapshot.
void expect_lookups_match_scan(const ExperimentRepository& repo,
                               const std::string& context) {
  SCOPED_TRACE(context);
  const std::vector<RepoEntry> all = repo.entries_snapshot();
  for (const RepoEntry& e : all) {
    const std::optional<RepoEntry> found = repo.find(e.id);
    ASSERT_TRUE(found.has_value()) << e.id;
    EXPECT_EQ(describe(*found), describe(*scan_find(all, e.id)));
  }
  EXPECT_FALSE(repo.find("no-such-id").has_value());
  EXPECT_FALSE(repo.find("").has_value());

  std::vector<Pairs> selections = {{}};
  for (int s = 0; s < 4; ++s) {
    selections.push_back({{"series", "s" + std::to_string(s)}});
    for (int b = 0; b < 3; ++b) {
      selections.push_back({{"series", "s" + std::to_string(s)},
                            {"batch", std::to_string(b)}});
    }
  }
  selections.push_back({{"batch", "1"}});
  selections.push_back({{"batch", "nope"}});
  selections.push_back({{"missing-key", "x"}});
  for (const Pairs& pairs : selections) {
    EXPECT_EQ(describe(repo.select(pairs)),
              describe(scan_select(all, pairs)));
  }
  for (const char* prefix :
       {"", "r", "run", "run-", "run-1", "run-12", "alt", "zzz"}) {
    EXPECT_EQ(describe(repo.series(prefix)),
              describe(scan_series(all, prefix)))
        << "prefix '" << prefix << "'";
  }
  for (int k = 0; k < 4; ++k) {
    const std::string hex = digest_hex(static_cast<std::uint64_t>(k) + 1);
    EXPECT_EQ(describe(repo.cached(hex)),
              describe(scan_select(all, {{kCacheKeyAttribute, hex}})));
  }
}

/// Appends `entry`'s record to the active segment the way another process
/// (or an older binary, when the digest is unset) would.
void append_record(const ExperimentRepository& repo, const RepoEntry& entry) {
  const SegmentedIndex* index = repo.segmented_index();
  ASSERT_NE(index, nullptr);
  const std::string payload = render_entry_record(entry);
  std::ofstream out(index->index_dir() / index->segment_names().back(),
                    std::ios::app | std::ios::binary);
  out << "R " << payload.size() << ' ' << digest_hex(fnv1a(payload)) << '\n'
      << payload << '\n';
}

Experiment random_experiment(SplitMix64& rng) {
  static const char* const kNames[] = {"run", "run-1", "alt", "run-12"};
  Experiment e = make_small(StorageKind::Dense, kNames[rng.below(4)]);
  e.severity().set(0, 0, 0, static_cast<double>(rng.below(1000)));
  e.set_attribute("series", "s" + std::to_string(rng.below(4)));
  e.set_attribute("batch", std::to_string(rng.below(3)));
  if (rng.below(4) == 0) {
    e.set_attribute(kCacheKeyAttribute, digest_hex(rng.below(4) + 1));
  }
  return e;
}

class RepoLookupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_lookup_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Random store/remove/re-record/refresh/compact sequence over two
  /// handles of one directory; checks both handles against the oracle
  /// after every step.
  void run_random_sequence(RepoLayout layout, std::uint64_t seed) {
    SplitMix64 rng(seed);
    ExperimentRepository reader(dir_, layout);
    ExperimentRepository writer(dir_);
    for (int step = 0; step < 120; ++step) {
      const std::uint64_t op = rng.below(10);
      std::string what;
      if (op < 5) {
        what = "store " + reader.store(random_experiment(rng),
                                       static_cast<RepoFormat>(rng.below(3)));
        writer.refresh();
      } else if (op < 7) {
        what = "writer store " +
               writer.store(random_experiment(rng), RepoFormat::Binary);
        reader.refresh();
      } else if (op < 8) {
        const std::vector<RepoEntry> all = reader.entries_snapshot();
        if (all.empty()) continue;
        const std::string id = all[rng.below(all.size())].id;
        reader.remove(id);
        what = "remove " + id;
        writer.refresh();
      } else if (op < 9) {
        // Another process re-records an entry with changed attributes:
        // replay replaces it in place.
        const std::vector<RepoEntry> all = reader.entries_snapshot();
        if (all.empty() || layout != RepoLayout::Sharded) continue;
        RepoEntry changed = all[rng.below(all.size())];
        changed.attributes["series"] = "s" + std::to_string(rng.below(4));
        changed.attributes.erase("batch");
        if (rng.below(2) == 0) {
          changed.attributes["batch"] = std::to_string(rng.below(3));
        }
        append_record(writer, changed);
        what = "re-record " + changed.id;
        writer.refresh();
        reader.refresh();
      } else {
        what = "compact";
        reader.compact();
        writer.refresh();
      }
      expect_lookups_match_scan(reader, "reader after step " +
                                            std::to_string(step) + ": " +
                                            what);
      expect_lookups_match_scan(writer, "writer after step " +
                                            std::to_string(step) + ": " +
                                            what);
      ASSERT_EQ(describe(reader.entries_snapshot()),
                describe(writer.entries_snapshot()));
      if (::testing::Test::HasFailure()) return;
    }
  }

  std::filesystem::path dir_;
};

TEST_F(RepoLookupTest, ShardedLookupsMatchLinearScan) {
  run_random_sequence(RepoLayout::Sharded, 0x5eed01);
  // A fresh handle replays the index from disk into the same answers.
  ExperimentRepository reopened(dir_);
  expect_lookups_match_scan(reopened, "reopened");
}

TEST_F(RepoLookupTest, LegacyLookupsMatchLinearScanThroughMigrate) {
  run_random_sequence(RepoLayout::Legacy, 0x5eed02);
  ExperimentRepository repo(dir_);
  ASSERT_EQ(repo.layout(), RepoLayout::Legacy);
  const std::vector<std::string> before = describe(repo.entries_snapshot());
  repo.migrate();
  EXPECT_EQ(repo.layout(), RepoLayout::Sharded);
  EXPECT_EQ(repo.entries_snapshot().size(), before.size());
  expect_lookups_match_scan(repo, "migrated");
  ExperimentRepository reopened(dir_);
  expect_lookups_match_scan(reopened, "migrated, reopened");
}

TEST_F(RepoLookupTest, RecordedDigestIsTheFileDigestForEveryFormat) {
  {
    ExperimentRepository repo(dir_);
    repo.store(make_small(StorageKind::Dense, "xml"), RepoFormat::Xml);
    repo.store(make_small(StorageKind::Dense, "bin"), RepoFormat::Binary);
    repo.store(make_small(StorageKind::Sparse, "col"), RepoFormat::Columnar);
    for (const RepoEntry& e : repo.entries()) {
      ASSERT_TRUE(e.digest.has_value()) << e.id;
      EXPECT_EQ(*e.digest, digest_file(dir_ / e.file)) << e.id;
      EXPECT_EQ(e.bytes, std::filesystem::file_size(dir_ / e.file)) << e.id;
    }
  }
  // The digest travels in the index record: a reopened handle reads it
  // back rather than hashing the file.
  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 3u);
  for (const RepoEntry& e : reopened.entries()) {
    ASSERT_TRUE(e.digest.has_value()) << e.id;
    EXPECT_EQ(*e.digest, digest_file(dir_ / e.file)) << e.id;
  }
}

TEST_F(RepoLookupTest, LegacyIndexIsHashedOnceAndRecordedByMigrate) {
  // An index written before digests were recorded: one blob-backed entry
  // of the legacy layout (attributes stripped from its record) and one
  // inline-metadata entry.
  {
    ExperimentRepository repo(dir_, RepoLayout::Legacy);
    repo.store(make_small(StorageKind::Dense, "blob"), RepoFormat::Binary);
  }
  write_cube_xml_file(make_small(StorageKind::Dense, "inline"),
                      (dir_ / "inline.cube").string());
  std::string xml;
  {
    std::ifstream in(dir_ / "index.xml");
    std::stringstream buffer;
    buffer << in.rdbuf();
    xml = std::regex_replace(
        buffer.str(), std::regex(" digest=\"[0-9a-f]*\" bytes=\"[0-9]*\""),
        "");
  }
  ASSERT_EQ(xml.find("digest="), std::string::npos);
  xml.replace(xml.find("</repository>"), 13,
              "<entry id=\"inline\" file=\"inline.cube\" format=\"xml\"/>"
              "</repository>");
  std::ofstream(dir_ / "index.xml", std::ios::trunc) << xml;

  ExperimentRepository repo(dir_);
  ASSERT_EQ(repo.entries().size(), 2u);
  for (const RepoEntry& e : repo.entries()) {
    ASSERT_TRUE(e.digest.has_value()) << e.id;  // hashed at open
    EXPECT_EQ(*e.digest, digest_file(dir_ / e.file)) << e.id;
  }
  repo.migrate();
  for (const RepoEntry& e : repo.entries()) {
    ASSERT_TRUE(e.digest.has_value()) << e.id;
    EXPECT_EQ(*e.digest, digest_file(dir_ / e.file)) << e.id;
    EXPECT_EQ(e.bytes, std::filesystem::file_size(dir_ / e.file)) << e.id;
  }
  // migrate() wrote every record with its digest.
  for (const auto& f :
       std::filesystem::directory_iterator(dir_ / "index")) {
    if (f.path().extension() != ".log") continue;
    std::ifstream in(f.path());
    const std::string log((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    std::size_t entries = 0;
    std::size_t digests = 0;
    for (std::size_t at = 0;
         (at = log.find("<entry ", at)) != std::string::npos; ++at) {
      ++entries;
      const std::size_t end = log.find('>', at);
      if (log.substr(at, end - at).find(" digest=") != std::string::npos) {
        ++digests;
      }
    }
    EXPECT_EQ(entries, digests) << f.path();
  }
}

TEST_F(RepoLookupTest, RefreshHashesARecordOfAnOlderBinary) {
  ExperimentRepository reader(dir_);
  ExperimentRepository writer(dir_);
  writer.store(make_small(StorageKind::Dense, "old"), RepoFormat::Binary);
  // Re-append the entry's record the way an older binary wrote it: no
  // digest, no bytes.  Replay replaces the entry by id.
  RepoEntry old = writer.entries().front();
  old.digest.reset();
  old.bytes = 0;
  append_record(writer, old);
  ASSERT_TRUE(reader.refresh());
  const std::optional<RepoEntry> entry = reader.find("old");
  ASSERT_TRUE(entry.has_value());
  ASSERT_TRUE(entry->digest.has_value());
  const std::uint64_t digest = digest_file(dir_ / entry->file);
  EXPECT_EQ(*entry->digest, digest);
  EXPECT_EQ(entry->bytes, std::filesystem::file_size(dir_ / entry->file));

  // migrate() records the digest it computed: with the file out of
  // reach, a fresh handle still knows it.
  EXPECT_EQ(reader.migrate(), 1u);
  const std::filesystem::path file = dir_ / entry->file;
  std::filesystem::rename(file, dir_ / "aside");
  {
    ExperimentRepository reopened(dir_);
    const std::optional<RepoEntry> recorded = reopened.find("old");
    ASSERT_TRUE(recorded.has_value());
    ASSERT_TRUE(recorded->digest.has_value());
    EXPECT_EQ(*recorded->digest, digest);
  }
  std::filesystem::rename(dir_ / "aside", file);
}

TEST_F(RepoLookupTest, FullReloadKeepsDigestsComputedOnRead) {
  ExperimentRepository writer(dir_);
  std::vector<RepoEntry> old;
  for (const char* name : {"old-a", "old-b", "old-c"}) {
    writer.store(make_small(StorageKind::Dense, name), RepoFormat::Binary);
    old.push_back(*writer.find(name));
    old.back().digest.reset();
    old.back().bytes = 0;
    append_record(writer, old.back());  // as an older binary wrote it
  }
  ExperimentRepository reader(dir_);  // hashes the three files
  std::vector<std::uint64_t> digests;
  for (const RepoEntry& e : old) {
    const std::optional<RepoEntry> entry = reader.find(e.id);
    ASSERT_TRUE(entry.has_value() && entry->digest.has_value()) << e.id;
    digests.push_back(*entry->digest);
  }
  // Another process seals its active segment: the MANIFEST changes and
  // the reader replays every segment, the records without a digest too.
  const auto seal = [&] {
    const std::vector<std::string>& names =
        writer.segmented_index()->segment_names();
    const std::size_t segments = names.size();
    for (int k = 0; names.size() == segments; ++k) {
      writer.store(make_small(StorageKind::Dense, "fill" + std::to_string(k)),
                   RepoFormat::Binary);
    }
  };
  // With the files out of reach, only the digests remembered from the
  // first read can fill the reloaded records.
  for (const RepoEntry& e : old) {
    std::filesystem::rename(dir_ / e.file, dir_ / (e.id + ".aside"));
  }
  seal();
  ASSERT_TRUE(reader.refresh());
  for (std::size_t i = 0; i < old.size(); ++i) {
    const std::optional<RepoEntry> entry = reader.find(old[i].id);
    ASSERT_TRUE(entry.has_value() && entry->digest.has_value()) << old[i].id;
    EXPECT_EQ(*entry->digest, digests[i]) << old[i].id;
    std::filesystem::rename(dir_ / (old[i].id + ".aside"), dir_ / old[i].file);
  }
  // A second reload with the files in place neither hashes them again
  // nor lists them twice: migrate() records each digest once.
  seal();
  ASSERT_TRUE(reader.refresh());
  EXPECT_EQ(reader.migrate(), old.size());
}

}  // namespace
}  // namespace cube
