#include "io/repository.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "algebra/operators.hpp"
#include "common/error.hpp"
#include "common/digest.hpp"
#include "io/binary_format.hpp"
#include "io/cube_format.hpp"
#include "obs/metrics.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_repo_" + std::string(
                               ::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(RepositoryTest, StoreAndLoadRoundTrip) {
  ExperimentRepository repo(dir_);
  Experiment e = make_small();
  e.severity().set(0, 0, 0, 77.0);
  const std::string id = repo.store(e);
  const Experiment back = repo.load(id);
  EXPECT_EQ(back.name(), "small");
  EXPECT_DOUBLE_EQ(back.severity().get(0, 0, 0), 77.0);
}

TEST_F(RepositoryTest, IdsDerivedFromNamesAndUniquified) {
  ExperimentRepository repo(dir_);
  const std::string id1 = repo.store(make_small());
  const std::string id2 = repo.store(make_small());
  EXPECT_EQ(id1, "small");
  EXPECT_EQ(id2, "small-2");
  EXPECT_EQ(repo.entries().size(), 2u);
}

TEST_F(RepositoryTest, NamesAreSanitizedForFiles) {
  ExperimentRepository repo(dir_);
  Experiment e = make_small();
  e.set_name("diff(a / b, \"c\")");
  const std::string id = repo.store(e);
  EXPECT_EQ(id.find('/'), std::string::npos);
  EXPECT_NO_THROW((void)repo.load(id));
}

TEST_F(RepositoryTest, PersistsAcrossInstances) {
  {
    ExperimentRepository repo(dir_);
    repo.store(make_small());
  }
  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 1u);
  EXPECT_EQ(reopened.entries()[0].id, "small");
  EXPECT_NO_THROW((void)reopened.load("small"));
}

TEST_F(RepositoryTest, BinaryFormatEntries) {
  ExperimentRepository repo(dir_);
  const std::string id = repo.store(make_small(), RepoFormat::Binary);
  EXPECT_EQ(repo.entries()[0].format, RepoFormat::Binary);
  EXPECT_NE(repo.entries()[0].file.find(".cubx"), std::string::npos);
  const Experiment back = repo.load(id);
  EXPECT_EQ(back.name(), "small");
  // Format survives reopening.
  ExperimentRepository reopened(dir_);
  EXPECT_EQ(reopened.entries()[0].format, RepoFormat::Binary);
}

TEST_F(RepositoryTest, QueryByAttribute) {
  ExperimentRepository repo(dir_);
  Experiment a = make_small(StorageKind::Dense, "a");
  a.set_attribute("app", "pescan");
  a.set_attribute("config", "barriers");
  Experiment b = make_small(StorageKind::Dense, "b");
  b.set_attribute("app", "pescan");
  b.set_attribute("config", "nobarriers");
  Experiment c = make_small(StorageKind::Dense, "c");
  c.set_attribute("app", "sweep3d");
  repo.store(a);
  repo.store(b);
  repo.store(c);

  EXPECT_EQ(repo.query("app", "pescan").size(), 2u);
  EXPECT_EQ(repo.query("config", "barriers").size(), 1u);
  EXPECT_TRUE(repo.query("app", "nope").empty());
}

TEST_F(RepositoryTest, DerivedExperimentsQueryableByKind) {
  ExperimentRepository repo(dir_);
  const Experiment a = make_small(StorageKind::Dense, "a");
  const Experiment b = make_small(StorageKind::Dense, "b");
  repo.store(a);
  repo.store(b);
  repo.store(difference(a, b));
  const auto derived = repo.query("cube::kind", "derived");
  ASSERT_EQ(derived.size(), 1u);
  EXPECT_NE(derived[0].attributes.at("cube::provenance").find("difference"),
            std::string::npos);
}

TEST_F(RepositoryTest, LoadAllSeriesFeedsOperators) {
  ExperimentRepository repo(dir_);
  for (int i = 0; i < 3; ++i) {
    Experiment e = make_small(StorageKind::Dense, "run");
    e.set_attribute("series", "noise");
    e.severity().set(0, 0, 0, static_cast<double>(i));
    repo.store(e);
  }
  const std::vector<Experiment> series =
      repo.load_all(repo.query("series", "noise"));
  ASSERT_EQ(series.size(), 3u);
  std::vector<const Experiment*> ptrs;
  for (const auto& e : series) ptrs.push_back(&e);
  const Experiment m = mean(ptrs);
  EXPECT_DOUBLE_EQ(m.severity().get(0, 0, 0), 1.0);
}

TEST_F(RepositoryTest, RemoveDeletesEntryAndFile) {
  ExperimentRepository repo(dir_);
  const std::string id = repo.store(make_small());
  const std::filesystem::path file = dir_ / repo.entries()[0].file;
  ASSERT_TRUE(std::filesystem::exists(file));
  repo.remove(id);
  EXPECT_TRUE(repo.entries().empty());
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_THROW((void)repo.load(id), Error);
}

TEST_F(RepositoryTest, UnknownIdsThrow) {
  ExperimentRepository repo(dir_);
  EXPECT_THROW((void)repo.load("nope"), Error);
  EXPECT_THROW(repo.remove("nope"), Error);
}

TEST_F(RepositoryTest, CorruptIndexRejected) {
  {
    ExperimentRepository repo(dir_, RepoLayout::Legacy);
    repo.store(make_small());
  }
  {
    std::ofstream out(dir_ / "index.xml");
    out << "<notarepo/>";
  }
  EXPECT_THROW(ExperimentRepository{dir_}, Error);
}

TEST_F(RepositoryTest, CorruptManifestRejected) {
  {
    ExperimentRepository repo(dir_);
    repo.store(make_small());
  }
  {
    std::ofstream out(dir_ / "index" / "MANIFEST");
    out << "not a manifest\n";
  }
  EXPECT_THROW(ExperimentRepository{dir_}, Error);
}

TEST_F(RepositoryTest, IndexWritesLeaveNoTempFileBehind) {
  ExperimentRepository repo(dir_);
  repo.store(make_small());
  repo.store(make_small(StorageKind::Dense, "second"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "index" / "MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index.xml"));
  for (const auto& f :
       std::filesystem::directory_iterator(dir_ / "index")) {
    EXPECT_NE(f.path().extension(), ".tmp") << f.path();
  }
}

std::size_t count_blobs(const std::filesystem::path& dir) {
  std::size_t n = 0;
  if (!std::filesystem::is_directory(dir / "meta")) return 0;
  // Recursive: blobs live flat (legacy) or one shard level down.
  for (const auto& f :
       std::filesystem::recursive_directory_iterator(dir / "meta")) {
    if (f.path().extension() == ".meta") ++n;
  }
  return n;
}

TEST_F(RepositoryTest, SeriesStoresExactlyOneMetadataBlob) {
  ExperimentRepository repo(dir_);
  for (int i = 0; i < 32; ++i) {
    Experiment e = make_small(StorageKind::Dense, "run");
    e.set_attribute("series", "a11");
    e.severity().set(0, 0, 0, static_cast<double>(i));
    repo.store(e, i % 2 == 0 ? RepoFormat::Xml : RepoFormat::Binary);
  }
  EXPECT_EQ(count_blobs(dir_), 1u);
  for (const RepoEntry& entry : repo.entries()) {
    EXPECT_FALSE(entry.meta.empty());
  }
}

TEST_F(RepositoryTest, LoadedSeriesSharesOneMetadataInstance) {
  {
    ExperimentRepository repo(dir_);
    for (int i = 0; i < 4; ++i) {
      repo.store(make_small(StorageKind::Dense, "run"),
                 RepoFormat::Binary);
    }
  }
  // A fresh instance proves sharing comes from the interner, not from the
  // store-time cache.
  ExperimentRepository reopened(dir_);
  const std::vector<Experiment> series =
      reopened.load_all(reopened.entries());
  ASSERT_EQ(series.size(), 4u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_EQ(series[i].metadata_ptr().get(),
              series[0].metadata_ptr().get());
  }
  EXPECT_EQ(reopened.interner().size(), 1u);
}

TEST_F(RepositoryTest, LegacyInlineRepositoryLoadsUnchanged) {
  // The pre-blob layout: inline-metadata files, no meta attribute, no
  // meta/ directory.
  std::filesystem::create_directories(dir_);
  write_cube_xml_file(make_small(), (dir_ / "run.cube").string());
  {
    std::ofstream out(dir_ / "index.xml");
    out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
           "<repository>"
           "<entry id=\"run\" file=\"run.cube\" format=\"xml\"/>"
           "</repository>\n";
  }
  ExperimentRepository repo(dir_);
  ASSERT_EQ(repo.entries().size(), 1u);
  EXPECT_TRUE(repo.entries()[0].meta.empty());
  const Experiment back = repo.load("run");
  EXPECT_EQ(back.name(), "small");
  EXPECT_DOUBLE_EQ(back.severity().get(0, 0, 0),
                   make_small().severity().get(0, 0, 0));
}

TEST_F(RepositoryTest, MigrateRewritesLegacyEntriesToBlobLayout) {
  std::filesystem::create_directories(dir_);
  write_cube_xml_file(make_small(), (dir_ / "run.cube").string());
  {
    std::ofstream out(dir_ / "index.xml");
    out << "<repository>"
           "<entry id=\"run\" file=\"run.cube\" format=\"xml\"/>"
           "</repository>";
  }
  ExperimentRepository repo(dir_);
  EXPECT_EQ(repo.layout(), RepoLayout::Legacy);
  // One count for the inline->blob rewrite, one for the relocation into
  // the sharded exp/<ab>/ layout.
  EXPECT_EQ(repo.migrate(), 2u);
  EXPECT_EQ(repo.migrate(), 0u);  // idempotent
  EXPECT_EQ(repo.layout(), RepoLayout::Sharded);
  ASSERT_FALSE(repo.entries()[0].meta.empty());
  EXPECT_EQ(count_blobs(dir_), 1u);
  // index.xml is gone; the segmented index took over.
  EXPECT_FALSE(std::filesystem::exists(dir_ / "index.xml"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "index" / "MANIFEST"));
  {
    const std::filesystem::path moved = dir_ / repo.entries()[0].file;
    EXPECT_NE(repo.entries()[0].file.find("exp/"), std::string::npos);
    std::ifstream in(moved);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("<metaref"), std::string::npos);
  }
  // The migrated layout persists and still loads.
  ExperimentRepository reopened(dir_);
  EXPECT_EQ(reopened.layout(), RepoLayout::Sharded);
  EXPECT_FALSE(reopened.entries()[0].meta.empty());
  EXPECT_EQ(reopened.load("run").name(), "small");
}

TEST_F(RepositoryTest, RemoveKeepsBlobWhileReferencedThenDeletesIt) {
  ExperimentRepository repo(dir_);
  const std::string id1 = repo.store(make_small(StorageKind::Dense, "a"));
  const std::string id2 = repo.store(make_small(StorageKind::Dense, "b"));
  ASSERT_EQ(count_blobs(dir_), 1u);
  repo.remove(id1);
  EXPECT_EQ(count_blobs(dir_), 1u);  // still referenced by id2
  repo.remove(id2);
  EXPECT_EQ(count_blobs(dir_), 0u);  // last referent gone
}

TEST_F(RepositoryTest, OrphanBlobsDetectedAndRemovable) {
  ExperimentRepository repo(dir_);
  repo.store(make_small());
  ASSERT_EQ(count_blobs(dir_), 1u);
  {
    // A blob left behind by a crash between blob write and index write.
    std::ofstream out(dir_ / "meta" / "00000000deadbeef.meta");
    out << "stray";
  }
  const std::vector<std::string> orphans = repo.orphan_blobs();
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_NE(orphans[0].find("00000000deadbeef.meta"), std::string::npos);
  EXPECT_EQ(repo.remove_orphan_blobs(), 1u);
  EXPECT_TRUE(repo.orphan_blobs().empty());
  EXPECT_EQ(count_blobs(dir_), 1u);  // the referenced blob survives
}

TEST_F(RepositoryTest, SpecialCharacterAttributesSurviveTheIndex) {
  const std::string value = R"(a.out <in >out 2>&1 "quoted" & 'single')";
  {
    ExperimentRepository repo(dir_);
    Experiment e = make_small();
    e.set_attribute("cmd", value);
    repo.store(e);
  }
  ExperimentRepository reopened(dir_);
  ASSERT_EQ(reopened.entries().size(), 1u);
  EXPECT_EQ(reopened.entries()[0].attributes.at("cmd"), value);
  EXPECT_EQ(reopened.query("cmd", value).size(), 1u);
  // ... and through the experiment file itself.
  EXPECT_EQ(reopened.load("small").attribute("cmd"), value);
}

// Daemon + CLI co-existence (docs/SERVER.md): a second ExperimentRepository
// over the same directory stands in for another process appending to the
// store; a running reader must see its rows after refresh().
TEST_F(RepositoryTest, RefreshPicksUpConcurrentlyStoredExperiments) {
  ExperimentRepository reader(dir_);
  const std::uint64_t gen0 = reader.generation();
  EXPECT_FALSE(reader.refresh());  // nothing changed yet
  EXPECT_EQ(reader.generation(), gen0);

  ExperimentRepository writer(dir_);
  Experiment e = make_small();
  e.severity().set(0, 0, 0, 13.0);
  const std::string id = writer.store(e);

  // The reader's in-memory index predates the store...
  EXPECT_TRUE(reader.entries_snapshot().empty());
  EXPECT_THROW((void)reader.load(id), Error);
  // ...and refresh() brings the appended row in.
  EXPECT_TRUE(reader.refresh());
  EXPECT_GT(reader.generation(), gen0);
  ASSERT_EQ(reader.entries_snapshot().size(), 1u);
  EXPECT_EQ(reader.entries_snapshot()[0].id, id);
  EXPECT_DOUBLE_EQ(reader.load(id).severity().get(0, 0, 0), 13.0);

  // Idempotent: the same on-disk index refreshes to false.
  EXPECT_FALSE(reader.refresh());
}

TEST_F(RepositoryTest, RefreshSeesRemovalsToo) {
  ExperimentRepository writer(dir_);
  const std::string id = writer.store(make_small());
  ExperimentRepository reader(dir_);
  ASSERT_EQ(reader.entries_snapshot().size(), 1u);
  writer.remove(id);
  EXPECT_TRUE(reader.refresh());
  EXPECT_TRUE(reader.entries_snapshot().empty());
}

TEST_F(RepositoryTest, ConcurrentStoresAndSnapshotsAreSafe) {
  // One shared instance, many threads storing and snapshotting at once —
  // the daemon's world.  Every id must come back unique and loadable.
  ExperimentRepository repo(dir_);
  constexpr int kThreads = 4;
  constexpr int kEach = 8;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kEach; ++k) {
        Experiment e = make_small();
        e.set_name("run-" + std::to_string(t));
        ids[t].push_back(repo.store(e));
        (void)repo.entries_snapshot();
        (void)repo.query("cube::name", "run-" + std::to_string(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::string> unique;
  for (const auto& per_thread : ids) {
    for (const std::string& id : per_thread) {
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
      EXPECT_NO_THROW((void)repo.load(id));
    }
  }
  EXPECT_EQ(repo.entries_snapshot().size(),
            static_cast<std::size_t>(kThreads * kEach));
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST_F(RepositoryTest, StoreWritesTheBytesItRecords) {
  ExperimentRepository repo(dir_);
  for (const RepoFormat format :
       {RepoFormat::Xml, RepoFormat::Binary, RepoFormat::Columnar}) {
    const std::string id = repo.store(make_small(), format);
    const RepoEntry entry = *repo.find(id);
    const std::string bytes = file_bytes(dir_ / entry.file);
    EXPECT_EQ(entry.digest, fnv1a(bytes));
    EXPECT_EQ(entry.bytes, bytes.size());
    if (format == RepoFormat::Binary) {
      EXPECT_EQ(bytes, to_cube_binary_ref(make_small()));
    }
  }
  // Bytes the caller encoded are written as they are.
  const auto encoded =
      std::make_shared<const std::string>(to_cube_binary_ref(make_small()));
  const RepoEntry entry =
      *repo.find(repo.store(make_small(), RepoFormat::Binary, encoded));
  EXPECT_EQ(file_bytes(dir_ / entry.file), *encoded);
  EXPECT_EQ(entry.digest, fnv1a(*encoded));
}

TEST_F(RepositoryTest, StoringAKnownMetadataDigestEncodesNoBlob) {
  ExperimentRepository repo(dir_);
  obs::Counter& meta_written = obs::MetricsRegistry::global().counter(
      "io.meta.bytes_written", obs::SampleUnit::Bytes);
  const std::uint64_t before = meta_written.value();
  (void)repo.store(make_small(), RepoFormat::Binary);
  const std::uint64_t after_first = meta_written.value();
  EXPECT_GT(after_first, before);
  Experiment second = make_small();
  second.severity().set(0, 0, 0, 9.0);
  (void)repo.store(second, RepoFormat::Xml);
  EXPECT_EQ(meta_written.value(), after_first);
  EXPECT_EQ(count_blobs(dir_), 1u);
}

TEST_F(RepositoryTest, CollidingNamesGetTheLowestFreeSuffix) {
  // The per-name suffix hint must give exactly the ids of a search from
  // suffix 2, including after removals below the hint.
  ExperimentRepository repo(dir_);
  std::set<std::string> live;
  const auto probing_rule = [&] {
    if (live.count("run") == 0) return std::string("run");
    for (std::size_t k = 2;; ++k) {
      std::string id = "run-" + std::to_string(k);
      if (live.count(id) == 0) return id;
    }
  };
  const Experiment e = make_small(StorageKind::Dense, "run");
  const auto store_and_check = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::string want = probing_rule();
      const std::string got = repo.store(e, RepoFormat::Binary);
      ASSERT_EQ(got, want);
      live.insert(got);
    }
  };
  store_and_check(1000);
  for (const char* id : {"run-500", "run-17", "run", "run-999", "run-2"}) {
    repo.remove(id);
    live.erase(id);
  }
  store_and_check(1000);
  repo.remove("run-1500");
  live.erase("run-1500");
  store_and_check(3);
  EXPECT_EQ(live.size(), repo.entries().size());
}

TEST_F(RepositoryTest, ConcurrentStoresAndRemovesOfOneName) {
  // Stores encode before taking the lock; interleaved with removals of
  // the same name, every id must still be unique and every file must be
  // the bytes its experiment encodes to.
  ExperimentRepository repo(dir_);
  constexpr int kThreads = 4;
  constexpr int kEach = 12;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::pair<std::string,
                                    std::shared_ptr<const std::string>>>>
      stored(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kEach; ++k) {
        Experiment e = make_small(StorageKind::Dense, "run");
        e.severity().set(0, 0, 0, static_cast<double>(t * 100 + k));
        // A third of the stores write bytes this thread encoded itself,
        // a third let store() encode, a third are columnar and removed.
        std::shared_ptr<const std::string> bytes =
            std::make_shared<const std::string>(to_cube_binary_ref(e));
        const std::string id =
            k % 3 == 0   ? repo.store(e, RepoFormat::Binary, bytes)
            : k % 3 == 1 ? repo.store(e, RepoFormat::Binary)
                         : repo.store(e, RepoFormat::Columnar);
        if (k % 3 == 2) {
          repo.remove(id);
        } else {
          stored[t].emplace_back(id, std::move(bytes));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::string> unique;
  for (const auto& per_thread : stored) {
    for (const auto& [id, bytes] : per_thread) {
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
      const std::optional<RepoEntry> entry = repo.find(id);
      ASSERT_TRUE(entry.has_value()) << id;
      EXPECT_EQ(*bytes, file_bytes(dir_ / entry->file)) << id;
    }
  }
  EXPECT_EQ(repo.entries_snapshot().size(), unique.size());
}

}  // namespace
}  // namespace cube
