// Planning runs on the digests the index records at store time: it opens
// no operand file, and the keys it derives are the ones hashing the files
// gave — so a repository written before digests were recorded keeps every
// cache key.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "io/cube_format.hpp"
#include "io/repository.hpp"
#include "query/planner.hpp"
#include "testutil.hpp"

namespace cube::query {
namespace {

using cube::testing::make_small;

class RecordedDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cube_digests_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A legacy-layout repository as the binary before recorded digests
  /// wrote it: three blob-backed entries (xml, binary, columnar) whose
  /// index records carry no digest, plus one inline-metadata entry.
  void write_legacy_fixture() const {
    {
      ExperimentRepository repo(dir_, RepoLayout::Legacy);
      repo.store(make_small(StorageKind::Dense, "a"), RepoFormat::Xml);
      Experiment b = make_small(StorageKind::Dense, "b");
      b.severity().set(0, 0, 0, 7.0);
      repo.store(b, RepoFormat::Binary);
      repo.store(make_small(StorageKind::Sparse, "c"), RepoFormat::Columnar);
    }
    write_cube_xml_file(make_small(StorageKind::Dense, "d"),
                        (dir_ / "d.cube").string());
    std::stringstream buffer;
    buffer << std::ifstream(dir_ / "index.xml").rdbuf();
    std::string xml = std::regex_replace(
        buffer.str(), std::regex(" digest=\"[0-9a-f]*\" bytes=\"[0-9]*\""),
        "");
    xml.replace(xml.find("</repository>"), 13,
                "<entry id=\"d\" file=\"d.cube\" format=\"xml\"/>"
                "</repository>");
    std::ofstream(dir_ / "index.xml", std::ios::trunc) << xml;
  }

  static std::vector<std::string> keys_and_canonicals(const QueryPlan& plan) {
    std::vector<std::string> out;
    for (const PlanNode& node : plan.nodes) {
      out.push_back(digest_hex(node.key) + " " + node.canonical);
    }
    return out;
  }

  std::filesystem::path dir_;
};

constexpr const char* kDiff = "diff(id(a), id(b))";
constexpr const char* kMean = "mean(id(a), id(b), id(c), id(d))";

TEST_F(RecordedDigestTest, LegacyIndexKeepsItsCacheKeys) {
  write_legacy_fixture();
  ExperimentRepository repo(dir_);
  // Keys the planner derived by hashing every operand file before the
  // index recorded digests, for this exact fixture.
  const std::vector<std::string> diff_golden = {
      "a46478b5de46c99e id:a@737e2c5e10fe11b2",
      "666421b867654ac1 id:b@b87121cdd1895424",
      "676dd0b8ee757694 diff(id:a@737e2c5e10fe11b2, id:b@b87121cdd1895424)",
  };
  const std::vector<std::string> mean_golden = {
      "a46478b5de46c99e id:a@737e2c5e10fe11b2",
      "666421b867654ac1 id:b@b87121cdd1895424",
      "849019f4f73e7055 id:c@2fb1dee4019e68ae",
      "f10b140e29da9a82 id:d@f10b140e29da9a82",
      "e05ddf7f565d4ba4 mean(id:a@737e2c5e10fe11b2, id:b@b87121cdd1895424, "
      "id:c@2fb1dee4019e68ae, id:d@f10b140e29da9a82)",
  };
  EXPECT_EQ(keys_and_canonicals(plan_query(*parse_query(kDiff), repo)),
            diff_golden);
  EXPECT_EQ(keys_and_canonicals(plan_query(*parse_query(kMean), repo)),
            mean_golden);

  // Migrating relocates the blob-backed files byte for byte: their keys
  // hold.  The inline entry is rewritten blob-backed, so its key changes
  // exactly as before recorded digests.
  repo.migrate();
  EXPECT_EQ(keys_and_canonicals(plan_query(*parse_query(kDiff), repo)),
            diff_golden);
  ExperimentRepository reopened(dir_);
  EXPECT_EQ(keys_and_canonicals(plan_query(*parse_query(kDiff), reopened)),
            diff_golden);
  const QueryPlan mean = plan_query(*parse_query(kMean), reopened);
  for (const PlanNode& node : mean.nodes) {
    if (node.kind != PlanNode::Kind::Load) continue;
    const std::filesystem::path path = reopened.directory() / node.operand.file;
    EXPECT_EQ(node.operand.digest, digest_file(path)) << node.operand.id;
    EXPECT_EQ(node.key, Fnv1a()
                            .update(digest_file(path))
                            .update(node.operand.meta_digest)
                            .value())
        << node.operand.id;
  }
}

TEST_F(RecordedDigestTest, PlanningOpensNoOperandFile) {
  ExperimentRepository repo(dir_);
  std::vector<std::string> ids;
  const RepoFormat formats[] = {RepoFormat::Xml, RepoFormat::Binary,
                                RepoFormat::Columnar};
  for (int i = 0; i < 6; ++i) {
    Experiment e = make_small(i % 2 == 0 ? StorageKind::Dense
                                         : StorageKind::Sparse,
                              "run-" + std::to_string(i));
    e.severity().set(0, 0, 0, static_cast<double>(i));
    e.set_attribute("series", i < 3 ? "low" : "high");
    ids.push_back(repo.store(e, formats[i % 3]));
  }
  const std::vector<std::string> queries = {
      "diff(id(run-0), id(run-1))",
      "mean(attr(series=low))",
      "diff(mean(series(run)), max(attr(series=high), id(run-2)))",
      "merge(min(attr(series=low)), run-5)",
  };
  std::vector<std::vector<std::string>> before;
  for (const std::string& q : queries) {
    before.push_back(keys_and_canonicals(plan_query(*parse_query(q), repo)));
  }
  for (const RepoEntry& entry : repo.entries_snapshot()) {
    ASSERT_TRUE(std::filesystem::remove(dir_ / entry.file)) << entry.file;
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(keys_and_canonicals(plan_query(*parse_query(queries[i]), repo)),
              before[i])
        << queries[i];
  }
}

}  // namespace
}  // namespace cube::query
