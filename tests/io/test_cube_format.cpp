#include "io/cube_format.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "testutil.hpp"

namespace cube {
namespace {

using cube::testing::make_small;

void expect_equal_experiments(const Experiment& a, const Experiment& b) {
  const Metadata& ma = a.metadata();
  const Metadata& mb = b.metadata();
  ASSERT_EQ(mb.num_metrics(), ma.num_metrics());
  ASSERT_EQ(mb.num_cnodes(), ma.num_cnodes());
  ASSERT_EQ(mb.num_threads(), ma.num_threads());
  for (std::size_t i = 0; i < ma.num_metrics(); ++i) {
    EXPECT_EQ(mb.metrics()[i]->unique_name(), ma.metrics()[i]->unique_name());
    EXPECT_EQ(mb.metrics()[i]->display_name(),
              ma.metrics()[i]->display_name());
    EXPECT_EQ(mb.metrics()[i]->unit(), ma.metrics()[i]->unit());
    const bool pa = ma.metrics()[i]->parent() != nullptr;
    const bool pb = mb.metrics()[i]->parent() != nullptr;
    EXPECT_EQ(pa, pb);
  }
  for (std::size_t i = 0; i < ma.num_cnodes(); ++i) {
    EXPECT_EQ(mb.cnodes()[i]->callee().name(),
              ma.cnodes()[i]->callee().name());
    EXPECT_EQ(mb.cnodes()[i]->path(), ma.cnodes()[i]->path());
  }
  for (std::size_t i = 0; i < ma.num_threads(); ++i) {
    EXPECT_EQ(mb.threads()[i]->rank(), ma.threads()[i]->rank());
    EXPECT_EQ(mb.threads()[i]->thread_id(), ma.threads()[i]->thread_id());
  }
  for (MetricIndex m = 0; m < ma.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < ma.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < ma.num_threads(); ++t) {
        EXPECT_DOUBLE_EQ(b.severity().get(m, c, t),
                         a.severity().get(m, c, t));
      }
    }
  }
  EXPECT_EQ(b.attributes(), a.attributes());
}

TEST(CubeFormat, RoundTripPreservesEverything) {
  Experiment e = make_small();
  e.set_attribute("custom", "value with <specials> & \"quotes\"");
  const Experiment back = read_cube_xml(to_cube_xml(e));
  expect_equal_experiments(e, back);
}

TEST(CubeFormat, RoundTripSparseStorage) {
  const Experiment e = make_small(StorageKind::Sparse);
  const Experiment back =
      read_cube_xml(to_cube_xml(e), StorageKind::Sparse);
  EXPECT_EQ(back.severity().kind(), StorageKind::Sparse);
  expect_equal_experiments(e, back);
}

TEST(CubeFormat, NegativeSeveritiesSurvive) {
  Experiment e = make_small();
  e.severity().set(0, 0, 0, -12.5);
  const Experiment back = read_cube_xml(to_cube_xml(e));
  EXPECT_DOUBLE_EQ(back.severity().get(0, 0, 0), -12.5);
}

TEST(CubeFormat, FullPrecisionDoublesSurvive) {
  Experiment e = make_small();
  const double value = 0.1 + 0.2 + 1e-17;
  e.severity().set(1, 1, 1, value);
  const Experiment back = read_cube_xml(to_cube_xml(e));
  EXPECT_DOUBLE_EQ(back.severity().get(1, 1, 1), value);
}

TEST(CubeFormat, AllZeroExperimentOmitsSeverityRows) {
  auto md = make_small().metadata().clone();
  const Experiment zero(std::move(md));
  const std::string xml = to_cube_xml(zero);
  EXPECT_EQ(xml.find("<matrix"), std::string::npos);
  const Experiment back = read_cube_xml(xml);
  EXPECT_EQ(back.severity().nonzero_count(), 0u);
}

TEST(CubeFormat, TopologyCoordsRoundTrip) {
  auto md = make_small().metadata().clone();
  md->processes()[1]->set_coords({2, -1, 0});
  const Experiment e(std::move(md));
  const Experiment back = read_cube_xml(to_cube_xml(e));
  ASSERT_TRUE(back.metadata().processes()[1]->coords().has_value());
  EXPECT_EQ(*back.metadata().processes()[1]->coords(),
            (std::vector<long>{2, -1, 0}));
}

TEST(CubeFormat, FileRoundTrip) {
  const Experiment e = make_small();
  const std::string path = ::testing::TempDir() + "/cube_format_test.cube";
  write_cube_xml_file(e, path);
  const Experiment back = read_cube_xml_file(path);
  expect_equal_experiments(e, back);
  std::remove(path.c_str());
}

TEST(CubeFormat, MissingFileThrows) {
  EXPECT_THROW((void)read_cube_xml_file("/nonexistent/nope.cube"), IoError);
}

TEST(CubeFormat, WrongDocumentElementThrows) {
  EXPECT_THROW((void)read_cube_xml("<notcube></notcube>"), Error);
}

TEST(CubeFormat, MissingSectionsThrow) {
  EXPECT_THROW((void)read_cube_xml("<cube></cube>"), Error);
  EXPECT_THROW((void)read_cube_xml("<cube><metrics/></cube>"), Error);
}

TEST(CubeFormat, UnknownSeverityReferencesThrow) {
  Experiment e = make_small();
  std::string xml = to_cube_xml(e);
  // Point a matrix at a metric id that does not exist.
  const auto pos = xml.find("<matrix metric=\"0\"");
  ASSERT_NE(pos, std::string::npos);
  xml.replace(pos, 18, "<matrix metric=\"99\"");
  EXPECT_THROW((void)read_cube_xml(xml), Error);
}

TEST(CubeFormat, TooManySeverityValuesThrow) {
  const std::string xml = R"(<cube version="1.0">
    <metrics><metric id="0"><disp_name>T</disp_name><uniq_name>t</uniq_name>
      <uom>sec</uom></metric></metrics>
    <program>
      <region id="0" name="main" mod="a.c" begin="1" end="2"/>
      <csite id="0" file="a.c" line="1" callee="0"/>
      <cnode id="0" csite="0"/>
    </program>
    <system><machine id="0" name="m"><node id="0" name="n">
      <process id="0" name="p" rank="0"><thread id="0" name="t" tid="0"/>
      </process></node></machine></system>
    <severity><matrix metric="0"><row cnode="0">1 2 3</row></matrix>
    </severity></cube>)";
  EXPECT_THROW((void)read_cube_xml(xml), Error);
}

TEST(CubeFormat, DerivedExperimentRoundTripsAsDerived) {
  Experiment e = make_small();
  e.mark_derived("difference(x, y)");
  const Experiment back = read_cube_xml(to_cube_xml(e));
  EXPECT_EQ(back.kind(), ExperimentKind::Derived);
  EXPECT_EQ(back.provenance(), "difference(x, y)");
}

TEST(CubeFormat, ReaderValidatesModelConstraints) {
  // A process without threads violates the data model.
  const std::string xml = R"(<cube version="1.0">
    <metrics><metric id="0"><disp_name>T</disp_name><uniq_name>t</uniq_name>
      <uom>sec</uom></metric></metrics>
    <program>
      <region id="0" name="main" mod="a.c" begin="1" end="2"/>
      <csite id="0" file="a.c" line="1" callee="0"/>
      <cnode id="0" csite="0"/>
    </program>
    <system><machine id="0" name="m"><node id="0" name="n">
      <process id="0" name="p" rank="0"/></node></machine></system>
    </cube>)";
  EXPECT_THROW((void)read_cube_xml(xml), ValidationError);
}

/// Resolver over a single in-memory instance, keyed by its digest.
MetadataResolver single_resolver(std::shared_ptr<const Metadata> md) {
  return [md = std::move(md)](
             std::uint64_t digest) -> std::shared_ptr<const Metadata> {
    return digest == md->digest() ? md : nullptr;
  };
}

TEST(CubeFormatByRef, RoundTripSharesTheResolvedInstance) {
  Experiment e = make_small();
  e.set_attribute("custom", "value");
  const std::string xml = to_cube_xml_ref(e);
  EXPECT_NE(xml.find("<metaref"), std::string::npos);
  // The metadata sections are gone from the document itself.
  EXPECT_EQ(xml.find("<metrics"), std::string::npos);
  EXPECT_EQ(xml.find("<program"), std::string::npos);

  const Experiment back =
      read_cube_xml(xml, StorageKind::Dense, single_resolver(e.metadata_ptr()));
  expect_equal_experiments(e, back);
  EXPECT_EQ(back.metadata_ptr().get(), e.metadata_ptr().get());
}

TEST(CubeFormatByRef, MissingResolverThrows) {
  const Experiment e = make_small();
  EXPECT_THROW((void)read_cube_xml(to_cube_xml_ref(e)), Error);
}

TEST(CubeFormatByRef, UnresolvableDigestThrows) {
  const Experiment e = make_small();
  const auto nothing = [](std::uint64_t) {
    return std::shared_ptr<const Metadata>();
  };
  EXPECT_THROW(
      (void)read_cube_xml(to_cube_xml_ref(e), StorageKind::Dense, nothing),
      Error);
}

TEST(CubeFormatByRef, SpecialCharacterAttributesRoundTrip) {
  // Attribute values exercising every XML escape, through BOTH document
  // forms: ampersands, angle brackets, and both quote kinds.
  Experiment e = make_small();
  e.set_attribute("cmd", "a.out <in >out 2>&1");
  e.set_attribute("note", R"(he said "fast" & 'correct')");
  e.set_attribute("expr", "diff(a<b, c&d)");

  const Experiment inline_back = read_cube_xml(to_cube_xml(e));
  EXPECT_EQ(inline_back.attributes(), e.attributes());

  const Experiment ref_back = read_cube_xml(
      to_cube_xml_ref(e), StorageKind::Dense,
      single_resolver(e.metadata_ptr()));
  EXPECT_EQ(ref_back.attributes(), e.attributes());
}

TEST(CubeFormatByRef, ReadExperimentFileResolvesAgainstMetaDirectory) {
  // The repository layout: <dir>/run.cube referencing <dir>/meta/<digest>.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cube_byref_layout";
  fs::remove_all(dir);
  fs::create_directories(dir / "meta");
  const Experiment e = make_small();
  write_cube_meta_file(
      e.metadata(),
      (dir / "meta" / meta_blob_name(e.metadata().digest())).string());
  std::ofstream(dir / "run.cube") << to_cube_xml_ref(e);

  const Experiment back = read_experiment_file((dir / "run.cube").string());
  expect_equal_experiments(e, back);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cube
