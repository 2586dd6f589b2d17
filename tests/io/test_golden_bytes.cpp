// Byte identity of the binary encoders: CUBEBIN1, CUBEBIN2 and CUBEMET1
// bytes must equal the committed goldens under tests/golden/, which an
// earlier stream-based encoder wrote for the inputs in golden_inputs.hpp.
// A stored file, a wire body and a metadata blob written by one version
// must be the bytes every other version writes for the same experiment:
// recorded file digests and cache keys depend on it.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "golden_inputs.hpp"
#include "io/binary_format.hpp"

namespace cube {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(CUBE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing golden " << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(GoldenBytes, FileFormatsMatchTheCommittedEncodings) {
  for (const testing::GoldenFile& file : testing::golden_format_files()) {
    EXPECT_EQ(file.bytes, read_golden(file.name)) << file.name;
  }
}

TEST(GoldenBytes, GoldenStreamsDecodeToTheirInputs) {
  const Experiment dense = testing::golden_experiment(StorageKind::Dense);
  const Experiment back =
      read_cube_binary(read_golden("bin1_sparse.bin"), StorageKind::Sparse);
  EXPECT_EQ(back.severity().nonzero_count(),
            dense.severity().nonzero_count());
  EXPECT_EQ(back.attribute("site"), dense.attribute("site"));
  EXPECT_TRUE(std::isnan(back.severity().get(0, 0, 0)));
  EXPECT_EQ(back.severity().get(0, 1, 2), 0.0);
  EXPECT_EQ(read_cube_binary(read_golden("bin1_empty.bin"))
                .severity()
                .nonzero_count(),
            0u);
}

}  // namespace
}  // namespace cube
