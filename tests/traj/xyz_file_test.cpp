#include "mdtask/traj/xyz_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "mdtask/traj/generators.h"
#include "test_paths.h"

namespace mdtask::traj {
namespace {

class XyzFileTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path(".xyz");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(XyzFileTest, RoundTripWithinFloatPrecision) {
  ProteinTrajectoryParams p;
  p.atoms = 9;
  p.frames = 4;
  const auto t = make_protein_trajectory(p);
  ASSERT_TRUE(write_xyz(path_, t).ok());
  auto back = read_xyz(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().frames(), 4u);
  EXPECT_EQ(back.value().atoms(), 9u);
  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t a = 0; a < 9; ++a) {
      // Text round trip: ostream default precision keeps ~6 digits.
      EXPECT_NEAR(back.value().frame(f)[a].x, t.frame(f)[a].x,
                  2e-4 * (1.0 + std::abs(t.frame(f)[a].x)));
    }
  }
}

TEST_F(XyzFileTest, MissingFileIsIoError) {
  auto r = read_xyz("/no/such/file.xyz");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIoError);
}

TEST_F(XyzFileTest, BadAtomCountLine) {
  std::ofstream(path_) << "banana\ncomment\n";
  auto r = read_xyz(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kFormatError);
}

TEST_F(XyzFileTest, TruncatedFrame) {
  std::ofstream(path_) << "3\ncomment\nC 1 2 3\nC 4 5 6\n";
  EXPECT_FALSE(read_xyz(path_).ok());
}

TEST_F(XyzFileTest, InconsistentAtomCounts) {
  std::ofstream(path_) << "1\nf0\nC 0 0 0\n2\nf1\nC 0 0 0\nC 1 1 1\n";
  auto r = read_xyz(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message().find("inconsistent"), std::string::npos);
}

TEST_F(XyzFileTest, BadCoordinateLine) {
  std::ofstream(path_) << "1\nf0\nC 1 two 3\n";
  EXPECT_FALSE(read_xyz(path_).ok());
}

TEST_F(XyzFileTest, BlankLinesBetweenFramesTolerated) {
  std::ofstream(path_) << "1\nf0\nC 1 2 3\n\n1\nf1\nC 4 5 6\n";
  auto r = read_xyz(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().frames(), 2u);
  EXPECT_FLOAT_EQ(r.value().frame(1)[0].z, 6.0f);
}

TEST_F(XyzFileTest, ElementLabelIsWrittenVerbatim) {
  Trajectory t(1, 1);
  t.frame(0)[0] = {1, 2, 3};
  ASSERT_TRUE(write_xyz(path_, t, "Ar").ok());
  std::ifstream in(path_);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("Ar 1 2 3"), std::string::npos);
}

TEST_F(XyzFileTest, EmptyTrajectoryWritesEmptyFile) {
  ASSERT_TRUE(write_xyz(path_, Trajectory()).ok());
  auto r = read_xyz(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().frames(), 0u);
}

}  // namespace
}  // namespace mdtask::traj
