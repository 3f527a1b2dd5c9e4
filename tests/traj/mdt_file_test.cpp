#include "mdtask/traj/mdt_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "mdtask/traj/generators.h"
#include "test_paths.h"

namespace mdtask::traj {
namespace {

class MdtFileTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path(".mdt");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(MdtFileTest, RoundTripPreservesData) {
  ProteinTrajectoryParams p;
  p.atoms = 17;
  p.frames = 9;
  const Trajectory t = make_protein_trajectory(p);
  ASSERT_TRUE(write_mdt(path_, t).ok());
  auto back = read_mdt(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().frames(), t.frames());
  EXPECT_EQ(back.value().atoms(), t.atoms());
  for (std::size_t f = 0; f < t.frames(); ++f) {
    for (std::size_t i = 0; i < t.atoms(); ++i) {
      EXPECT_EQ(back.value().frame(f)[i], t.frame(f)[i]);
    }
  }
}

TEST_F(MdtFileTest, PartialFrameRead) {
  ProteinTrajectoryParams p;
  p.atoms = 5;
  p.frames = 10;
  const Trajectory t = make_protein_trajectory(p);
  ASSERT_TRUE(write_mdt(path_, t).ok());
  auto part = read_mdt_frames(path_, 3, 4);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part.value().frames(), 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t i = 0; i < t.atoms(); ++i) {
      EXPECT_EQ(part.value().frame(f)[i], t.frame(f + 3)[i]);
    }
  }
}

TEST_F(MdtFileTest, StatReportsShape) {
  const Trajectory t(6, 11);
  ASSERT_TRUE(write_mdt(path_, t).ok());
  auto info = stat_mdt(path_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().frames, 6u);
  EXPECT_EQ(info.value().atoms, 11u);
}

TEST_F(MdtFileTest, OutOfRangeFrameReadFails) {
  const Trajectory t(3, 2);
  ASSERT_TRUE(write_mdt(path_, t).ok());
  EXPECT_FALSE(read_mdt_frames(path_, 2, 5).ok());
}

TEST_F(MdtFileTest, MissingFileFails) {
  auto r = read_mdt("/no/such/file.mdt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIoError);
}

TEST_F(MdtFileTest, BadMagicFails) {
  std::ofstream f(path_, std::ios::binary);
  f << "NOTMDT..garbagegarbagegarbage";
  f.close();
  auto r = read_mdt(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kFormatError);
}

TEST_F(MdtFileTest, TruncatedPayloadFails) {
  const Trajectory t(4, 8);
  ASSERT_TRUE(write_mdt(path_, t).ok());
  // Truncate the file to half its payload.
  std::ofstream f(path_, std::ios::binary | std::ios::in);
  f.seekp(24 + 4 * 8 * 12 / 2);
  f.close();
  ::truncate(path_.c_str(), 24 + 4 * 8 * 12 / 2);
  EXPECT_FALSE(read_mdt(path_).ok());
}

TEST_F(MdtFileTest, EmptyTrajectoryRoundTrips) {
  const Trajectory t(0, 0);
  ASSERT_TRUE(write_mdt(path_, t).ok());
  auto back = read_mdt(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().frames(), 0u);
}

}  // namespace
}  // namespace mdtask::traj
