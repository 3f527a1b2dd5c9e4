#include "mdtask/analysis/rmsd_series.h"

#include <gtest/gtest.h>

#include "mdtask/analysis/rmsd.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

traj::Trajectory make_traj(std::size_t frames = 12, std::size_t atoms = 16) {
  traj::ProteinTrajectoryParams p;
  p.frames = frames;
  p.atoms = atoms;
  return traj::make_protein_trajectory(p);
}

TEST(RmsdSeriesTest, ReferenceEntryIsZero) {
  const auto t = make_traj();
  const auto series = rmsd_series(t).value();
  ASSERT_EQ(series.size(), t.frames());
  EXPECT_DOUBLE_EQ(series[0], 0.0);
  for (std::size_t f = 1; f < series.size(); ++f) {
    EXPECT_GT(series[f], 0.0);
  }
}

TEST(RmsdSeriesTest, MatchesDirectFrameRmsd) {
  const auto t = make_traj();
  const auto series = rmsd_series(t).value();
  for (std::size_t f = 0; f < t.frames(); ++f) {
    EXPECT_DOUBLE_EQ(series[f], frame_rmsd(t.frame(f), t.frame(0)));
  }
}

TEST(RmsdSeriesTest, CustomReferenceFrame) {
  const auto t = make_traj();
  RmsdSeriesOptions options;
  options.reference_frame = 5;
  const auto series = rmsd_series(t, options).value();
  EXPECT_DOUBLE_EQ(series[5], 0.0);
  EXPECT_GT(series[0], 0.0);
}

TEST(RmsdSeriesTest, SuperposedNeverExceedsPlain) {
  const auto t = make_traj();
  RmsdSeriesOptions plain, fitted;
  fitted.superpose = true;
  const auto a = rmsd_series(t, plain).value();
  const auto b = rmsd_series(t, fitted).value();
  for (std::size_t f = 0; f < t.frames(); ++f) {
    // 1e-4 slack: float32 coordinates + the iterative Kabsch solve.
    EXPECT_LE(b[f], a[f] + 1e-4) << "frame " << f;
  }
}

TEST(RmsdSeriesTest, SeriesGrowsWithDrift) {
  // Collective drift means later frames are farther from frame 0 on
  // average; check a loose monotone trend (first vs last quarter).
  const auto t = make_traj(40);
  const auto series = rmsd_series(t).value();
  double early = 0.0, late = 0.0;
  for (std::size_t f = 1; f <= 10; ++f) early += series[f];
  for (std::size_t f = 30; f < 40; ++f) late += series[f];
  EXPECT_GT(late, early);
}

TEST(RmsdSeriesBlockTest, BlocksComposeTheFullSeries) {
  const auto t = make_traj(17);
  const auto want = rmsd_series(t).value();
  std::vector<double> got(t.frames(), -1.0);
  for (std::size_t begin = 0; begin < t.frames(); begin += 5) {
    const std::size_t end = std::min(begin + 5, t.frames());
    rmsd_series_block(t, t.frame(0), begin, end, false, got);
  }
  EXPECT_EQ(got, want);
}

TEST(RmsdSeriesTest, EmptyTrajectory) {
  const traj::Trajectory t;
  EXPECT_TRUE(rmsd_series(t).value().empty());
}

TEST(RmsdSeriesTest, OutOfRangeReferenceFrameIsInvalidArgument) {
  const auto t = make_traj(4);
  for (const std::size_t reference : {std::size_t{4}, std::size_t{10}}) {
    RmsdSeriesOptions options;
    options.reference_frame = reference;
    const auto series = rmsd_series(t, options);
    ASSERT_FALSE(series.ok()) << "reference " << reference;
    EXPECT_EQ(series.error().code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace mdtask::analysis
