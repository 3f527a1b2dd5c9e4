#include "mdtask/workflows/rmsd_runner.h"

#include <gtest/gtest.h>

#include "mdtask/traj/generators.h"

namespace mdtask::workflows {
namespace {

std::string engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RP";
  }
  return "Unknown";
}

traj::Trajectory make_traj(std::size_t frames = 30) {
  traj::ProteinTrajectoryParams p;
  p.frames = frames;
  p.atoms = 20;
  return traj::make_protein_trajectory(p);
}

class RmsdEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RmsdEngineTest, MatchesSerialReference) {
  const auto t = make_traj();
  const auto want = analysis::rmsd_series(t).value();
  RmsdRunConfig config;
  config.workers = 3;
  const auto result = run_rmsd_series(GetParam(), t, config).value();
  EXPECT_EQ(result.series, want);
  EXPECT_GT(result.metrics.tasks, 1u);
}

TEST_P(RmsdEngineTest, SuperposedVariantMatches) {
  const auto t = make_traj(20);
  analysis::RmsdSeriesOptions options;
  options.superpose = true;
  options.reference_frame = 3;
  const auto want = analysis::rmsd_series(t, options).value();
  RmsdRunConfig config;
  config.options = options;
  const auto result = run_rmsd_series(GetParam(), t, config).value();
  EXPECT_EQ(result.series, want);
}

TEST_P(RmsdEngineTest, ExplicitBlockSizeControlsTaskCount) {
  const auto t = make_traj(30);
  RmsdRunConfig config;
  config.frame_block = 7;  // ceil(30/7) = 5 tasks
  const auto result = run_rmsd_series(GetParam(), t, config).value();
  EXPECT_EQ(result.metrics.tasks, 5u);
  EXPECT_EQ(result.series, analysis::rmsd_series(t).value());
}

TEST_P(RmsdEngineTest, OutOfRangeReferenceFrameIsInvalidArgument) {
  const auto t = make_traj(4);
  RmsdRunConfig config;
  config.options.reference_frame = 10;
  const auto result = run_rmsd_series(GetParam(), t, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Engines, RmsdEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(RmsdRunnerTest, EmptyTrajectoryYieldsEmptySeries) {
  const traj::Trajectory empty;
  const auto result = run_rmsd_series(EngineKind::kDask, empty, {}).value();
  EXPECT_TRUE(result.series.empty());
}

}  // namespace
}  // namespace mdtask::workflows
