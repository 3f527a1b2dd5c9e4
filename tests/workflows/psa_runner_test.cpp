#include "mdtask/workflows/psa_runner.h"

#include <gtest/gtest.h>

#include <cstring>

#include "mdtask/traj/generators.h"

namespace mdtask::workflows {
namespace {

/// gtest-safe identifier for an engine (names reject '-').
std::string engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RP";
  }
  return "Unknown";
}

traj::Ensemble tiny_ensemble(std::size_t count = 6) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 8;
  p.frames = 6;
  return traj::make_protein_ensemble(count, p);
}

class PsaEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PsaEngineTest, MatchesSerialReference) {
  const auto ensemble = tiny_ensemble();
  const auto reference = analysis::psa_reference(ensemble);
  PsaRunConfig config;
  config.workers = 3;
  const auto result = run_psa(GetParam(), ensemble, config);
  EXPECT_EQ(result.matrix.max_abs_diff(reference), 0.0)
      << to_string(GetParam());
  EXPECT_GT(result.metrics.tasks, 0u);
  EXPECT_GT(result.metrics.wall_seconds, 0.0);
}

TEST_P(PsaEngineTest, DefaultPolicyMatrixIsBitIdenticalToScalar) {
  // The default (fast) kernel tier must reproduce the scalar oracle's
  // matrix bit for bit on every engine.
  traj::ProteinTrajectoryParams p;
  p.atoms = 33;
  p.frames = 20;
  const auto ensemble = traj::make_protein_ensemble(6, p);
  const auto scalar = analysis::psa_reference(
      ensemble, analysis::HausdorffKernel::kNaive,
      kernels::KernelPolicy::kScalar);
  PsaRunConfig config;
  config.workers = 3;
  ASSERT_EQ(config.kernel_policy, kernels::default_policy());
  const auto result = run_psa(GetParam(), ensemble, config);
  ASSERT_EQ(result.matrix.size(), scalar.size());
  EXPECT_EQ(std::memcmp(result.matrix.data().data(), scalar.data().data(),
                        scalar.data().size() * sizeof(double)),
            0)
      << to_string(GetParam());
}

TEST_P(PsaEngineTest, WorkerCountDoesNotChangeResult) {
  const auto ensemble = tiny_ensemble(5);
  PsaRunConfig one, many;
  one.workers = 1;
  many.workers = 8;
  const auto a = run_psa(GetParam(), ensemble, one);
  const auto b = run_psa(GetParam(), ensemble, many);
  EXPECT_EQ(a.matrix.max_abs_diff(b.matrix), 0.0);
}

TEST_P(PsaEngineTest, ExplicitBlockSizeHonoured) {
  const auto ensemble = tiny_ensemble(4);
  PsaRunConfig config;
  config.workers = 2;
  config.block_size = 1;  // 16 single-pair tasks
  const auto result = run_psa(GetParam(), ensemble, config);
  EXPECT_EQ(result.metrics.tasks, 16u);
  EXPECT_EQ(result.matrix.max_abs_diff(analysis::psa_reference(ensemble)),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(Engines, PsaEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(PsaBlockSizeTest, AutoBlockSizeScalesWithWorkers) {
  PsaRunConfig few, many;
  few.workers = 1;
  many.workers = 64;
  EXPECT_GE(psa_effective_block_size(128, few),
            psa_effective_block_size(128, many));
  EXPECT_GE(psa_effective_block_size(128, many), 1u);
}

TEST(PsaBlockSizeTest, ExplicitOverrideWins) {
  PsaRunConfig config;
  config.block_size = 13;
  EXPECT_EQ(psa_effective_block_size(1000, config), 13u);
}

TEST(PsaRunTest, EarlyBreakKernelGivesSameMatrix) {
  const auto ensemble = tiny_ensemble(4);
  PsaRunConfig naive_cfg, early_cfg;
  naive_cfg.metric = PsaMetric::kHausdorff;
  early_cfg.metric = PsaMetric::kHausdorffEarlyBreak;
  const auto a = run_psa(EngineKind::kDask, ensemble, naive_cfg);
  const auto b = run_psa(EngineKind::kDask, ensemble, early_cfg);
  EXPECT_EQ(a.matrix.max_abs_diff(b.matrix), 0.0);
}

class PsaFrechetEngineTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PsaFrechetEngineTest, FrechetMetricMatchesSerialReference) {
  const auto ensemble = tiny_ensemble(5);
  PsaRunConfig config;
  config.workers = 3;
  config.metric = PsaMetric::kFrechet;
  const auto result = run_psa(GetParam(), ensemble, config);
  const auto reference = analysis::psa_reference_frechet(ensemble);
  EXPECT_EQ(result.matrix.max_abs_diff(reference), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Engines, PsaFrechetEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(PsaRunTest, SparkAccountsBroadcast) {
  const auto ensemble = tiny_ensemble(4);
  const auto result = run_psa(EngineKind::kSpark, ensemble, {});
  EXPECT_GT(result.metrics.broadcast_bytes, 0u);
}

TEST(PsaRunTest, RpPaysDbAndStaging) {
  const auto ensemble = tiny_ensemble(4);
  const auto result = run_psa(EngineKind::kRp, ensemble, {});
  EXPECT_GT(result.metrics.db_roundtrips, 0u);
  EXPECT_GT(result.metrics.staged_bytes, 0u);
}

}  // namespace
}  // namespace mdtask::workflows
