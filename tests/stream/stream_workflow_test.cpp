// The byte-identical guard: streaming PSA / Leaflet Finder over a
// sharded store must produce results bit-for-bit equal to the in-memory
// runners on every engine — the property that lets published figure
// CSVs stay identical whether the input was materialized or streamed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "mdtask/stream/shard_format.h"
#include "mdtask/traj/generators.h"
#include "mdtask/workflows/leaflet_runner.h"
#include "mdtask/workflows/psa_runner.h"
#include "test_paths.h"

namespace mdtask::workflows {
namespace {

using stream::ShardStoreOptions;
using stream::write_sharded;
using stream::write_sharded_points;

constexpr EngineKind kEngines[] = {EngineKind::kMpi, EngineKind::kSpark,
                                   EngineKind::kDask, EngineKind::kRp};

class StreamWorkflowTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path(".mds");
  void TearDown() override { std::remove(path_.c_str()); }
};

/// The PSA store layout: N trajectories concatenated frame-major.
traj::Trajectory concatenate(const traj::Ensemble& ensemble) {
  const std::size_t frames_each = ensemble.front().frames();
  const std::size_t atoms = ensemble.front().atoms();
  traj::Trajectory all(frames_each * ensemble.size(), atoms);
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    std::memcpy(all.data().data() + i * frames_each * atoms,
                ensemble[i].data().data(),
                frames_each * atoms * sizeof(traj::Vec3));
  }
  return all;
}

TEST_F(StreamWorkflowTest, PsaMatrixBitIdenticalOnEveryEngine) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 19;
  p.frames = 12;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(6, p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 5;  // deliberately misaligned with 12-frame rows
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble), opts).ok());

  StreamInput input;
  input.path = path_;
  input.trajectories = ensemble.size();
  PsaRunConfig config;
  config.workers = 3;
  // The default (fast) kernel tier must also match the scalar oracle.
  const auto oracle = analysis::psa_reference(
      ensemble, analysis::HausdorffKernel::kNaive,
      kernels::KernelPolicy::kScalar);
  for (const EngineKind engine : kEngines) {
    const PsaRunResult memory = run_psa(engine, ensemble, config);
    auto streamed = run_psa_streamed(engine, input, config);
    ASSERT_TRUE(streamed.ok())
        << to_string(engine) << ": " << streamed.error().to_string();
    EXPECT_EQ(streamed.value().matrix.data(), memory.matrix.data())
        << to_string(engine);
    EXPECT_EQ(streamed.value().matrix.data(), oracle.data())
        << to_string(engine);
    EXPECT_EQ(streamed.value().metrics.tasks, memory.metrics.tasks);
    EXPECT_GT(streamed.value().metrics.staged_bytes, 0u);
  }
}

TEST_F(StreamWorkflowTest, PsaMmapModeAlsoBitIdentical) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 11;
  p.frames = 8;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(4, p);
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble)).ok());
  StreamInput input;
  input.path = path_;
  input.mode = stream::ShardReader::Mode::kMmap;
  input.trajectories = ensemble.size();
  const PsaRunResult memory = run_psa(EngineKind::kDask, ensemble);
  auto streamed = run_psa_streamed(EngineKind::kDask, input);
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed.value().matrix.data(), memory.matrix.data());
}

TEST_F(StreamWorkflowTest, PsaRejectsBadInputs) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 5;
  p.frames = 7;
  const traj::Ensemble ensemble = traj::make_protein_ensemble(3, p);
  ASSERT_TRUE(write_sharded(path_, concatenate(ensemble)).ok());

  StreamInput input;
  input.path = path_;
  input.trajectories = 0;  // unset
  auto unset = run_psa_streamed(EngineKind::kMpi, input);
  ASSERT_FALSE(unset.ok());
  EXPECT_EQ(unset.error().code(), ErrorCode::kInvalidArgument);

  input.trajectories = 4;  // 21 frames do not divide into 4 rows
  auto misaligned = run_psa_streamed(EngineKind::kMpi, input);
  ASSERT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.error().code(), ErrorCode::kInvalidArgument);

  input.path = ::testing::TempDir() + "/no-such-store.mds";
  input.trajectories = 3;
  auto missing = run_psa_streamed(EngineKind::kMpi, input);
  ASSERT_FALSE(missing.ok());
}

TEST_F(StreamWorkflowTest, LeafletBitIdenticalAcrossEnginesAndApproaches) {
  traj::BilayerParams p;
  p.atoms = 1024;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;  // atom ranges cross block boundaries
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 3;
  config.target_tasks = 12;
  for (const EngineKind engine : kEngines) {
    for (int approach = 1; approach <= 4; ++approach) {
      auto memory =
          run_leaflet_finder(engine, approach, bilayer.positions, cutoff,
                             config);
      ASSERT_TRUE(memory.ok());
      auto streamed =
          run_leaflet_finder_streamed(engine, approach, input, cutoff,
                                      config);
      ASSERT_TRUE(streamed.ok()) << to_string(engine) << " approach "
                                 << approach << ": "
                                 << streamed.error().to_string();
      const auto& a = memory.value().leaflets;
      const auto& b = streamed.value().leaflets;
      EXPECT_EQ(b.labels, a.labels)
          << to_string(engine) << " approach " << approach;
      EXPECT_EQ(b.component_count, a.component_count);
      EXPECT_EQ(b.leaflet_a_size, a.leaflet_a_size);
      EXPECT_EQ(b.leaflet_b_size, a.leaflet_b_size);
      EXPECT_EQ(streamed.value().edges_found, memory.value().edges_found);
      EXPECT_GT(streamed.value().metrics.staged_bytes, 0u);
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletStreamedSurvivesInjectedReadFaults) {
  // A transient read error injected into an engine task fails the
  // attempt; the engine's native recovery re-runs it, which re-reads
  // the shard — results stay byte-identical and the log is seeded.
  traj::BilayerParams p;
  p.atoms = 512;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  const double cutoff = traj::default_cutoff(p);
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions).ok());

  StreamInput input;
  input.path = path_;
  LfRunConfig config;
  config.workers = 2;
  config.target_tasks = 8;
  auto memory = run_leaflet_finder(EngineKind::kDask, 3, bilayer.positions,
                                   cutoff, config);
  ASSERT_TRUE(memory.ok());

  fault::FaultPlan plan;
  plan.schedule.push_back({fault::FaultKind::kTransientReadError, 1, 0});
  plan.retry.max_attempts = 3;
  std::vector<std::string> canonical_first;
  for (int round = 0; round < 2; ++round) {
    fault::RecoveryLog log;
    LfRunConfig faulted = config;
    faulted.fault_plan = &plan;
    faulted.recovery_log = &log;
    auto streamed = run_leaflet_finder_streamed(EngineKind::kDask, 3, input,
                                                cutoff, faulted);
    ASSERT_TRUE(streamed.ok()) << streamed.error().to_string();
    EXPECT_EQ(streamed.value().leaflets.labels, memory.value().leaflets.labels);
    EXPECT_GE(log.size(), 1u);
    if (round == 0) {
      canonical_first = log.canonical();
    } else {
      EXPECT_EQ(log.canonical(), canonical_first);  // seed-deterministic
    }
  }
}

TEST_F(StreamWorkflowTest, LeafletRejectsUnknownApproachAndMissingStore) {
  traj::BilayerParams p;
  p.atoms = 64;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions).ok());
  StreamInput input;
  input.path = path_;
  auto bad = run_leaflet_finder_streamed(EngineKind::kMpi, 5, input, 1.5);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);

  input.path = ::testing::TempDir() + "/no-such-store.mds";
  auto missing = run_leaflet_finder_streamed(EngineKind::kMpi, 2, input, 1.5);
  ASSERT_FALSE(missing.ok());
}

}  // namespace
}  // namespace mdtask::workflows
