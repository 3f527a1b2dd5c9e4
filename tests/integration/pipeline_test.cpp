// Integration tests: whole pipelines crossing module boundaries.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "mdtask/analysis/clustering.h"
#include "mdtask/analysis/rmsd_series.h"
#include "mdtask/common/rng.h"
#include "mdtask/traj/generators.h"
#include "mdtask/perf/workloads.h"
#include "mdtask/traj/mdt_file.h"
#include "mdtask/traj/universe.h"
#include "mdtask/traj/xyz_file.h"
#include "mdtask/workflows/leaflet_runner.h"
#include "mdtask/workflows/psa_runner.h"
#include "mdtask/workflows/rmsd_runner.h"

namespace mdtask {
namespace {

TEST(PipelineTest, GenerateStageReadAnalyzeClusterEndToEnd) {
  // Full PSA pipeline: synthesize families -> stage to disk as MDT ->
  // read back -> parallel PSA (all engines agree) -> cluster -> the
  // known family structure is recovered.
  const auto dir =
      std::filesystem::temp_directory_path() / "mdtask_integration";
  std::filesystem::create_directories(dir);

  traj::ProteinTrajectoryParams params;
  params.atoms = 12;
  params.frames = 10;
  Xoshiro256StarStar noise(5);
  traj::Ensemble staged;
  for (std::size_t family = 0; family < 2; ++family) {
    params.seed = 777 * (family + 1);
    const auto base = traj::make_protein_trajectory(params);
    for (std::size_t member = 0; member < 3; ++member) {
      traj::Trajectory t = base;
      for (auto& p : t.data()) {
        p.x += static_cast<float>(noise.normal(0.0, 0.05));
        p.y += static_cast<float>(noise.normal(0.0, 0.05));
      }
      std::string file_name = "t";
      file_name += std::to_string(staged.size());
      file_name += ".mdt";
      const auto path = dir / file_name;
      ASSERT_TRUE(traj::write_mdt(path.string(), t).ok());
      staged.push_back(std::move(t));
    }
  }
  // Read back from disk (the engines' input path).
  traj::Ensemble loaded;
  for (std::size_t i = 0; i < staged.size(); ++i) {
    std::string file_name = "t";
    file_name += std::to_string(i);
    file_name += ".mdt";
    auto t = traj::read_mdt((dir / file_name).string());
    ASSERT_TRUE(t.ok());
    loaded.push_back(std::move(t).value());
  }

  workflows::PsaRunConfig config;
  config.workers = 3;
  const auto mpi =
      workflows::run_psa(workflows::EngineKind::kMpi, loaded, config);
  for (auto engine : {workflows::EngineKind::kSpark,
                      workflows::EngineKind::kDask,
                      workflows::EngineKind::kRp}) {
    const auto other = workflows::run_psa(engine, loaded, config);
    EXPECT_EQ(other.matrix.max_abs_diff(mpi.matrix), 0.0);
  }

  auto dendrogram = analysis::hierarchical_cluster(
      mpi.matrix, analysis::Linkage::kAverage);
  ASSERT_TRUE(dendrogram.ok());
  const auto labels = analysis::cut_into_clusters(dendrogram.value(), 2);
  for (std::size_t i = 1; i < 3; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (std::size_t i = 4; i < 6; ++i) EXPECT_EQ(labels[i], labels[3]);
  EXPECT_NE(labels[0], labels[3]);

  std::filesystem::remove_all(dir);
}

TEST(PipelineTest, FormatsInteroperate) {
  // MDT -> memory -> XYZ -> memory: same trajectory within text
  // precision.
  const auto dir =
      std::filesystem::temp_directory_path() / "mdtask_fmt_integration";
  std::filesystem::create_directories(dir);
  traj::ProteinTrajectoryParams params;
  params.atoms = 7;
  params.frames = 5;
  const auto original = traj::make_protein_trajectory(params);

  const auto mdt = (dir / "t.mdt").string();
  const auto xyz = (dir / "t.xyz").string();
  ASSERT_TRUE(traj::write_mdt(mdt, original).ok());
  auto from_mdt = traj::read_mdt(mdt);
  ASSERT_TRUE(from_mdt.ok());
  ASSERT_TRUE(traj::write_xyz(xyz, from_mdt.value()).ok());
  auto from_xyz = traj::read_xyz(xyz);
  ASSERT_TRUE(from_xyz.ok());

  ASSERT_EQ(from_xyz.value().frames(), original.frames());
  ASSERT_EQ(from_xyz.value().atoms(), original.atoms());
  for (std::size_t f = 0; f < original.frames(); ++f) {
    for (std::size_t a = 0; a < original.atoms(); ++a) {
      EXPECT_NEAR(from_xyz.value().frame(f)[a].x, original.frame(f)[a].x,
                  2e-4 * (1.0 + std::abs(original.frame(f)[a].x)));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelineTest, UniverseSelectionFeedsLeafletWorkflow) {
  traj::LipidBilayerParams params;
  params.lipids = 300;
  const auto universe = traj::make_lipid_bilayer_universe(params);
  auto heads = universe.select("name P");
  ASSERT_TRUE(heads.ok());
  const auto positions =
      traj::subset_frame(universe.trajectory().frame(0), heads.value());
  workflows::LfRunConfig config;
  config.target_tasks = 12;
  for (int approach : {1, 2, 3, 4}) {
    auto result = workflows::run_leaflet_finder(
        workflows::EngineKind::kDask, approach, positions,
        2.1 * params.spacing, config);
    ASSERT_TRUE(result.ok()) << "approach " << approach;
    EXPECT_EQ(result.value().leaflets.component_count, 2u);
    EXPECT_EQ(result.value().leaflets.leaflet_a_size, 150u);
  }
}

TEST(SimulationDeterminismTest, IdenticalInputsIdenticalOutputs) {
  // The DES must be bit-deterministic: figure CSVs are reproducible.
  perf::KernelCosts costs;
  costs.hausdorff_unit = 3e-9;
  costs.cdist_element = 2e-9;
  costs.tree_build_point = 1e-6;
  costs.tree_query_point_log = 5e-7;
  costs.cc_edge = 1e-8;
  costs.merge_vertex = 2e-8;
  const sim::ClusterSpec cluster{sim::wrangler(), 4, 128};
  const perf::LfWorkload workload{262144, 1750000, 1024};
  for (const auto& model : {perf::spark_model(), perf::dask_model()}) {
    const auto a =
        perf::simulate_leaflet(model, cluster, 3, workload, costs);
    const auto b =
        perf::simulate_leaflet(model, cluster, 3, workload, costs);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.shuffle_s, b.shuffle_s);
  }
  const auto t1 = perf::simulate_throughput(perf::dask_model(), cluster,
                                            50000);
  const auto t2 = perf::simulate_throughput(perf::dask_model(), cluster,
                                            50000);
  EXPECT_EQ(t1.makespan_s, t2.makespan_s);
}

TEST(PipelineTest, RmsdSeriesOnSelectedSubsetAcrossEngines) {
  traj::ProteinTrajectoryParams params;
  params.atoms = 30;
  params.frames = 20;
  const auto trajectory = traj::make_protein_trajectory(params);
  const auto universe = traj::Universe::create(
      traj::make_protein_topology(params.atoms), trajectory);
  ASSERT_TRUE(universe.ok());
  auto ca = universe.value().select("name CA");
  ASSERT_TRUE(ca.ok());
  auto sub = traj::subset_trajectory(trajectory, ca.value());
  ASSERT_TRUE(sub.ok());
  const auto reference = analysis::rmsd_series(sub.value()).value();
  for (auto engine : {workflows::EngineKind::kMpi,
                      workflows::EngineKind::kSpark,
                      workflows::EngineKind::kDask,
                      workflows::EngineKind::kRp}) {
    const auto result =
        workflows::run_rmsd_series(engine, sub.value(), {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().series, reference);
  }
}

TEST(WorkflowsCommonTest, EngineNamesAreStable) {
  EXPECT_STREQ(workflows::to_string(workflows::EngineKind::kMpi), "MPI");
  EXPECT_STREQ(workflows::to_string(workflows::EngineKind::kSpark),
               "Spark");
  EXPECT_STREQ(workflows::to_string(workflows::EngineKind::kDask), "Dask");
  EXPECT_STREQ(workflows::to_string(workflows::EngineKind::kRp),
               "RADICAL-Pilot");
}

}  // namespace
}  // namespace mdtask
