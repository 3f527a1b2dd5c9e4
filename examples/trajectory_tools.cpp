// Trajectory toolbox walkthrough: file formats, sub-setting, slicing and
// RMSD analysis — the "common algorithms" of the paper's Sec. 2 (RMSD,
// pairwise distances, sub-setting) on one synthetic system.
//
// Usage: trajectory_tools [atoms=500] [frames=40]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "mdtask/analysis/pairwise.h"
#include "mdtask/common/table.h"
#include "mdtask/traj/generators.h"
#include "mdtask/traj/mdt_file.h"
#include "mdtask/traj/selection.h"
#include "mdtask/traj/xyz_file.h"
#include "mdtask/workflows/rmsd_runner.h"

int main(int argc, char** argv) {
  using namespace mdtask;
  const std::size_t atoms =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500;
  const std::size_t frames =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 40;

  traj::ProteinTrajectoryParams params;
  params.atoms = atoms;
  params.frames = frames;
  const auto trajectory = traj::make_protein_trajectory(params);

  // 1. Formats: write MDT (binary) and XYZ (text), read both back.
  const auto dir = std::filesystem::temp_directory_path() / "mdtask_tools";
  std::filesystem::create_directories(dir);
  const auto mdt_path = (dir / "traj.mdt").string();
  const auto xyz_path = (dir / "traj.xyz").string();
  if (!traj::write_mdt(mdt_path, trajectory).ok() ||
      !traj::write_xyz(xyz_path, trajectory).ok()) {
    std::fprintf(stderr, "write failed\n");
    return 1;
  }
  std::printf("wrote %s (%zu B/frame binary) and %s (text)\n",
              mdt_path.c_str(), trajectory.atoms() * sizeof(traj::Vec3),
              xyz_path.c_str());

  // 2. Sub-setting: atoms near the initial centroid, minus a core.
  const auto frame0 = trajectory.frame(0);
  traj::Vec3 centroid{};
  for (const auto& p : frame0) centroid += p;
  centroid = centroid * (1.0f / static_cast<float>(frame0.size()));
  const auto shell = traj::selection_difference(
      traj::select_sphere(frame0, centroid, 25.0),
      traj::select_sphere(frame0, centroid, 10.0));
  std::printf("selection: %zu shell atoms (10 < r <= 25 from centroid)\n",
              shell.size());
  auto sub = traj::subset_trajectory(trajectory, shell);
  if (!sub.ok()) {
    std::fprintf(stderr, "%s\n", sub.error().to_string().c_str());
    return 1;
  }

  // 3. Slicing: analyze every 4th frame of the second half.
  auto sliced = traj::slice_frames(sub.value(), frames / 2, frames, 4);
  if (!sliced.ok()) {
    std::fprintf(stderr, "%s\n", sliced.error().to_string().c_str());
    return 1;
  }

  // 4. Parallel RMSD series on the subset (Spark engine), plain and
  //    Kabsch-superposed.
  workflows::RmsdRunConfig plain_config;
  plain_config.workers = 4;
  auto plain = workflows::run_rmsd_series(workflows::EngineKind::kSpark,
                                          sub.value(), plain_config);
  workflows::RmsdRunConfig fitted_config = plain_config;
  fitted_config.options.superpose = true;
  auto fitted = workflows::run_rmsd_series(workflows::EngineKind::kSpark,
                                           sub.value(), fitted_config);
  for (const auto* run : {&plain, &fitted}) {
    if (!run->ok()) {
      std::fprintf(stderr, "%s\n", run->error().to_string().c_str());
      return 1;
    }
  }

  Table table("RMSD of the shell selection vs frame 0");
  table.set_header({"frame", "rmsd", "rmsd_superposed"});
  const auto& plain_series = plain.value().series;
  const auto& fitted_series = fitted.value().series;
  for (std::size_t f = 0; f < plain_series.size(); f += frames / 10) {
    table.add_row({std::to_string(f), Table::fmt(plain_series[f], 3),
                   Table::fmt(fitted_series[f], 3)});
  }
  std::printf("%s\n", table.render().c_str());

  // 5. Pairwise distances (cdist) between the first and last sliced
  //    frames: how far did the shell drift?
  const auto first = sliced.value().frame(0);
  const auto last = sliced.value().frame(sliced.value().frames() - 1);
  const auto d = analysis::cdist(first, last);
  double mean = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    mean += d[i * last.size() + i];  // same-atom displacement
  }
  mean /= static_cast<double>(first.size());
  std::printf("mean same-atom displacement across the slice: %.3f\n", mean);

  std::filesystem::remove_all(dir);
  return 0;
}
