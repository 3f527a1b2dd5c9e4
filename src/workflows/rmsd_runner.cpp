#include "mdtask/workflows/rmsd_runner.h"

#include "mdtask/analysis/rmsd.h"
#include "mdtask/workflows/frame_series.h"

namespace mdtask::workflows {

Result<RmsdRunResult> run_rmsd_series(EngineKind engine,
                                      const traj::Trajectory& trajectory,
                                      const RmsdRunConfig& config) {
  if (auto status = analysis::check_reference_frame(trajectory,
                                                    config.options);
      !status) {
    return status.error();
  }
  if (trajectory.frames() == 0) return RmsdRunResult{};
  // The per-frame observable rmsd_series_block evaluates, so the series
  // is bit-identical to the serial reference.
  const auto reference = trajectory.frame(config.options.reference_frame);
  const bool superpose = config.options.superpose;
  auto run = run_frame_series(
      engine, trajectory,
      [reference, superpose](std::span<const traj::Vec3> frame) {
        return superpose ? analysis::kabsch_rmsd(frame, reference)
                         : analysis::frame_rmsd(frame, reference);
      },
      {.workers = config.workers, .frame_block = config.frame_block});
  return RmsdRunResult{std::move(run.series), run.metrics};
}

}  // namespace mdtask::workflows
