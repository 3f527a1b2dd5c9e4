#include "mdtask/analysis/rmsd_series.h"

#include <string>

#include "mdtask/analysis/rmsd.h"

namespace mdtask::analysis {

void rmsd_series_block(const traj::Trajectory& trajectory,
                       std::span<const traj::Vec3> reference,
                       std::size_t begin, std::size_t end, bool superpose,
                       std::span<double> out) {
  for (std::size_t f = begin; f < end; ++f) {
    out[f] = superpose ? kabsch_rmsd(trajectory.frame(f), reference)
                       : frame_rmsd(trajectory.frame(f), reference);
  }
}

Status check_reference_frame(const traj::Trajectory& trajectory,
                             const RmsdSeriesOptions& options) {
  if (trajectory.frames() != 0 &&
      options.reference_frame >= trajectory.frames()) {
    return Error(ErrorCode::kInvalidArgument,
                 "reference frame " + std::to_string(options.reference_frame) +
                     " out of range for a trajectory of " +
                     std::to_string(trajectory.frames()) + " frames");
  }
  return Status::success();
}

Result<std::vector<double>> rmsd_series(const traj::Trajectory& trajectory,
                                        const RmsdSeriesOptions& options) {
  if (auto status = check_reference_frame(trajectory, options); !status) {
    return status.error();
  }
  std::vector<double> out(trajectory.frames(), 0.0);
  if (trajectory.frames() == 0) return out;
  rmsd_series_block(trajectory, trajectory.frame(options.reference_frame),
                    0, trajectory.frames(), options.superpose, out);
  return out;
}

}  // namespace mdtask::analysis
