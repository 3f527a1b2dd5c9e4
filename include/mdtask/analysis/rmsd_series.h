// Per-frame RMSD time series (Sec. 2: "RMSD is used to identify the
// deviation of atom positions between frames").
//
// The series is the classic first MD analysis: RMSD of every frame
// against a reference conformation, optionally after optimal (Kabsch)
// superposition. The engine-parallel series (workflows/rmsd_runner.h)
// maps the same per-frame computation over frame blocks.
#pragma once

#include <span>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/traj/trajectory.h"

namespace mdtask::analysis {

struct RmsdSeriesOptions {
  std::size_t reference_frame = 0;  ///< which frame is the reference
  bool superpose = false;           ///< Kabsch-align each frame first
};

/// RMSD of every frame against the reference frame. Serial reference.
/// kInvalidArgument when `options.reference_frame` is not a frame of a
/// non-empty trajectory; an empty trajectory yields an empty series.
Result<std::vector<double>> rmsd_series(
    const traj::Trajectory& trajectory,
    const RmsdSeriesOptions& options = {});

/// The check rmsd_series applies: kInvalidArgument unless the
/// trajectory is empty or `options.reference_frame` < frames().
Status check_reference_frame(const traj::Trajectory& trajectory,
                             const RmsdSeriesOptions& options);

/// Computes series entries for frames [begin, end) into
/// out[begin..end) (the parallel map kernel; `reference` is the
/// reference conformation, shipped to tasks by the engines).
void rmsd_series_block(const traj::Trajectory& trajectory,
                       std::span<const traj::Vec3> reference,
                       std::size_t begin, std::size_t end, bool superpose,
                       std::span<double> out);

}  // namespace mdtask::analysis
