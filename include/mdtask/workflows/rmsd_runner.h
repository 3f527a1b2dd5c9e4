// Engine-parallel RMSD time series.
//
// The third of the paper's named MD analyses (Sec. 2). A map-only job
// over frame blocks: run_rmsd_series is run_frame_series
// (frame_series.h) with the per-frame RMSD against the reference frame
// (frame_rmsd, or kabsch_rmsd when superposing) as the observable, so
// every engine's series is bit-identical to analysis::rmsd_series.
#pragma once

#include "mdtask/analysis/rmsd_series.h"
#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

struct RmsdRunConfig {
  std::size_t workers = 4;
  std::size_t frame_block = 0;  ///< frames per task (0 = frames/workers)
  analysis::RmsdSeriesOptions options;
};

struct RmsdRunResult {
  std::vector<double> series;
  RunMetrics metrics;
};

/// Computes the RMSD series of `trajectory` on the chosen engine.
/// kInvalidArgument when `config.options.reference_frame` is not a frame
/// of a non-empty trajectory (analysis::check_reference_frame).
Result<RmsdRunResult> run_rmsd_series(EngineKind engine,
                                      const traj::Trajectory& trajectory,
                                      const RmsdRunConfig& config = {});

}  // namespace mdtask::workflows
