// HiMach-style per-frame map analysis on every engine (the paper's
// Related Work, Sec. 5: HiMach "defines trajectories, does per frame
// data acquisition (Map) and cross-frame analysis (Reduce)").
//
// run_frame_series maps an arbitrary observable over the trajectory's
// frames in parallel (frame blocks are the tasks) and returns the time
// series; callers reduce the series however they like (the cross-frame
// step is cheap once the per-frame map has run in parallel). This is
// the one frame-block map: the RMSD runner (rmsd_runner.h) calls it with
// a per-frame RMSD observable. Engine set-up comes from EngineSession
// (engine_session.h) with `workers` only — no tracing, faults or
// elasticity.
#pragma once

#include <functional>
#include <span>

#include "mdtask/traj/trajectory.h"
#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

/// A per-frame observable: conformation -> scalar. Must be thread-safe
/// (it is invoked concurrently from engine workers).
using FrameObservable =
    std::function<double(std::span<const traj::Vec3>)>;

struct FrameSeriesConfig {
  std::size_t workers = 4;
  std::size_t frame_block = 0;  ///< frames per task (0 = frames/workers)
};

struct FrameSeriesResult {
  std::vector<double> series;  ///< one value per frame
  RunMetrics metrics;
};

/// Evaluates `observable` on every frame, in parallel on the chosen
/// engine. All engines produce identical series (tested).
FrameSeriesResult run_frame_series(EngineKind engine,
                                   const traj::Trajectory& trajectory,
                                   const FrameObservable& observable,
                                   const FrameSeriesConfig& config = {});

}  // namespace mdtask::workflows
