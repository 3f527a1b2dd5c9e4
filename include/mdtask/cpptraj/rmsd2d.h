// CPPTraj comparator: optimized C++ 2D-RMSD (Sec. 2.2, Fig. 6).
//
// CPPTraj computes the all-pairs frame RMSD matrix ("2D-RMSD", Alg. 1
// without the min-max reduction), parallelized by distributing frames
// over MPI ranks. The paper contrasts a GNU build with no optimization
// against an Intel -O3 build of the same code; this module reproduces
// that contrast honestly: rmsd2d_block_reference is compiled at -O0 and
// rmsd2d_block_optimized at -O3 + unrolled accumulation (see
// src/CMakeLists.txt), so the measured gap comes from real compiler
// optimization of the same inner loop family.
#pragma once

#include <cstddef>
#include <vector>

#include "mdtask/traj/trajectory.h"

namespace mdtask::cpptraj {

/// Which build of the kernel to run. kReference and kOptimized are
/// Fig. 6's two curves; kTiled is the batch-kernel successor running the
/// tiled SoA kernel of mdtask/kernels/batch.h (kVectorized, float
/// lanes).
enum class Rmsd2dKernel { kReference, kOptimized, kTiled };

/// All-pairs frame RMSD between two trajectories, row-major
/// [t1.frames() x t2.frames()]. Reference build (compiled -O0).
std::vector<double> rmsd2d_block_reference(const traj::Trajectory& t1,
                                           const traj::Trajectory& t2);

/// Same contract, optimized build (compiled -O3, unrolled accumulation).
std::vector<double> rmsd2d_block_optimized(const traj::Trajectory& t1,
                                           const traj::Trajectory& t2);

/// Same contract via the tiled SoA batch kernel (kernels::rmsd2d_packed,
/// kVectorized policy): packs both trajectories once and fills the
/// matrix in kFrameTile x kFrameTile tiles. Values agree with the other
/// kernels to ~1e-6 relative (single-precision lane accumulation).
std::vector<double> rmsd2d_block_tiled(const traj::Trajectory& t1,
                                       const traj::Trajectory& t2);

/// Dispatches on the kernel enum.
std::vector<double> rmsd2d_block(const traj::Trajectory& t1,
                                 const traj::Trajectory& t2,
                                 Rmsd2dKernel kernel);

/// Hausdorff distance recovered from a full 2D-RMSD matrix (the paper's
/// CPPTraj pipeline: 2D-RMSD in parallel, min-max gathered afterwards).
double hausdorff_from_matrix(const std::vector<double>& matrix,
                             std::size_t rows, std::size_t cols);

/// Result of a parallel CPPTraj-style PSA run.
struct CpptrajPsaResult {
  /// Hausdorff distance per trajectory pair, row-major N x N.
  std::vector<double> distances;
  std::size_t n = 0;
  double wall_seconds = 0.0;
};

/// Frame-distributed parallel 2D-RMSD of ONE trajectory pair: CPPTraj
/// "reads in parallel frames from a single trajectory file... the
/// frames are equally distributed to the MPI processes" (Sec. 2.2).
/// Each rank owns a contiguous row block of the matrix; the full matrix
/// is gathered at rank 0. Identical output to rmsd2d_block (tested).
std::vector<double> rmsd2d_parallel(const traj::Trajectory& t1,
                                    const traj::Trajectory& t2, int ranks,
                                    Rmsd2dKernel kernel);

/// Runs PSA over the ensemble the CPPTraj way: the trajectory-pair list
/// is distributed over `ranks` MPI ranks (at least one rank per ensemble
/// member in the real tool); each rank computes full 2D-RMSD blocks with
/// the chosen kernel; results are gathered and the Hausdorff min-max is
/// applied at the root.
CpptrajPsaResult cpptraj_psa(const traj::Ensemble& ensemble, int ranks,
                             Rmsd2dKernel kernel);

}  // namespace mdtask::cpptraj
