// Vectorized, tiled batch kernels over packed frames.
//
// These are the compute cores behind the PSA Hausdorff distance, the
// cpptraj 2D-RMSD comparator and the Leaflet Finder cutoff graph. Each
// kernel takes a KernelPolicy selecting the scalar reference or the
// fast SIMD-lane tier. The fast tier's Hausdorff scan and cutoff
// predicate use the float lanes as a filter with a bounded error margin
// and confirm every deciding value with the scalar double expression,
// so their results are bit-identical to kScalar; rmsd2d keeps its float
// lanes (~1e-6 relative).
//
// Distances are compared in the squared-sum domain wherever possible:
// sqrt and the division by the atom count are monotone, so min/max and
// early-break decisions commute with them and only one sqrt per reduced
// value is ever taken.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdtask/common/thread_pool.h"
#include "mdtask/kernels/frame_pack.h"
#include "mdtask/kernels/policy.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::kernels {

/// Frames per inner tile of the Hausdorff row scan and the 2-D kernel.
/// The fast tier's Hausdorff early break applies at this granularity;
/// equivalence tests exercise sizes of kFrameTile +/- 1.
inline constexpr std::size_t kFrameTile = 16;

/// Column-tile width (points) of the fast-tier cutoff kernel.
inline constexpr std::size_t kCutoffTile = 256;

/// Sum of squared coordinate differences between frame `frame_a` of `a`
/// and frame `frame_b` of `b` (the pre-sqrt RMSD numerator). kScalar
/// reproduces the seed's accumulation order exactly; kVectorized returns
/// the float-lane sum (~1e-6 relative).
double frame_sumsq_packed(const FramePack& a, std::size_t frame_a,
                          const FramePack& b, std::size_t frame_b,
                          KernelPolicy policy) noexcept;

/// Directed Hausdorff h(A -> B) over packed trajectories, RMSD frame
/// metric; the value is bit-identical under both policies. kScalar runs
/// the seed's per-pair loop. kVectorized scans each row in float lanes;
/// in a row that can still raise the maximum it recomputes in
/// seed-order double only the frame pairs whose float sums lie within
/// the error bound of the row minimum (docs/PERFORMANCE.md).
/// With `early_break`, the Taha-Hanbury cutoff is applied per pair under
/// kScalar and at kFrameTile granularity under kVectorized: a row's scan
/// stops after the first tile whose upper bound on the row minimum can
/// no longer raise the directed maximum, so the evaluation count never
/// exceeds the naive frames(A) x frames(B).
/// `evals` (optional) accumulates the number of frame pairs scanned
/// (float-lane pairs under kVectorized; double confirmations are not
/// counted).
double hausdorff_directed_packed(const FramePack& a, const FramePack& b,
                                 bool early_break, KernelPolicy policy,
                                 std::size_t* evals = nullptr);

/// Symmetric Hausdorff max(h(A->B), h(B->A)) over packed trajectories.
double hausdorff_packed(const FramePack& a, const FramePack& b,
                        bool early_break, KernelPolicy policy,
                        std::size_t* evals = nullptr);

/// Symmetric Hausdorff with the two directed halves run as separate
/// pool tasks, co-scheduled on L2-sharing workers via
/// ThreadPool::submit_grouped(pair_id, 0|1): both halves stream the same
/// two packs, so placing them under one cache keeps the second half's
/// reads hot. Identical value (and eval count) to hausdorff_packed.
/// Call from a NON-worker thread — the caller blocks on both halves.
double hausdorff_packed_parallel(const FramePack& a, const FramePack& b,
                                 bool early_break, KernelPolicy policy,
                                 ThreadPool& pool, std::uint64_t pair_id,
                                 std::size_t* evals = nullptr);

/// Tiled all-pairs frame RMSD (the cpptraj "2D-RMSD" comparator):
/// out[i * b.frames() + j] = rmsd(a[i], b[j]); out.size() must be
/// a.frames() * b.frames(). Tiles of kFrameTile x kFrameTile frames keep
/// the B-side tile hot across the A-side rows.
void rmsd2d_packed(const FramePack& a, const FramePack& b,
                   KernelPolicy policy, std::span<double> out) noexcept;

/// Same kernel with the row-tile loop parallelized over `pool`. When
/// `tracer` is non-null each tile task emits a span on the executing
/// worker's track (category "kernels"), so per-tile speedups are visible
/// in --trace output.
void rmsd2d_packed_parallel(const FramePack& a, const FramePack& b,
                            KernelPolicy policy, ThreadPool& pool,
                            trace::Tracer* tracer, std::span<double> out);

/// A (row, col) hit of the cutoff kernel, indices local to the packs.
struct IndexPair {
  std::uint32_t row = 0;
  std::uint32_t col = 0;

  friend bool operator==(const IndexPair&, const IndexPair&) = default;
};

/// Appends every (i, j) with |rows[i] - cols[j]|^2 <= cutoff^2 to `out`,
/// in row-major scan order. Operates on frame 0 of each pack (the
/// point-cloud convention of pack_points). The squared-distance
/// expression matches traj::dist2 exactly, so both policies emit
/// identical pair lists.
void cutoff_pairs_packed(const FramePack& rows, const FramePack& cols,
                         double cutoff, KernelPolicy policy,
                         std::vector<IndexPair>& out);

}  // namespace mdtask::kernels
