// BallTree nearest-neighbour index (Omohundro 1989), the paper's
// approach-4 edge-discovery structure (scikit-learn's BallTree stand-in).
//
// Construction is O(n log n) by recursive median splits on the widest
// coordinate; radius queries prune subtrees whose bounding ball cannot
// intersect the query ball. Reduces LF edge discovery from O(n^2) to
// ~O(n log n) (Sec. 4.3.4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mdtask/kernels/policy.h"
#include "mdtask/traj/vec3.h"

namespace mdtask::analysis {

class BallTree {
 public:
  /// Builds an index over `points`. The tree stores a copy of the points
  /// (reordered for locality) plus their original indices.
  /// `leaf_size` bounds the linear-scan fan-out at the leaves.
  /// `policy` selects the leaf-scan kernel: kScalar is the per-point
  /// branchy loop; kVectorized runs a branch-free SoA distance sweep over
  /// the leaf range. The per-point predicate
  /// (dist2(p, q) <= radius^2, double accumulation over float inputs) is
  /// the same expression under every policy, so query results are
  /// identical.
  explicit BallTree(std::span<const traj::Vec3> points,
                    std::size_t leaf_size = 32,
                    kernels::KernelPolicy policy =
                        kernels::default_policy());

  std::size_t size() const noexcept { return points_.size(); }

  /// Appends the original indices of all points within `radius` of `q`
  /// (inclusive) to `out`. `out` is not cleared.
  void query_radius(traj::Vec3 q, double radius,
                    std::vector<std::uint32_t>& out) const;

  /// Convenience wrapper returning a fresh vector.
  std::vector<std::uint32_t> query_radius(traj::Vec3 q, double radius) const;

  /// Number of tree nodes (exposed for tests/ablation).
  std::size_t node_count() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    traj::Vec3 center{};
    double radius = 0.0;
    std::uint32_t begin = 0;   ///< range into points_/ids_
    std::uint32_t end = 0;
    std::int32_t left = -1;    ///< child node index or -1 for leaf
    std::int32_t right = -1;
  };

  std::uint32_t build(std::uint32_t begin, std::uint32_t end,
                      std::size_t leaf_size);
  void query(std::uint32_t node, traj::Vec3 q, double radius,
             std::vector<std::uint32_t>& out) const;

  void scan_leaf(const Node& node, traj::Vec3 q, double r2,
                 std::vector<std::uint32_t>& out) const;

  std::vector<traj::Vec3> points_;     ///< reordered copies
  std::vector<std::uint32_t> ids_;     ///< original index per point
  std::vector<float> xs_, ys_, zs_;    ///< SoA lanes of points_ (leaf scans)
  std::vector<Node> nodes_;
  kernels::KernelPolicy policy_ = kernels::KernelPolicy::kScalar;
};

}  // namespace mdtask::analysis
