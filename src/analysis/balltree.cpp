#include "mdtask/analysis/balltree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mdtask::analysis {

BallTree::BallTree(std::span<const traj::Vec3> points, std::size_t leaf_size,
                   kernels::KernelPolicy policy)
    : policy_(policy) {
  points_.assign(points.begin(), points.end());
  ids_.resize(points_.size());
  std::iota(ids_.begin(), ids_.end(), 0u);
  if (!points_.empty()) {
    nodes_.reserve(2 * points_.size() / std::max<std::size_t>(1, leaf_size));
    build(0, static_cast<std::uint32_t>(points_.size()),
          std::max<std::size_t>(1, leaf_size));
  }
  // SoA lanes mirror points_ after the build's reordering; leaf scans
  // stream them instead of the AoS structs.
  xs_.resize(points_.size());
  ys_.resize(points_.size());
  zs_.resize(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    xs_[i] = points_[i].x;
    ys_[i] = points_[i].y;
    zs_[i] = points_[i].z;
  }
}

std::uint32_t BallTree::build(std::uint32_t begin, std::uint32_t end,
                              std::size_t leaf_size) {
  const auto node_index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();

  // Bounding ball: centroid + max distance (cheap and tight enough).
  double cx = 0, cy = 0, cz = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    cx += points_[i].x;
    cy += points_[i].y;
    cz += points_[i].z;
  }
  const double n = end - begin;
  const traj::Vec3 center{static_cast<float>(cx / n),
                          static_cast<float>(cy / n),
                          static_cast<float>(cz / n)};
  double r2 = 0.0;
  for (std::uint32_t i = begin; i < end; ++i) {
    r2 = std::max(r2, traj::dist2(center, points_[i]));
  }

  Node node;
  node.center = center;
  node.radius = std::sqrt(r2);
  node.begin = begin;
  node.end = end;

  if (end - begin > leaf_size) {
    // Split at the median of the widest coordinate.
    float mins[3] = {points_[begin].x, points_[begin].y, points_[begin].z};
    float maxs[3] = {mins[0], mins[1], mins[2]};
    for (std::uint32_t i = begin; i < end; ++i) {
      const float c[3] = {points_[i].x, points_[i].y, points_[i].z};
      for (int d = 0; d < 3; ++d) {
        mins[d] = std::min(mins[d], c[d]);
        maxs[d] = std::max(maxs[d], c[d]);
      }
    }
    int dim = 0;
    float spread = maxs[0] - mins[0];
    for (int d = 1; d < 3; ++d) {
      if (maxs[d] - mins[d] > spread) {
        spread = maxs[d] - mins[d];
        dim = d;
      }
    }
    const std::uint32_t mid = begin + (end - begin) / 2;
    auto key = [dim](const traj::Vec3& p) {
      return dim == 0 ? p.x : dim == 1 ? p.y : p.z;
    };
    // Partition points and their ids in lockstep around the median.
    std::vector<std::uint32_t> order(end - begin);
    std::iota(order.begin(), order.end(), begin);
    std::nth_element(order.begin(), order.begin() + (mid - begin),
                     order.end(), [&](std::uint32_t a, std::uint32_t b) {
                       return key(points_[a]) < key(points_[b]);
                     });
    std::vector<traj::Vec3> tmp_points(end - begin);
    std::vector<std::uint32_t> tmp_ids(end - begin);
    for (std::uint32_t i = 0; i < end - begin; ++i) {
      tmp_points[i] = points_[order[i]];
      tmp_ids[i] = ids_[order[i]];
    }
    std::copy(tmp_points.begin(), tmp_points.end(), points_.begin() + begin);
    std::copy(tmp_ids.begin(), tmp_ids.end(), ids_.begin() + begin);

    node.left = static_cast<std::int32_t>(build(begin, mid, leaf_size));
    node.right = static_cast<std::int32_t>(build(mid, end, leaf_size));
  }

  nodes_[node_index] = node;
  return node_index;
}

void BallTree::scan_leaf(const Node& node, traj::Vec3 q, double r2,
                         std::vector<std::uint32_t>& out) const {
  if (policy_ == kernels::KernelPolicy::kScalar) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      if (traj::dist2(points_[i], q) <= r2) out.push_back(ids_[i]);
    }
    return;
  }
  // Branch-free SoA sweep: distances into a buffer first (the loop the
  // compiler vectorizes), then a branchless hit compaction — the same
  // two-pass shape as the fast-tier cutoff kernel.
  constexpr std::size_t kLeafTile = 256;
  double d2[kLeafTile];
  std::uint32_t hits[kLeafTile];
  const double qx = q.x, qy = q.y, qz = q.z;
  for (std::uint32_t t0 = node.begin; t0 < node.end;
       t0 += static_cast<std::uint32_t>(kLeafTile)) {
    const std::uint32_t t1 = std::min<std::uint32_t>(
        t0 + static_cast<std::uint32_t>(kLeafTile), node.end);
    const std::uint32_t w = t1 - t0;
    for (std::uint32_t j = 0; j < w; ++j) {
      const double dx = static_cast<double>(xs_[t0 + j]) - qx;
      const double dy = static_cast<double>(ys_[t0 + j]) - qy;
      const double dz = static_cast<double>(zs_[t0 + j]) - qz;
      d2[j] = dx * dx + dy * dy + dz * dz;
    }
    std::uint32_t m = 0;
    for (std::uint32_t j = 0; j < w; ++j) {
      hits[m] = t0 + j;
      m += d2[j] <= r2 ? 1 : 0;
    }
    for (std::uint32_t h = 0; h < m; ++h) out.push_back(ids_[hits[h]]);
  }
}

void BallTree::query(std::uint32_t node_index, traj::Vec3 q, double radius,
                     std::vector<std::uint32_t>& out) const {
  const Node& node = nodes_[node_index];
  const double d = traj::dist(node.center, q);
  if (d > radius + node.radius) return;  // ball cannot intersect query
  if (node.left < 0) {
    scan_leaf(node, q, radius * radius, out);
    return;
  }
  // If the query ball contains the node ball entirely, every point hits.
  if (d + node.radius <= radius) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      out.push_back(ids_[i]);
    }
    return;
  }
  query(static_cast<std::uint32_t>(node.left), q, radius, out);
  query(static_cast<std::uint32_t>(node.right), q, radius, out);
}

void BallTree::query_radius(traj::Vec3 q, double radius,
                            std::vector<std::uint32_t>& out) const {
  if (!nodes_.empty()) query(0, q, radius, out);
}

std::vector<std::uint32_t> BallTree::query_radius(traj::Vec3 q,
                                                  double radius) const {
  std::vector<std::uint32_t> out;
  query_radius(q, radius, out);
  return out;
}

}  // namespace mdtask::analysis
