// Policy equivalence of the analysis-layer entry points wired onto the
// batch kernels: Hausdorff overloads, PSA, the Leaflet edge kernels, the
// BallTree leaf scan and the cpptraj 2D-RMSD tiled kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mdtask/analysis/balltree.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/analysis/leaflet.h"
#include "mdtask/analysis/pairwise.h"
#include "mdtask/analysis/psa.h"
#include "mdtask/analysis/rmsd.h"
#include "mdtask/cpptraj/rmsd2d.h"
#include "mdtask/traj/catalog.h"
#include "mdtask/traj/generators.h"

namespace mdtask::analysis {
namespace {

constexpr double kVecRelTol = 1e-4;

traj::Trajectory make_traj(std::uint64_t seed, std::size_t frames = 18,
                           std::size_t atoms = 24) {
  traj::ProteinTrajectoryParams p;
  p.atoms = atoms;
  p.frames = frames;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

traj::Ensemble make_ensemble(std::size_t n, std::uint64_t seed = 1) {
  traj::Ensemble e;
  for (std::size_t i = 0; i < n; ++i) {
    e.push_back(make_traj(seed + i, 10 + (i % 3), 16));
  }
  return e;
}

TEST(HausdorffPolicyTest, BlockedMatchesScalarExactly) {
  const auto a = make_traj(1), b = make_traj(2);
  EXPECT_EQ(hausdorff_naive(a, b, kernels::KernelPolicy::kScalar),
            hausdorff_naive(a, b, kernels::KernelPolicy::kVectorized));
  EXPECT_EQ(hausdorff_early_break(a, b, kernels::KernelPolicy::kScalar),
            hausdorff_early_break(a, b, kernels::KernelPolicy::kVectorized));
}

TEST(HausdorffPolicyTest, ScalarPolicyMatchesFrameMetricPath) {
  // The devirtualized kScalar fast path must reproduce the pluggable
  // std::function path bit-for-bit.
  const auto a = make_traj(3), b = make_traj(4);
  const FrameMetric metric = [](std::span<const traj::Vec3> x,
                                std::span<const traj::Vec3> y) {
    return frame_rmsd(x, y);
  };
  EXPECT_DOUBLE_EQ(hausdorff_naive(a, b, metric),
                   hausdorff_naive(a, b, kernels::KernelPolicy::kScalar));
  EXPECT_DOUBLE_EQ(
      hausdorff_early_break(a, b, metric),
      hausdorff_early_break(a, b, kernels::KernelPolicy::kScalar));
}

TEST(HausdorffPolicyTest, VectorizedWithinTolerance) {
  const auto a = make_traj(5), b = make_traj(6);
  EXPECT_EQ(hausdorff_naive(a, b, kernels::KernelPolicy::kScalar),
            hausdorff_naive(a, b, kernels::KernelPolicy::kVectorized));
}

/// Bitwise equality of two distance matrices.
void expect_matrices_identical(const DistanceMatrix& a,
                               const DistanceMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(double)),
            0);
}

TEST(PsaPolicyTest, ReferenceMatrixIdenticalScalarVsBlocked) {
  const auto ensemble = make_ensemble(6);
  const auto scalar = psa_reference(ensemble, HausdorffKernel::kNaive,
                                    kernels::KernelPolicy::kScalar);
  const auto vec = psa_reference(ensemble, HausdorffKernel::kNaive,
                                 kernels::KernelPolicy::kVectorized);
  expect_matrices_identical(scalar, vec);
}

TEST(PsaPolicyTest, VectorizedMatrixWithinTolerance) {
  const auto ensemble = make_ensemble(5);
  const auto scalar = psa_reference(ensemble, HausdorffKernel::kEarlyBreak,
                                    kernels::KernelPolicy::kScalar);
  const auto vec = psa_reference(ensemble, HausdorffKernel::kEarlyBreak,
                                 kernels::KernelPolicy::kVectorized);
  expect_matrices_identical(scalar, vec);
}

TEST(PsaPolicyTest, ParallelMatchesReferenceUnderEveryPolicy) {
  const auto ensemble = make_ensemble(7);
  ThreadPool pool(4);
  for (const auto policy : kernels::kAllPolicies) {
    const auto serial =
        psa_reference(ensemble, HausdorffKernel::kEarlyBreak, policy);
    const auto parallel = psa_parallel(
        ensemble, HausdorffKernel::kEarlyBreak, policy, pool);
    EXPECT_EQ(serial.max_abs_diff(parallel), 0.0)
        << kernels::to_string(policy);
  }
}

struct LfFixture {
  traj::Bilayer bilayer;
  double cutoff;

  explicit LfFixture(std::size_t atoms, std::uint64_t seed = 7) {
    traj::BilayerParams p;
    p.atoms = atoms;
    p.seed = seed;
    bilayer = traj::make_bilayer(p);
    cutoff = traj::default_cutoff(p);
  }
};

TEST(LeafletPolicyTest, EdgesWithinCutoffIdenticalAcrossPolicies) {
  const LfFixture fx(300);
  const std::span<const traj::Vec3> atoms(fx.bilayer.positions);
  std::vector<std::uint32_t> ids(atoms.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const auto xs = atoms.subspan(0, 120);
  const auto ys = atoms.subspan(120);
  const auto x_ids = std::span<const std::uint32_t>(ids).subspan(0, 120);
  const auto y_ids = std::span<const std::uint32_t>(ids).subspan(120);
  const auto legacy = edges_within_cutoff(xs, ys, x_ids, y_ids, fx.cutoff);
  for (const auto policy : kernels::kAllPolicies) {
    const auto got =
        edges_within_cutoff(xs, ys, x_ids, y_ids, fx.cutoff, policy);
    EXPECT_EQ(got, legacy) << kernels::to_string(policy);
  }
  EXPECT_FALSE(legacy.empty());
}

TEST(LeafletPolicyTest, MapKernelsIdenticalAcrossPolicies) {
  const LfFixture fx(240);
  const std::span<const traj::Vec3> atoms(fx.bilayer.positions);
  const auto chunks = make_1d_chunks(atoms.size(), 4);
  const auto blocks = make_2d_blocks(atoms.size(), 10);
  for (const auto policy : kernels::kAllPolicies) {
    for (const auto& chunk : chunks) {
      EXPECT_EQ(lf_edges_1d(atoms, chunk, fx.cutoff, policy),
                lf_edges_1d(atoms, chunk, fx.cutoff))
          << kernels::to_string(policy);
    }
    for (const auto& block : blocks) {
      EXPECT_EQ(lf_edges_2d(atoms, block, fx.cutoff, policy),
                lf_edges_2d(atoms, block, fx.cutoff))
          << kernels::to_string(policy);
      EXPECT_EQ(lf_edges_tree(atoms, block, fx.cutoff, policy),
                lf_edges_tree(atoms, block, fx.cutoff,
                              kernels::KernelPolicy::kScalar))
          << kernels::to_string(policy);
    }
  }
}

TEST(BallTreePolicyTest, QueriesIdenticalAcrossPolicies) {
  const LfFixture fx(500);
  const std::span<const traj::Vec3> atoms(fx.bilayer.positions);
  BallTree scalar_tree(atoms, 32, kernels::KernelPolicy::kScalar);
  for (const auto policy : kernels::kAllPolicies) {
    BallTree tree(atoms, 32, policy);
    for (std::size_t q = 0; q < atoms.size(); q += 37) {
      std::vector<std::uint32_t> expect, got;
      scalar_tree.query_radius(atoms[q], fx.cutoff, expect);
      tree.query_radius(atoms[q], fx.cutoff, got);
      std::sort(expect.begin(), expect.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expect) << kernels::to_string(policy) << " q " << q;
    }
  }
}

TEST(Rmsd2dKernelTest, TiledAgreesWithReference) {
  const auto a = make_traj(30, 20, 24), b = make_traj(31, 22, 24);
  const auto ref = cpptraj::rmsd2d_block(a, b, cpptraj::Rmsd2dKernel::kReference);
  const auto tiled = cpptraj::rmsd2d_block(a, b, cpptraj::Rmsd2dKernel::kTiled);
  ASSERT_EQ(ref.size(), tiled.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_NEAR(tiled[k], ref[k], kVecRelTol * std::max(ref[k], 1.0));
  }
}

}  // namespace
}  // namespace mdtask::analysis
