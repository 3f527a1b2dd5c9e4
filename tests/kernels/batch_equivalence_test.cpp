// Property-based equivalence of the two KernelPolicy tiers.
//
// Contract under test (mdtask/kernels/policy.h):
//  * The kScalar pair sum reproduces the seed's frame_sumsq bit-for-bit.
//  * kVectorized Hausdorff distances equal kScalar's bit-for-bit (the
//    float lanes only filter; fast_tier_exactness_test.cpp stresses it).
//  * kVectorized pair sums and rmsd2d cells accumulate in single
//    precision: they agree with kScalar to ~1e-6 relative (asserted at
//    1e-4 with headroom).
//  * The cutoff kernel emits identical pair lists under every policy.
//  * The tile-granular early-break Hausdorff never evaluates more frame
//    pairs than the naive scan.
#include "mdtask/kernels/batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mdtask/analysis/rmsd.h"
#include "mdtask/common/rng.h"
#include "mdtask/traj/generators.h"

namespace mdtask::kernels {
namespace {

/// Relative tolerance for the single-precision kVectorized pair sums and
/// rmsd2d cells; the periodic double drain bounds the true error near
/// 1e-6.
constexpr double kVecRelTol = 1e-4;

traj::Trajectory make_traj(std::uint64_t seed, std::size_t frames,
                           std::size_t atoms) {
  traj::ProteinTrajectoryParams p;
  p.atoms = atoms;
  p.frames = frames;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

FramePack make_pack(std::uint64_t seed, std::size_t frames,
                    std::size_t atoms) {
  return pack_trajectory(make_traj(seed, frames, atoms));
}

std::vector<traj::Vec3> make_cloud(std::uint64_t seed, std::size_t n,
                                   double side) {
  Xoshiro256StarStar rng(seed);
  std::vector<traj::Vec3> pts(n);
  for (auto& p : pts) {
    p = {static_cast<float>(rng.uniform(0.0, side)),
         static_cast<float>(rng.uniform(0.0, side)),
         static_cast<float>(rng.uniform(0.0, side))};
  }
  return pts;
}

/// Sizes straddling the tile/padding boundaries the kernels block on.
const std::size_t kFrameSizes[] = {1, 2, kFrameTile - 1, kFrameTile,
                                   kFrameTile + 1, 37};
const std::size_t kAtomSizes[] = {1, 3, 15, 16, 17, 61};

// The kScalar pair sum is the confirmation sum of the fast Hausdorff
// tier, so it must stay the seed's frame_sumsq, bit for bit.
TEST(BatchEquivalenceTest, BlockedSumsqIsBitIdenticalToScalar) {
  std::uint64_t seed = 1;
  for (const std::size_t frames : kFrameSizes) {
    for (const std::size_t atoms : kAtomSizes) {
      const auto ta = make_traj(seed, frames, atoms);
      const auto tb = make_traj(seed + 1000, frames, atoms);
      const auto a = pack_trajectory(ta);
      const auto b = pack_trajectory(tb);
      ++seed;
      for (std::size_t i = 0; i < frames; ++i) {
        for (std::size_t j = 0; j < frames; ++j) {
          EXPECT_EQ(analysis::frame_sumsq(ta.frame(i), tb.frame(j)),
                    frame_sumsq_packed(a, i, b, j, KernelPolicy::kScalar))
              << "frames " << frames << " atoms " << atoms;
        }
      }
    }
  }
}

TEST(BatchEquivalenceTest, VectorizedSumsqWithinRelativeTolerance) {
  std::uint64_t seed = 50;
  for (const std::size_t frames : kFrameSizes) {
    for (const std::size_t atoms : kAtomSizes) {
      const auto a = make_pack(seed, frames, atoms);
      const auto b = make_pack(seed + 1000, frames, atoms);
      ++seed;
      for (std::size_t i = 0; i < frames; ++i) {
        for (std::size_t j = 0; j < frames; ++j) {
          const double ref =
              frame_sumsq_packed(a, i, b, j, KernelPolicy::kScalar);
          const double vec =
              frame_sumsq_packed(a, i, b, j, KernelPolicy::kVectorized);
          EXPECT_NEAR(vec, ref, kVecRelTol * std::max(ref, 1.0))
              << "frames " << frames << " atoms " << atoms;
        }
      }
    }
  }
}

TEST(BatchEquivalenceTest, SumsqSelfPairIsZeroUnderEveryPolicy) {
  const auto a = make_pack(7, 4, 33);
  for (const auto policy : kAllPolicies) {
    EXPECT_EQ(frame_sumsq_packed(a, 2, a, 2, policy), 0.0);
  }
}

TEST(BatchEquivalenceTest, HausdorffBlockedMatchesScalarExactly) {
  std::uint64_t seed = 100;
  for (const std::size_t frames : kFrameSizes) {
    const auto a = make_pack(seed, frames, 24);
    const auto b = make_pack(seed + 1, frames + 2, 24);
    ++seed;
    for (const bool early : {false, true}) {
      EXPECT_EQ(hausdorff_packed(a, b, early, KernelPolicy::kScalar),
                hausdorff_packed(a, b, early, KernelPolicy::kVectorized))
          << "frames " << frames << " early " << early;
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffVectorizedWithinTolerance) {
  // Same contract on other seeds and odd atom counts: exact, not near.
  std::uint64_t seed = 200;
  for (const std::size_t frames : kFrameSizes) {
    for (const std::size_t atoms : kAtomSizes) {
      const auto a = make_pack(seed, frames, atoms);
      const auto b = make_pack(seed + 1, frames + 2, atoms);
      ++seed;
      for (const bool early : {false, true}) {
        EXPECT_EQ(hausdorff_packed(a, b, early, KernelPolicy::kScalar),
                  hausdorff_packed(a, b, early, KernelPolicy::kVectorized))
            << "frames " << frames << " atoms " << atoms << " early "
            << early;
      }
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffEarlyBreakValueEqualsFullScan) {
  for (const auto policy : kAllPolicies) {
    for (std::uint64_t seed = 300; seed < 306; ++seed) {
      const auto a = make_pack(seed, 33, 16);
      const auto b = make_pack(seed + 40, 31, 16);
      EXPECT_DOUBLE_EQ(hausdorff_packed(a, b, false, policy),
                       hausdorff_packed(a, b, true, policy))
          << to_string(policy) << " seed " << seed;
    }
  }
}

TEST(BatchEquivalenceTest, EarlyBreakNeverEvaluatesMoreThanNaive) {
  for (const auto policy : kAllPolicies) {
    for (std::uint64_t seed = 400; seed < 406; ++seed) {
      const auto a = make_pack(seed, 40, 12);
      const auto b = make_pack(seed + 7, 35, 12);
      std::size_t naive_evals = 0, early_evals = 0;
      hausdorff_packed(a, b, false, policy, &naive_evals);
      hausdorff_packed(a, b, true, policy, &early_evals);
      EXPECT_EQ(naive_evals, 2u * 40u * 35u) << to_string(policy);
      EXPECT_LE(early_evals, naive_evals) << to_string(policy);
    }
  }
}

TEST(BatchEquivalenceTest, DirectedEarlyBreakEvalCountsAreTileGranular) {
  const auto a = make_pack(42, 37, 20);
  const auto b = make_pack(43, 41, 20);
  std::size_t evals = 0;
  hausdorff_directed_packed(a, b, true, KernelPolicy::kVectorized, &evals);
  EXPECT_LE(evals, 37u * 41u);
  EXPECT_GT(evals, 0u);
  // Each row is charged whole tiles (or its ragged last tile).
  std::size_t scalar_evals = 0;
  hausdorff_directed_packed(a, b, true, KernelPolicy::kScalar,
                            &scalar_evals);
  EXPECT_GE(evals, scalar_evals);
}

TEST(BatchEquivalenceTest, Rmsd2dPoliciesAgree) {
  std::uint64_t seed = 500;
  for (const std::size_t frames : kFrameSizes) {
    for (const std::size_t atoms : {15, 16, 17}) {
      const auto a = make_pack(seed, frames, atoms);
      const auto b = make_pack(seed + 9, frames + 1, atoms);
      ++seed;
      const std::size_t n = a.frames() * b.frames();
      std::vector<double> ref(n), vec(n);
      rmsd2d_packed(a, b, KernelPolicy::kScalar, ref);
      rmsd2d_packed(a, b, KernelPolicy::kVectorized, vec);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = k / b.frames(), j = k % b.frames();
        EXPECT_EQ(ref[k], std::sqrt(frame_sumsq_packed(
                              a, i, b, j, KernelPolicy::kScalar) /
                          static_cast<double>(atoms)))
            << "frames " << frames;
        EXPECT_NEAR(vec[k], ref[k], kVecRelTol * std::max(ref[k], 1.0))
            << "frames " << frames;
      }
    }
  }
}

TEST(BatchEquivalenceTest, Rmsd2dParallelMatchesSerial) {
  const auto a = make_pack(77, 3 * kFrameTile + 5, 21);
  const auto b = make_pack(78, 2 * kFrameTile + 3, 21);
  ThreadPool pool(4);
  for (const auto policy : kAllPolicies) {
    const std::size_t n = a.frames() * b.frames();
    std::vector<double> serial(n), parallel(n);
    rmsd2d_packed(a, b, policy, serial);
    rmsd2d_packed_parallel(a, b, policy, pool, nullptr, parallel);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_DOUBLE_EQ(parallel[k], serial[k]) << to_string(policy);
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffParallelMatchesSerialExactly) {
  // The grouped two-task split must not change the value OR the eval
  // count: each directed half is computed by the same serial kernel,
  // just on a co-scheduled worker pair.
  ThreadPool pool(4, topo::CpuTopology::synthetic(4, 1, 2), false);
  std::uint64_t seed = 1200;
  for (const std::size_t frames : {kFrameTile - 1, kFrameTile + 3}) {
    const auto a = make_pack(seed, frames, 19);
    const auto b = make_pack(seed + 5, frames + 2, 19);
    ++seed;
    for (const auto policy : kAllPolicies) {
      for (const bool early : {false, true}) {
        std::size_t serial_evals = 0, parallel_evals = 0;
        const double serial =
            hausdorff_packed(a, b, early, policy, &serial_evals);
        const double parallel = hausdorff_packed_parallel(
            a, b, early, policy, pool, /*pair_id=*/seed, &parallel_evals);
        EXPECT_DOUBLE_EQ(parallel, serial) << to_string(policy);
        EXPECT_EQ(parallel_evals, serial_evals) << to_string(policy);
      }
    }
  }
}

TEST(BatchEquivalenceTest, HausdorffParallelSingleWorkerFallsBackSerial) {
  ThreadPool pool(1, topo::CpuTopology::synthetic(1), false);
  const auto a = make_pack(31, kFrameTile, 12);
  const auto b = make_pack(32, kFrameTile, 12);
  EXPECT_DOUBLE_EQ(
      hausdorff_packed_parallel(a, b, true, KernelPolicy::kVectorized, pool,
                                0),
      hausdorff_packed(a, b, true, KernelPolicy::kVectorized));
}

TEST(BatchEquivalenceTest, CutoffPairListsIdenticalAcrossPolicies) {
  // Cloud sizes straddle kCutoffTile and the group width; the cutoff is
  // picked so a few percent of pairs hit.
  for (const std::size_t n : {std::size_t{1}, std::size_t{15},
                              std::size_t{255}, std::size_t{256},
                              std::size_t{257}, std::size_t{700}}) {
    const auto rows_cloud = make_cloud(600 + n, n, 20.0);
    const auto cols_cloud = make_cloud(900 + n, n + 3, 20.0);
    const auto rows = pack_points(rows_cloud);
    const auto cols = pack_points(cols_cloud);
    std::vector<IndexPair> ref, vec;
    cutoff_pairs_packed(rows, cols, 3.0, KernelPolicy::kScalar, ref);
    cutoff_pairs_packed(rows, cols, 3.0, KernelPolicy::kVectorized, vec);
    EXPECT_EQ(ref, vec) << "n " << n;
    EXPECT_FALSE(ref.empty() && n > 200) << "degenerate fixture, n " << n;
  }
}

TEST(BatchEquivalenceTest, CutoffHandlesEmptyOperands) {
  const auto pts = pack_points(make_cloud(1, 10, 5.0));
  const FramePack empty;
  std::vector<IndexPair> out;
  for (const auto policy : kAllPolicies) {
    out.clear();
    cutoff_pairs_packed(empty, pts, 3.0, policy, out);
    EXPECT_TRUE(out.empty());
    cutoff_pairs_packed(pts, empty, 3.0, policy, out);
    EXPECT_TRUE(out.empty());
  }
}

TEST(BatchEquivalenceTest, CutoffBoundaryPairIsInclusiveUnderEveryPolicy) {
  // Distance exactly equal to the cutoff must be a hit (<=, not <).
  const std::vector<traj::Vec3> a = {{0.0f, 0.0f, 0.0f}};
  const std::vector<traj::Vec3> b = {{3.0f, 0.0f, 0.0f},
                                     {3.0000005f, 0.0f, 0.0f}};
  const auto rows = pack_points(a);
  const auto cols = pack_points(b);
  for (const auto policy : kAllPolicies) {
    std::vector<IndexPair> out;
    cutoff_pairs_packed(rows, cols, 3.0, policy, out);
    ASSERT_EQ(out.size(), 1u) << to_string(policy);
    EXPECT_EQ(out[0], (IndexPair{0, 0})) << to_string(policy);
  }
}

TEST(BatchEquivalenceTest, CutoffDenseClusterAllPairsHit) {
  // Every point inside a tiny ball: the vectorized group pre-filter must
  // not drop any candidate when every group is full of hits.
  const auto cloud = make_cloud(5, 70, 0.5);
  const auto pack = pack_points(cloud);
  for (const auto policy : kAllPolicies) {
    std::vector<IndexPair> out;
    cutoff_pairs_packed(pack, pack, 3.0, policy, out);
    EXPECT_EQ(out.size(), 70u * 70u) << to_string(policy);
  }
}

}  // namespace
}  // namespace mdtask::kernels
