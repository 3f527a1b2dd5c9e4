// Bitwise differential test of the fast Hausdorff tier against the
// scalar oracle.
//
// kVectorized scans frame pairs in float lanes and confirms row minima in
// seed-order double (mdtask/kernels/batch.h), so its distances must equal
// kScalar's bit for bit, not merely to a tolerance. The inputs aim at the
// places a filter with an error margin can go wrong: exact duplicate
// frames (zero sums and tied minima), 1e-6 near-ties between frame pairs
// and between row minima, coordinate differences near 1e-20 whose float
// squares are subnormal, float squares that overflow, scales from 1e-4
// to 1e4, and frame and atom counts on either side of the tile and
// lane-padding boundaries.
// CI also runs this suite in the -march=native build, so exactness holds
// under AVX2/AVX-512/FMA codegen too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "mdtask/analysis/psa.h"
#include "mdtask/common/rng.h"
#include "mdtask/common/thread_pool.h"
#include "mdtask/kernels/batch.h"

namespace mdtask::kernels {
namespace {

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

enum class Shape { kDrift, kDuplicates, kNearTies, kSubnormal };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kDrift: return "drift";
    case Shape::kDuplicates: return "duplicates";
    case Shape::kNearTies: return "near-ties";
    case Shape::kSubnormal: return "subnormal";
  }
  return "?";
}

/// A random walk of `frames` conformations: uniform start in
/// [-scale, scale], Gaussian steps of `step` per coordinate.
traj::Trajectory random_walk(Xoshiro256StarStar& rng, std::size_t frames,
                             std::size_t atoms, double scale, double step) {
  traj::Trajectory t(frames, atoms);
  std::vector<double> pos(3 * atoms);
  for (auto& p : pos) p = rng.uniform(-scale, scale);
  for (std::size_t f = 0; f < frames; ++f) {
    auto frame = t.frame(f);
    for (std::size_t k = 0; k < atoms; ++k) {
      for (std::size_t c = 0; c < 3; ++c) pos[3 * k + c] += rng.normal(0, step);
      frame[k] = {static_cast<float>(pos[3 * k]),
                  static_cast<float>(pos[3 * k + 1]),
                  static_cast<float>(pos[3 * k + 2])};
    }
  }
  return t;
}

void copy_frame(const traj::Trajectory& from, std::size_t f,
                traj::Trajectory& to, std::size_t g) {
  const auto src = from.frame(f);
  auto dst = to.frame(g);
  for (std::size_t k = 0; k < src.size(); ++k) dst[k] = src[k];
}

/// Replaces frame `g` of `t` by frame `f` with one coordinate moved by
/// 1e-6 relative: the two frames' sums against any third frame nearly
/// tie.
void near_copy(traj::Trajectory& t, std::size_t f, std::size_t g,
               Xoshiro256StarStar& rng) {
  copy_frame(t, f, t, g);
  auto dst = t.frame(g);
  if (dst.empty()) return;
  auto& p = dst[rng.bounded(dst.size())];
  p.x = static_cast<float>(p.x * (1.0 + 1e-6) + 1e-6);
}

struct PathPair {
  traj::Trajectory a, b;
};

PathPair make_pair(std::uint64_t seed, std::size_t frames_a,
                   std::size_t frames_b, std::size_t atoms, double scale,
                   Shape shape) {
  Xoshiro256StarStar rng(seed);
  // Subnormal: coordinates (and so their differences) near 1e-20 or
  // 1e-22, whose squares are float subnormals (below 2^-126, about
  // 1.2e-38), the deeper ones only a few multiples of 2^-149; double
  // keeps them normal.
  const bool deep = seed % 2 == 0;
  const double s =
      shape == Shape::kSubnormal ? (deep ? 1e-22 : 1e-20) : scale;
  const double step = shape == Shape::kSubnormal ? 0.1 * s : 0.02 * scale;
  PathPair p{random_walk(rng, frames_a, atoms, s, step),
             random_walk(rng, frames_b, atoms, s, step)};
  if (shape == Shape::kDuplicates) {
    for (std::size_t j = 0; j < frames_b; ++j) {
      const auto pick = rng.bounded(3);
      if (pick == 0) copy_frame(p.a, rng.bounded(frames_a), p.b, j);
      if (pick == 1 && j > 0) copy_frame(p.b, j - 1, p.b, j);
    }
  } else if (shape == Shape::kNearTies) {
    for (std::size_t j = 1; j < frames_b; ++j) {
      if (rng.bounded(2) == 0) near_copy(p.b, j - 1, j, rng);
    }
    for (std::size_t i = 1; i < frames_a; ++i) {
      if (rng.bounded(2) == 0) near_copy(p.a, i - 1, i, rng);
    }
  }
  return p;
}

/// Both directions, early break on and off: kVectorized must return the
/// scalar value bit for bit; the full scan charges the same evals.
void expect_directed_exact(const FramePack& a, const FramePack& b,
                           const std::string& what) {
  for (const bool early : {false, true}) {
    for (const bool forward : {true, false}) {
      const FramePack& x = forward ? a : b;
      const FramePack& y = forward ? b : a;
      std::size_t scalar_evals = 0, fast_evals = 0;
      const double ref = hausdorff_directed_packed(
          x, y, early, KernelPolicy::kScalar, &scalar_evals);
      const double got = hausdorff_directed_packed(
          x, y, early, KernelPolicy::kVectorized, &fast_evals);
      EXPECT_TRUE(same_bits(ref, got))
          << what << " early " << early << " forward " << forward
          << std::hexfloat << ": scalar " << ref << " vectorized " << got;
      const std::size_t naive = x.atoms() == 0 ? 0 : x.frames() * y.frames();
      if (early) {
        EXPECT_LE(fast_evals, naive) << what;
      } else {
        EXPECT_EQ(fast_evals, naive) << what;
        EXPECT_EQ(scalar_evals, naive) << what;
      }
    }
  }
}

const Shape kShapes[] = {Shape::kDrift, Shape::kDuplicates,
                         Shape::kNearTies, Shape::kSubnormal};

TEST(FastTierExactnessTest, DirectedHausdorffIsBitIdenticalToScalar) {
  // atoms % 16 in {0, 1, 15}, plus 0 atoms; frames 1, kFrameTile +/- 1
  // and 40.
  const std::size_t frame_sizes[] = {1, kFrameTile - 1, kFrameTile + 1, 40};
  const std::size_t atom_sizes[] = {0, 1, 15, 16, 17, 31, 32, 33, 47, 113};
  const double scales[] = {1e-4, 1.0, 1e4};
  std::uint64_t seed = 1;
  for (const Shape shape : kShapes) {
    for (const double scale : scales) {
      for (const std::size_t frames : frame_sizes) {
        for (const std::size_t atoms : atom_sizes) {
          const auto p =
              make_pair(seed++, frames, frames + 3, atoms, scale, shape);
          expect_directed_exact(
              pack_trajectory(p.a), pack_trajectory(p.b),
              std::string(shape_name(shape)) + " scale " +
                  std::to_string(scale) + " frames " +
                  std::to_string(frames) + " atoms " + std::to_string(atoms));
        }
      }
    }
  }
}

TEST(FastTierExactnessTest, RandomDirectedCasesAreBitIdentical) {
  Xoshiro256StarStar rng(20181);
  const double scales[] = {1e-4, 1e-2, 1.0, 1e2, 1e4};
  for (int c = 0; c < 600; ++c) {
    const std::size_t fa = 1 + rng.bounded(40);
    const std::size_t fb = 1 + rng.bounded(40);
    const std::size_t atoms = rng.bounded(70);
    const double scale = scales[rng.bounded(5)];
    const Shape shape = kShapes[rng.bounded(4)];
    const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(c);
    const auto p = make_pair(seed, fa, fb, atoms, scale, shape);
    expect_directed_exact(pack_trajectory(p.a), pack_trajectory(p.b),
                          "case " + std::to_string(c) + " " +
                              shape_name(shape));
  }
}

TEST(FastTierExactnessTest, FloatLaneOverflowIsConfirmedInDouble) {
  // A's one frame sits at the origin. B's frame 0 puts all 16 atoms at
  // x = 1e19: every lane holds 1e38, so the float sum stays finite
  // (1.6e39 once drained into double). B's frame 1 moves atom 0 alone to
  // x = 2e19: its float square overflows to +inf, yet its exact sum
  // (4e38) is the row minimum.
  traj::Trajectory a(1, 16), b(2, 16);
  for (auto& p : b.frame(0)) p.x = 1e19f;
  b.frame(1)[0].x = 2e19f;
  expect_directed_exact(pack_trajectory(a), pack_trajectory(b), "overflow");
  EXPECT_EQ(hausdorff_directed_packed(pack_trajectory(a), pack_trajectory(b),
                                      false, KernelPolicy::kVectorized),
            static_cast<double>(2e19f) / 4);
}

TEST(FastTierExactnessTest, ParallelHausdorffIsBitIdenticalToScalar) {
  ThreadPool pool(4, topo::CpuTopology::synthetic(4, 1, 2), false);
  std::uint64_t seed = 900;
  for (const Shape shape : kShapes) {
    for (const std::size_t frames : {kFrameTile - 1, std::size_t{40}}) {
      const auto p = make_pair(seed, frames, frames + 1, 33, 1.0, shape);
      const auto a = pack_trajectory(p.a);
      const auto b = pack_trajectory(p.b);
      for (const bool early : {false, true}) {
        const double ref = hausdorff_packed(a, b, early, KernelPolicy::kScalar);
        const double got = hausdorff_packed_parallel(
            a, b, early, KernelPolicy::kVectorized, pool, seed);
        EXPECT_TRUE(same_bits(ref, got))
            << shape_name(shape) << " frames " << frames << " early "
            << early;
      }
      ++seed;
    }
  }
}

TEST(FastTierExactnessTest, PsaParallelMatrixIsBitIdenticalToScalar) {
  ThreadPool pool(4);
  for (const Shape shape : kShapes) {
    // Members of mixed lengths; duplicates and near-ties also repeat
    // whole frames across members.
    traj::Ensemble ensemble;
    std::uint64_t seed = 700;
    for (const std::size_t frames : {std::size_t{1}, kFrameTile - 1,
                                     kFrameTile + 1, std::size_t{40}}) {
      auto p = make_pair(seed++, frames, frames, 17, 1.0, shape);
      ensemble.push_back(std::move(p.a));
      ensemble.push_back(std::move(p.b));
    }
    for (const auto kernel : {analysis::HausdorffKernel::kNaive,
                              analysis::HausdorffKernel::kEarlyBreak}) {
      const auto ref =
          analysis::psa_reference(ensemble, kernel, KernelPolicy::kScalar);
      const auto got = analysis::psa_parallel(ensemble, kernel,
                                              KernelPolicy::kVectorized, pool);
      ASSERT_EQ(ref.size(), got.size());
      EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(),
                            ref.data().size() * sizeof(double)),
                0)
          << shape_name(shape);
    }
  }
}

}  // namespace
}  // namespace mdtask::kernels
