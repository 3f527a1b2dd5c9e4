// Batch kernel implementations. This TU is compiled -O3 -funroll-loops
// in every build type (see src/CMakeLists.txt) so the lane loops below
// vectorize; the MDTASK_NATIVE_ARCH CMake option additionally enables
// -march=native for wider vectors.
#include "mdtask/kernels/batch.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <utility>

namespace mdtask::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Independent accumulator lanes of the vectorized sum-of-squares; 16
/// floats = one AVX-512 vector / two AVX2 vectors / four SSE2 vectors,
/// and exactly the FramePack padding granularity (kLanePadFloats), so
/// the lane loop needs no tail.
constexpr std::size_t kLanes = 16;

/// Floats processed per lane between drains of the float partial sums
/// into double accumulators. Bounds the single-precision accumulation
/// error at ~kDrainIters * 2^-24 relative (worst case ~1.5e-5, typical
/// ~1e-6) independent of frame size.
constexpr std::size_t kDrainIters = 256;

/// Seed-order scalar pair kernel: one accumulator, per-atom
/// `s += dx*dx + dy*dy + dz*dz` exactly as analysis::frame_sumsq.
double pair_sumsq_scalar(const float* ax, const float* ay, const float* az,
                         const float* bx, const float* by, const float* bz,
                         std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = static_cast<double>(ax[k]) - bx[k];
    const double dy = static_cast<double>(ay[k]) - by[k];
    const double dz = static_cast<double>(az[k]) - bz[k];
    s += dx * dx + dy * dy + dz * dz;
  }
  return s;
}

/// Multi-accumulator pair kernel: squared differences are computed and
/// accumulated in single precision (the input positions are floats, and
/// the squares are all non-negative, so there is no cancellation), with
/// the float lanes drained into double accumulators every kDrainIters
/// iterations and pairwise-reduced in double at the end. Relative error
/// vs the scalar double sum is ~1e-6 worst case. `n_padded` may extend
/// into the packs' zero padding (zero diffs add exactly 0.0f), letting
/// the main loop run without a scalar tail; it must be a multiple of
/// kLanes.
double pair_sumsq_lanes(const float* ax, const float* ay, const float* az,
                        const float* bx, const float* by, const float* bz,
                        std::size_t n_padded) noexcept {
  double total[kLanes] = {};
  std::size_t k = 0;
  while (k < n_padded) {
    const std::size_t chunk_end =
        std::min(n_padded, k + kDrainIters * kLanes);
    float acc[kLanes] = {};
    for (; k < chunk_end; k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const float dx = ax[k + l] - bx[k + l];
        const float dy = ay[k + l] - by[k + l];
        const float dz = az[k + l] - bz[k + l];
        acc[l] += dx * dx + dy * dy + dz * dz;
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) total[l] += acc[l];
  }
  double pair[kLanes / 2];
  for (std::size_t l = 0; l < kLanes / 2; ++l) {
    pair[l] = total[2 * l] + total[2 * l + 1];
  }
  return (((pair[0] + pair[1]) + (pair[2] + pair[3])) +
          ((pair[4] + pair[5]) + (pair[6] + pair[7])));
}

double pair_sumsq(const FramePack& a, std::size_t i, const FramePack& b,
                  std::size_t j, KernelPolicy policy) noexcept {
  if (policy == KernelPolicy::kVectorized) {
    // Both packs share the atom count in every caller, hence the stride.
    return pair_sumsq_lanes(a.x(i), a.y(i), a.z(i), b.x(j), b.y(j), b.z(j),
                            a.stride());
  }
  return pair_sumsq_scalar(a.x(i), a.y(i), a.z(i), b.x(j), b.y(j), b.z(j),
                           a.atoms());
}

/// RMSD from a squared sum; 0 atoms is defined as distance 0 (the packed
/// kernels' uniform convention for degenerate inputs).
double rmsd_from_sumsq(double sumsq, std::size_t atoms) noexcept {
  return atoms == 0 ? 0.0 : std::sqrt(sumsq / static_cast<double>(atoms));
}

/// Scalar-policy directed scan: the seed's per-pair loop (metric value
/// computed and compared in the RMSD domain, per-pair early break) so
/// values AND evaluation counts are bit-identical to the seed.
double directed_scalar(const FramePack& a, const FramePack& b,
                       bool early_break, std::size_t* evals) noexcept {
  const std::size_t atoms = a.atoms();
  double cmax = 0.0;
  for (std::size_t i = 0; i < a.frames(); ++i) {
    double cmin = kInf;
    for (std::size_t j = 0; j < b.frames(); ++j) {
      const double d =
          rmsd_from_sumsq(pair_sumsq(a, i, b, j, KernelPolicy::kScalar),
                          atoms);
      if (evals) ++*evals;
      if (d < cmin) {
        cmin = d;
        if (early_break && cmin <= cmax) break;
      }
    }
    if (cmin > cmax) cmax = cmin;
  }
  return cmax;
}

/// Relative error bound e of a float-lane pair sum F against the
/// seed-order double sum S of the same frame pair.
///
/// Each lane sums at most kDrainIters float terms dx*dx + dy*dy + dz*dz
/// before it is drained into double. A term is non-negative and within
/// 5u of its exact value, u = 2^-24 (the rounded difference counts twice
/// once squared, then one product and two additions; fused operations
/// only round less), and recursive summation of n non-negative terms
/// adds at most n*u, so a drained chunk is within (kDrainIters + 5)u +
/// O(u^2) of exact. The drains and the final pairwise reduction run in
/// double, and S is itself within (atoms + 5) * 2^-53 of exact (below
/// 2^-23 for fewer than 2^30 atoms). With every term non-negative the
/// relative bounds carry over to the totals:
///   |F - S| <= (kDrainIters + 8) * 2^-24 * S + t,
/// and e = 2^-14 >= 264 * 2^-24 leaves a margin of 4.
constexpr double kLaneRelErr = 0x1p-14;
static_assert(kLaneRelErr >= (kDrainIters + 8) * 0x1p-24,
              "kLaneRelErr must cover the float-lane accumulation error");

/// Absolute slack t of the bound above, per float of a lane (t is this
/// times the padded stride). The relative bound fails once a float
/// square leaves the normal range: with gradual underflow each of the
/// three products per atom is off by at most 2^-150 absolute (subnormal
/// additions are exact). 3 * 2^-126 per atom covers that with a 2^24
/// margin, and would also cover a product flushed to zero.
constexpr double kLaneAbsErrPerAtom = 3 * 0x1p-126;

/// Fast-tier directed scan: a float-lane filter with seed-order double
/// confirmation, bit-identical to directed_scalar.
///
/// With |F - S| <= e*S + t, each frame pair's exact sum S lies in
///   [lo(F), hi(F)] = [(F - t)(1 - e), (F + t)(1 + 2e)]
/// ((1 - e) <= 1/(1 + e) and (1 + 2e) >= 1/(1 - e), with slack far above
/// the roundings of these double expressions; where lo < 0, S >= 0
/// bounds S anyway). Both bounds are monotone in F, so a row whose
/// smallest float sum is f_min has its exact minimum in
/// [lo(f_min), hi(f_min)].
///
/// Pass 1 scans every row in float lanes, one kFrameTile tile at a time,
/// and keeps L, the largest row lower bound (a lower bound on the result
/// M, the largest exact row minimum). A row whose upper bound is <= L
/// cannot raise M; with `early_break` its scan stops at the first tile
/// where that holds (Taha-Hanbury at tile granularity).
///
/// Pass 2 confirms rows in decreasing order of their upper bound: the
/// row's float sums are recomputed into the row buffer, and the exact
/// minimum is the least pair_sumsq_scalar over the pairs with
/// lo(f[j]) <= hi(row) (every other pair exceeds the row minimum). Once
/// the next row's upper bound is <= the running exact maximum, no
/// remaining row can raise it. The result is the maximum of exact
/// seed-order row minima, and because sqrt(x / atoms) is monotone the
/// returned RMSD equals the scalar scan's bit for bit.
///
/// Why two passes: row minima grow along a trajectory, so confirming
/// each row as it is scanned would confirm almost every row, about one
/// scalar pair (the cost of ~6 float pairs) per row. Sorting by upper
/// bound confirms one or two rows per call instead, which keeps short
/// trajectories (few float pairs per row) near the unconfirmed cost.
///
/// A float sum that overflowed (F = +inf) bounds nothing: it is always
/// a candidate and its row's lower bound is 0. A NaN sum (NaN input) is
/// never a candidate, matching the scalar scan, which never takes a NaN
/// minimum.
double directed_filtered(const FramePack& a, const FramePack& b,
                         bool early_break, std::size_t* evals) {
  const std::size_t nb = b.frames();
  const std::size_t atoms = a.atoms();
  const double e = kLaneRelErr;
  const double t = static_cast<double>(a.stride()) * kLaneAbsErrPerAtom;
  const auto lo = [&](double f) { return (f - t) * (1.0 - e); };
  const auto hi = [&](double f) { return (f + t) * (1.0 + 2.0 * e); };
  std::vector<double> f(nb);
  // Fills f[j0, j1) for row i and returns their minimum, setting
  // `overflow` when one of them is +inf.
  const auto fill = [&](std::size_t i, std::size_t j0, std::size_t j1,
                        bool& overflow) {
    double f_min = kInf;
    for (std::size_t j = j0; j < j1; ++j) {
      f[j] = pair_sumsq_lanes(a.x(i), a.y(i), a.z(i), b.x(j), b.y(j),
                              b.z(j), a.stride());
      if (f[j] < f_min) f_min = f[j];
      if (f[j] == kInf) overflow = true;
    }
    return f_min;
  };

  // Pass 1: (upper bound, row) of every row that may still raise M.
  std::vector<std::pair<double, std::size_t>> rows;
  rows.reserve(a.frames());
  double floor_ss = 0.0;  // L; the scalar scan's maximum starts at 0
  for (std::size_t i = 0; i < a.frames(); ++i) {
    double f_min = kInf;
    bool overflow = false;
    bool skipped = false;
    for (std::size_t j0 = 0; j0 < nb && !skipped; j0 += kFrameTile) {
      const std::size_t j1 = std::min(j0 + kFrameTile, nb);
      f_min = std::min(f_min, fill(i, j0, j1, overflow));
      if (evals) *evals += j1 - j0;
      skipped = early_break && hi(f_min) <= floor_ss;
    }
    if (skipped) continue;
    floor_ss = std::max(floor_ss, overflow ? 0.0 : lo(f_min));
    rows.emplace_back(hi(f_min), i);
  }

  // Pass 2: exact row minima, largest upper bound first.
  std::sort(rows.begin(), rows.end(), std::greater<>());
  double cmax_ss = 0.0;
  for (const auto& [row_hi, i] : rows) {
    if (row_hi <= cmax_ss) break;
    bool overflow = false;
    fill(i, 0, nb, overflow);
    double row_min = kInf;
    for (std::size_t j = 0; j < nb; ++j) {
      if (lo(f[j]) <= row_hi || f[j] == kInf) {
        const double s = pair_sumsq_scalar(a.x(i), a.y(i), a.z(i), b.x(j),
                                           b.y(j), b.z(j), atoms);
        if (s < row_min) row_min = s;
      }
    }
    cmax_ss = std::max(cmax_ss, row_min);
  }
  return rmsd_from_sumsq(cmax_ss, atoms);
}

}  // namespace

double frame_sumsq_packed(const FramePack& a, std::size_t frame_a,
                          const FramePack& b, std::size_t frame_b,
                          KernelPolicy policy) noexcept {
  return pair_sumsq(a, frame_a, b, frame_b, policy);
}

double hausdorff_directed_packed(const FramePack& a, const FramePack& b,
                                 bool early_break, KernelPolicy policy,
                                 std::size_t* evals) {
  if (a.atoms() == 0) {
    // Degenerate topology: every frame distance is 0 by convention (no
    // metric evaluations are charged under any policy).
    return 0.0;
  }
  if (policy == KernelPolicy::kScalar) {
    return directed_scalar(a, b, early_break, evals);
  }
  return directed_filtered(a, b, early_break, evals);
}

double hausdorff_packed(const FramePack& a, const FramePack& b,
                        bool early_break, KernelPolicy policy,
                        std::size_t* evals) {
  return std::max(hausdorff_directed_packed(a, b, early_break, policy, evals),
                  hausdorff_directed_packed(b, a, early_break, policy, evals));
}

double hausdorff_packed_parallel(const FramePack& a, const FramePack& b,
                                 bool early_break, KernelPolicy policy,
                                 ThreadPool& pool, std::uint64_t pair_id,
                                 std::size_t* evals) {
  if (pool.size() <= 1) return hausdorff_packed(a, b, early_break, policy,
                                                evals);
  // Same group, distinct member hints: the router places both halves in
  // one L2 domain, on different workers where the domain has them.
  std::size_t evals_ab = 0, evals_ba = 0;
  auto ab = pool.submit_grouped(pair_id, 0, [&] {
    return hausdorff_directed_packed(a, b, early_break, policy, &evals_ab);
  });
  auto ba = pool.submit_grouped(pair_id, 1, [&] {
    return hausdorff_directed_packed(b, a, early_break, policy, &evals_ba);
  });
  const double hab = ab.get();
  const double hba = ba.get();
  if (evals != nullptr) *evals += evals_ab + evals_ba;
  return std::max(hab, hba);
}

namespace {

/// Fills the rmsd2d rows [i0, i1) of `out`, walking B in kFrameTile
/// column tiles so each B tile stays hot across the rows.
void rmsd2d_rows(const FramePack& a, const FramePack& b, KernelPolicy policy,
                 std::size_t i0, std::size_t i1,
                 std::span<double> out) noexcept {
  const std::size_t nb = b.frames();
  const std::size_t atoms = a.atoms();
  for (std::size_t j0 = 0; j0 < nb; j0 += kFrameTile) {
    const std::size_t j1 = std::min(j0 + kFrameTile, nb);
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = j0; j < j1; ++j) {
        out[i * nb + j] =
            rmsd_from_sumsq(pair_sumsq(a, i, b, j, policy), atoms);
      }
    }
  }
}

}  // namespace

void rmsd2d_packed(const FramePack& a, const FramePack& b,
                   KernelPolicy policy, std::span<double> out) noexcept {
  const std::size_t na = a.frames();
  for (std::size_t i0 = 0; i0 < na; i0 += kFrameTile) {
    rmsd2d_rows(a, b, policy, i0, std::min(i0 + kFrameTile, na), out);
  }
}

void rmsd2d_packed_parallel(const FramePack& a, const FramePack& b,
                            KernelPolicy policy, ThreadPool& pool,
                            trace::Tracer* tracer, std::span<double> out) {
  const std::size_t na = a.frames();
  if (pool.size() <= 1 || na <= kFrameTile) {
    rmsd2d_packed(a, b, policy, out);
    return;
  }
  const std::size_t n_tiles = (na + kFrameTile - 1) / kFrameTile;
  const std::size_t groups = pool.locality_groups();
  std::vector<std::future<void>> tiles;
  tiles.reserve(n_tiles);
  for (std::size_t i0 = 0; i0 < na; i0 += kFrameTile) {
    const std::size_t i1 = std::min(i0 + kFrameTile, na);
    // Contiguous row-tile chunks per L2 group: neighbouring tiles walk
    // the same B-side tiles, so co-locating them shares those reads.
    const std::size_t tile_idx = i0 / kFrameTile;
    const std::uint64_t group = tile_idx * groups / n_tiles;
    tiles.push_back(pool.submit_grouped(
        group, tile_idx, [&a, &b, policy, tracer, out, i0, i1] {
      trace::Span span;
      if (tracer != nullptr) {
        if (const trace::Track* track = ThreadPool::current_worker_track()) {
          span = tracer->span(*track, "rmsd2d-tile", "kernels");
          span.arg_num("rows", static_cast<double>(i1 - i0));
        }
      }
      // Row tiles are disjoint slices of `out`, safe to fill in parallel.
      rmsd2d_rows(a, b, policy, i0, i1, out);
    }));
  }
  for (auto& t : tiles) t.get();
}

namespace {

/// Row block height of the fast-tier cutoff kernel: hits are buffered
/// per row across column tiles so the emitted order stays row-major.
constexpr std::size_t kCutoffRowTile = 32;

void cutoff_scalar(const float* rx, const float* ry, const float* rz,
                   std::size_t nr, const float* cx, const float* cy,
                   const float* cz, std::size_t nc, double c2,
                   std::vector<IndexPair>& out) {
  for (std::size_t i = 0; i < nr; ++i) {
    const double xi = rx[i], yi = ry[i], zi = rz[i];
    for (std::size_t j = 0; j < nc; ++j) {
      const double dx = xi - cx[j];
      const double dy = yi - cy[j];
      const double dz = zi - cz[j];
      if (dx * dx + dy * dy + dz * dz <= c2) {
        out.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
      }
    }
  }
}

/// Candidate-group width of the vectorized cutoff pre-filter: one
/// cmpps-reduced block. Must divide kCutoffTile.
constexpr std::size_t kCutoffGroup = 16;

void cutoff_tiled(const float* rx, const float* ry, const float* rz,
                  std::size_t nr, const float* cx, const float* cy,
                  const float* cz, std::size_t nc, double c2,
                  std::vector<IndexPair>& out) {
  float f2[kCutoffTile];
  // Conservative float acceptance threshold for the pre-filter. The float
  // sweep's relative error vs the exact double expression is < 1e-6, so
  // widening the cut by 1e-5 guarantees every true hit survives the
  // filter; survivors are confirmed with the exact double predicate, so
  // the emitted pairs are identical to the scalar kernel's.
  const float c2m = static_cast<float>(c2 * (1.0 + 1e-5));
  std::vector<std::vector<IndexPair>> row_hits(kCutoffRowTile);
  for (std::size_t i0 = 0; i0 < nr; i0 += kCutoffRowTile) {
    const std::size_t i1 = std::min(i0 + kCutoffRowTile, nr);
    for (auto& rh : row_hits) rh.clear();
    for (std::size_t j0 = 0; j0 < nc; j0 += kCutoffTile) {
      const std::size_t j1 = std::min(j0 + kCutoffTile, nc);
      const std::size_t w = j1 - j0;
      for (std::size_t i = i0; i < i1; ++i) {
        auto& rh = row_hits[i - i0];
        const double xi = rx[i], yi = ry[i], zi = rz[i];
        // Pass 1: branch-free single-precision distance sweep (the
        // compiler vectorizes it four-to-sixteen wide).
        const float xf = rx[i], yf = ry[i], zf = rz[i];
        for (std::size_t j = 0; j < w; ++j) {
          const float dx = xf - cx[j0 + j];
          const float dy = yf - cy[j0 + j];
          const float dz = zf - cz[j0 + j];
          f2[j] = dx * dx + dy * dy + dz * dz;
        }
        // Pass 2: vectorized count per group of kCutoffGroup candidates
        // skips hitless groups without a per-element branch; only
        // groups with candidates pay the exact double confirmation.
        for (std::size_t g = 0; g < w; g += kCutoffGroup) {
          const std::size_t ge = std::min(w, g + kCutoffGroup);
          unsigned any = 0;
          for (std::size_t j = g; j < ge; ++j) {
            any += f2[j] <= c2m ? 1u : 0u;
          }
          if (any == 0) continue;
          for (std::size_t j = g; j < ge; ++j) {
            if (f2[j] <= c2m) {
              const double dx = xi - cx[j0 + j];
              const double dy = yi - cy[j0 + j];
              const double dz = zi - cz[j0 + j];
              if (dx * dx + dy * dy + dz * dz <= c2) {
                rh.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j0 + j)});
              }
            }
          }
        }
      }
    }
    for (std::size_t i = i0; i < i1; ++i) {
      const auto& rh = row_hits[i - i0];
      out.insert(out.end(), rh.begin(), rh.end());
    }
  }
}

}  // namespace

void cutoff_pairs_packed(const FramePack& rows, const FramePack& cols,
                         double cutoff, KernelPolicy policy,
                         std::vector<IndexPair>& out) {
  if (rows.empty() || cols.empty()) return;
  const double c2 = cutoff * cutoff;
  const float* rx = rows.x(0);
  const float* ry = rows.y(0);
  const float* rz = rows.z(0);
  const float* cx = cols.x(0);
  const float* cy = cols.y(0);
  const float* cz = cols.z(0);
  if (policy == KernelPolicy::kScalar) {
    cutoff_scalar(rx, ry, rz, rows.atoms(), cx, cy, cz, cols.atoms(), c2,
                  out);
  } else {
    cutoff_tiled(rx, ry, rz, rows.atoms(), cx, cy, cz, cols.atoms(), c2,
                 out);
  }
}

}  // namespace mdtask::kernels
