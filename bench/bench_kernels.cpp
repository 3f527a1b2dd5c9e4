// Kernel microbenchmarks.
//
// Two modes:
//  * default — google-benchmark microbenchmarks of the per-unit costs
//    that feed the calibration layer (unchanged from the seed), plus
//    policy-parameterized variants of the batch kernels.
//  * --json [--quick] [--out=PATH] — the perf-regression harness: times
//    the three batch-kernel hot paths (Hausdorff-RMSD, leaflet cutoff,
//    2D-RMSD) under every KernelPolicy, reports the MEDIAN ns per work
//    unit for each (kernel, policy) cell, and writes BENCH_kernels.json.
//    scripts/check_bench_regression.py diffs that file against the
//    committed baseline (bench/BENCH_kernels.json) and fails CI on
//    regressions or lost vectorization speedups.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mdtask/analysis/balltree.h"
#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/analysis/pairwise.h"
#include "mdtask/analysis/rmsd.h"
#include "mdtask/common/rng.h"
#include "mdtask/common/timer.h"
#include "mdtask/cpptraj/rmsd2d.h"
#include "mdtask/kernels/batch.h"
#include "mdtask/traj/generators.h"

namespace {

using namespace mdtask;

std::vector<traj::Vec3> cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<traj::Vec3> pts(n);
  for (auto& p : pts) {
    p = {static_cast<float>(rng.uniform(0, 40)),
         static_cast<float>(rng.uniform(0, 40)),
         static_cast<float>(rng.uniform(0, 40))};
  }
  return pts;
}

void BM_FrameRmsd(benchmark::State& state) {
  const auto atoms = static_cast<std::size_t>(state.range(0));
  const auto a = cloud(atoms, 1), b = cloud(atoms, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::frame_rmsd(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(atoms));
}
BENCHMARK(BM_FrameRmsd)->Arg(512)->Arg(3341)->Arg(13364);

void BM_HausdorffNaive(benchmark::State& state) {
  traj::ProteinTrajectoryParams p;
  p.frames = static_cast<std::size_t>(state.range(0));
  p.atoms = 256;
  p.seed = 1;
  const auto a = traj::make_protein_trajectory(p);
  p.seed = 2;
  const auto b = traj::make_protein_trajectory(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::hausdorff_naive(a, b));
  }
}
BENCHMARK(BM_HausdorffNaive)->Arg(16)->Arg(32)->Arg(64);

void BM_HausdorffEarlyBreak(benchmark::State& state) {
  traj::ProteinTrajectoryParams p;
  p.frames = static_cast<std::size_t>(state.range(0));
  p.atoms = 256;
  p.seed = 1;
  const auto a = traj::make_protein_trajectory(p);
  p.seed = 2;
  const auto b = traj::make_protein_trajectory(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::hausdorff_early_break(a, b));
  }
}
BENCHMARK(BM_HausdorffEarlyBreak)->Arg(16)->Arg(32)->Arg(64);

// Batch-kernel sweeps: state.range(1) indexes the KernelPolicy.
void BM_HausdorffPacked(benchmark::State& state) {
  traj::ProteinTrajectoryParams p;
  p.frames = static_cast<std::size_t>(state.range(0));
  p.atoms = 256;
  p.seed = 1;
  const auto a = kernels::pack_trajectory(traj::make_protein_trajectory(p));
  p.seed = 2;
  const auto b = kernels::pack_trajectory(traj::make_protein_trajectory(p));
  const auto policy = static_cast<kernels::KernelPolicy>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::hausdorff_packed(a, b, /*early_break=*/false, policy));
  }
}
BENCHMARK(BM_HausdorffPacked)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_CutoffPairsPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto rows = kernels::pack_points(cloud(n, 3));
  const auto cols = kernels::pack_points(cloud(n, 4));
  const auto policy = static_cast<kernels::KernelPolicy>(state.range(1));
  std::vector<kernels::IndexPair> pairs;
  for (auto _ : state) {
    pairs.clear();
    kernels::cutoff_pairs_packed(rows, cols, 3.0, policy, pairs);
    benchmark::DoNotOptimize(pairs.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_CutoffPairsPacked)
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_Cdist(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto xs = cloud(n, 3), ys = cloud(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::cdist(xs, ys));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Cdist)->Arg(128)->Arg(512)->Arg(1024);

void BM_BallTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(n, 5);
  for (auto _ : state) {
    analysis::BallTree tree(pts, 32);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BallTreeBuild)->Arg(4096)->Arg(32768);

void BM_BallTreeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pts = cloud(n, 6);
  const analysis::BallTree tree(pts, 32);
  std::vector<std::uint32_t> hits;
  std::size_t i = 0;
  for (auto _ : state) {
    hits.clear();
    tree.query_radius(pts[i++ % n], 2.5, hits);
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_BallTreeQuery)->Arg(4096)->Arg(32768);

void BM_ConnectedComponents(benchmark::State& state) {
  const auto n_edges = static_cast<std::size_t>(state.range(0));
  Xoshiro256StarStar rng(7);
  std::vector<analysis::Edge> edges(n_edges);
  for (auto& e : edges) {
    auto a = static_cast<std::uint32_t>(rng.bounded(100000));
    auto b = static_cast<std::uint32_t>(rng.bounded(100000));
    if (a == b) b = (b + 1) % 100000;
    e = {std::min(a, b), std::max(a, b)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::connected_components_union_find(100000, edges));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_edges));
}
BENCHMARK(BM_ConnectedComponents)->Arg(100000)->Arg(1000000);

void BM_Rmsd2dReference(benchmark::State& state) {
  traj::ProteinTrajectoryParams p;
  p.frames = 16;
  p.atoms = static_cast<std::size_t>(state.range(0));
  p.seed = 8;
  const auto a = traj::make_protein_trajectory(p);
  p.seed = 9;
  const auto b = traj::make_protein_trajectory(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpptraj::rmsd2d_block_reference(a, b));
  }
}
BENCHMARK(BM_Rmsd2dReference)->Arg(512)->Arg(3341);

void BM_Rmsd2dOptimized(benchmark::State& state) {
  traj::ProteinTrajectoryParams p;
  p.frames = 16;
  p.atoms = static_cast<std::size_t>(state.range(0));
  p.seed = 8;
  const auto a = traj::make_protein_trajectory(p);
  p.seed = 9;
  const auto b = traj::make_protein_trajectory(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpptraj::rmsd2d_block_optimized(a, b));
  }
}
BENCHMARK(BM_Rmsd2dOptimized)->Arg(512)->Arg(3341);

void BM_Rmsd2dTiled(benchmark::State& state) {
  traj::ProteinTrajectoryParams p;
  p.frames = 16;
  p.atoms = static_cast<std::size_t>(state.range(0));
  p.seed = 8;
  const auto a = traj::make_protein_trajectory(p);
  p.seed = 9;
  const auto b = traj::make_protein_trajectory(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpptraj::rmsd2d_block_tiled(a, b));
  }
}
BENCHMARK(BM_Rmsd2dTiled)->Arg(512)->Arg(3341);

// ------------------------------------------------------ --json harness --

struct JsonEntry {
  std::string kernel;
  std::string policy;
  std::string unit;
  double ns_per_unit = 0.0;
};

/// Median of `repeats` timings of `body`, divided by `units`.
template <typename F>
double median_ns_per_unit(int repeats, double units, F body) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    body();
    ns.push_back(timer.seconds() * 1e9 / units);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

std::vector<JsonEntry> run_json_suite(bool quick) {
  const int repeats = quick ? 7 : 15;
  std::vector<JsonEntry> entries;

  // Hausdorff-RMSD: full naive scan (no early break) so the figure is
  // pure kernel throughput. Unit: one directed frame pair.
  {
    traj::ProteinTrajectoryParams p;
    p.frames = quick ? 24 : 48;
    p.atoms = 512;
    p.seed = 1;
    const auto a = kernels::pack_trajectory(traj::make_protein_trajectory(p));
    p.seed = 2;
    const auto b = kernels::pack_trajectory(traj::make_protein_trajectory(p));
    const double units = 2.0 * static_cast<double>(a.frames()) * b.frames();
    for (const auto policy : kernels::kAllPolicies) {
      volatile double sink = 0.0;
      const double ns = median_ns_per_unit(repeats, units, [&] {
        sink = sink +
               kernels::hausdorff_packed(a, b, /*early_break=*/false, policy);
      });
      entries.push_back({"hausdorff_rmsd", std::string(to_string(policy)),
                         "frame-pair", ns});
    }
  }

  // Leaflet cutoff: one block of the edge-discovery grid.
  // Unit: one candidate point pair.
  {
    const std::size_t n = quick ? 768 : 1536;
    const auto rows = kernels::pack_points(cloud(n, 3));
    const auto cols = kernels::pack_points(cloud(n, 4));
    const double units = static_cast<double>(n) * static_cast<double>(n);
    std::vector<kernels::IndexPair> pairs;
    for (const auto policy : kernels::kAllPolicies) {
      volatile std::size_t sink = 0;
      const double ns = median_ns_per_unit(repeats, units, [&] {
        pairs.clear();
        kernels::cutoff_pairs_packed(rows, cols, 3.0, policy, pairs);
        sink = sink + pairs.size();
      });
      entries.push_back({"leaflet_cutoff", std::string(to_string(policy)),
                         "point-pair", ns});
    }
  }

  // 2D-RMSD: the cpptraj comparator matrix. Unit: one frame pair.
  {
    traj::ProteinTrajectoryParams p;
    p.frames = quick ? 24 : 48;
    p.atoms = 512;
    p.seed = 8;
    const auto a = kernels::pack_trajectory(traj::make_protein_trajectory(p));
    p.seed = 9;
    const auto b = kernels::pack_trajectory(traj::make_protein_trajectory(p));
    const double units = static_cast<double>(a.frames()) * b.frames();
    std::vector<double> matrix(a.frames() * b.frames());
    for (const auto policy : kernels::kAllPolicies) {
      volatile double sink = 0.0;
      const double ns = median_ns_per_unit(repeats, units, [&] {
        kernels::rmsd2d_packed(a, b, policy, matrix);
        sink = sink + matrix.back();
      });
      entries.push_back({"rmsd2d", std::string(to_string(policy)),
                         "frame-pair", ns});
    }
  }

  return entries;
}

void write_json(const std::vector<JsonEntry>& entries,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"mdtask-bench-kernels-v1\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    out << "    {\"kernel\": \"" << e.kernel << "\", \"policy\": \""
        << e.policy << "\", \"unit\": \"" << e.unit
        << "\", \"ns_per_unit\": " << e.ns_per_unit << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int run_json_mode(bool quick, const std::string& out_path) {
  const auto entries = run_json_suite(quick);
  write_json(entries, out_path);
  std::cout << "kernel          policy      ns/unit\n";
  for (const auto& e : entries) {
    std::cout << e.kernel << std::string(16 - e.kernel.size(), ' ')
              << e.policy << std::string(12 - e.policy.size(), ' ')
              << e.ns_per_unit << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, quick = false;
  std::string out_path = "BENCH_kernels.json";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json) return run_json_mode(quick, out_path);

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
