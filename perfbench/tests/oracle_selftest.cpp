// Self-test of the benchmark's oracles: each accepts a correct result
// and rejects a corrupted one, and a rejected result counts as a failed
// job in the tally that feeds failed_frac.
//
//   cmake --build .bench_build/perfbench --target oracle_selftest
//   .bench_build/perfbench/oracle_selftest
#include <cmath>
#include <cstdio>
#include <string>

#include "harness.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/analysis/leaflet.h"
#include "mdtask/analysis/psa.h"
#include "mdtask/traj/generators.h"

namespace {

int failures = 0;
/// Every oracle verdict below, recorded as a job the way the benchmark
/// records one, so the tally can be checked against the verdicts.
perfbench::Tally verdicts;
std::size_t rejected = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void record(const std::string& error) {
  perfbench::JobOutcome job;
  job.error = error;
  verdicts.record(job);
}

void accepts(const std::string& error, const char* what) {
  if (!error.empty()) std::printf("  (%s)\n", error.c_str());
  expect(error.empty(), what);
  record(error);
}

void rejects(const std::string& error, const char* what) {
  expect(!error.empty(), what);
  record(error);
  ++rejected;
}

using namespace mdtask;

void psa_oracle() {
  traj::ProteinTrajectoryParams params;
  params.atoms = 16;
  params.frames = 10;
  const auto ensemble = traj::make_protein_ensemble(4, params);
  const auto matrix = analysis::psa_reference(
      ensemble, analysis::HausdorffKernel::kNaive, kernels::default_policy());
  const perfbench::PsaSample sample{
      1, 2,
      analysis::hausdorff_naive(ensemble[1], ensemble[2],
                                kernels::KernelPolicy::kScalar)};
  const double tol =
      perfbench::psa_sample_tolerance(kernels::default_policy());
  accepts(perfbench::check_psa(matrix, matrix, {&sample, 1}, tol),
          "psa: the reference matrix passes");

  auto corrupted = matrix;
  corrupted.set(0, 3, std::nextafter(matrix.at(0, 3), 1e9));
  rejects(perfbench::check_psa(corrupted, matrix, {&sample, 1}, tol),
          "psa: a one-ulp change fails the cross-engine check");
  auto wrong = matrix;
  wrong.set(1, 2, matrix.at(1, 2) * 1.01);
  rejects(perfbench::check_psa(wrong, wrong, {&sample, 1}, tol),
          "psa: a wrong sampled entry fails the scalar check");
  rejects(perfbench::check_psa(analysis::DistanceMatrix(3), matrix,
                               {&sample, 1}, tol),
          "psa: a matrix of the wrong size fails");
}

void leaflet_oracle() {
  traj::BilayerParams params;
  params.atoms = 800;
  const auto bilayer = traj::make_bilayer(params);
  const auto result = analysis::leaflet_finder_reference(
      bilayer.positions, traj::default_cutoff(params));
  accepts(perfbench::check_leaflet(result.labels, bilayer.leaflet),
          "leaflet: the serial reference passes");

  auto split = result.labels;
  split[5] = static_cast<std::uint32_t>(split.size());
  rejects(perfbench::check_leaflet(split, bilayer.leaflet),
          "leaflet: one atom split off fails");
  auto merged = result.labels;
  for (auto& label : merged) label = merged.front();
  rejects(perfbench::check_leaflet(merged, bilayer.leaflet),
          "leaflet: merged leaflets fail");
  auto short_labels = result.labels;
  short_labels.pop_back();
  rejects(perfbench::check_leaflet(short_labels, bilayer.leaflet),
          "leaflet: a missing label fails");
}

void ingest_oracle() {
  traj::ProteinTrajectoryParams params;
  params.atoms = 8;
  params.frames = 6;
  const auto source = traj::make_protein_trajectory(params);
  traj::Trajectory shard(2, source.atoms());
  for (std::size_t f = 0; f < 2; ++f) {
    const auto from = source.frame(3 + f);
    std::copy(from.begin(), from.end(), shard.frame(f).begin());
  }
  accepts(perfbench::check_frames(source, 3, shard),
          "ingest: an exact copy passes");
  rejects(perfbench::check_frames(source, 2, shard),
          "ingest: frames at the wrong offset fail");
  shard.frame(1)[4].y = std::nextafter(shard.frame(1)[4].y, 1e9f);
  rejects(perfbench::check_frames(source, 3, shard),
          "ingest: a one-ulp coordinate change fails");
}

void tally_counts_failures() {
  expect(verdicts.failed() == rejected,
         "tally: every rejected result counts as failed");
  expect(verdicts.attempted() > rejected,
         "tally: accepted results count as attempted, not failed");
  perfbench::Tally tally;
  perfbench::JobOutcome good;
  good.wall_s = 1.0;
  perfbench::JobOutcome corrupted;
  corrupted.wall_s = 2.0;
  corrupted.error = "wrong";
  tally.record(good);
  tally.record(corrupted);
  expect(tally.failed_frac() == 0.5, "tally: failed_frac is failed/attempted");
  expect(tally.walls().size() == 2, "tally: failed jobs keep their wall time");
}

}  // namespace

int main() {
  psa_oracle();
  leaflet_oracle();
  ingest_oracle();
  tally_counts_failures();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
