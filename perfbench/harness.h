// Shared plumbing of the end-to-end benchmark: job outcomes and their
// tally, summary statistics, span coverage, process counters, host
// diagnostics, and the correctness oracles every job is checked by.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/psa.h"
#include "mdtask/trace/span.h"
#include "mdtask/traj/trajectory.h"
#include "mdtask/workflows/common.h"

namespace perfbench {

/// What one job produced. `error` is empty when the call succeeded and
/// its result passed the workload's oracle.
struct JobOutcome {
  std::string error;
  double wall_s = 0.0;  ///< the library call(s) only, oracle excluded
  mdtask::workflows::RunMetrics metrics;

  bool ok() const noexcept { return error.empty(); }
};

/// Jobs attempted and failed over one measured phase, with the wall
/// time of every job (failed ones included: a failure is still a job
/// the user waited for).
class Tally {
 public:
  void record(const JobOutcome& job);
  std::size_t attempted() const noexcept { return walls_.size(); }
  std::size_t failed() const noexcept { return failed_; }
  double failed_frac() const noexcept;
  const std::vector<double>& walls() const noexcept { return walls_; }
  /// First failure reason seen (empty when none failed).
  const std::string& first_error() const noexcept { return first_error_; }

 private:
  std::vector<double> walls_;
  std::size_t failed_ = 0;
  std::string first_error_;
};

double median(std::vector<double> xs);

/// The highest percentile that still has `beyond` samples above it: the
/// sample at nearest rank n - beyond. It moves smoothly with the sample
/// count, where a fixed ladder of percentiles would jump between rungs.
/// With `beyond` samples or fewer it is the maximum (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond_count = 0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> xs, std::size_t beyond = 10);

/// Microseconds of [t0_us, t1_us) during which at least one of `events`
/// is open, not counting the whole-run spans (category "workflow") that
/// enclose everything a job does.
double covered_us(const std::vector<mdtask::trace::TraceEvent>& events,
                  double t0_us, double t1_us);

/// Total duration of `events` named `name` that start in [t0_us, t1_us).
double span_total_us(const std::vector<mdtask::trace::TraceEvent>& events,
                     const std::string& name, double t0_us, double t1_us);

/// User + system CPU seconds of this process so far (getrusage).
double process_cpu_s();
/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Host, build and kernel-policy facts every result is tagged with.
std::vector<std::pair<std::string, std::string>> host_fingerprint();

/// Aggregate CPU time of the host from /proc/stat, in clock ticks: all
/// states, and the part the hypervisor gave to other guests (steal).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks host_cpu_ticks();
/// Steal share of the host's CPU time between two samples (0 when the
/// counters did not advance or are unavailable).
double steal_frac(const CpuTicks& begin, const CpuTicks& end);

/// Seconds a fixed single-threaded integer loop takes. The work never
/// changes with the code under test, so a slower probe means a slower
/// host, not slower code.
double host_probe_s();

// ---- oracles: each returns an empty string when the result is right,
// ---- otherwise the reason it is wrong.

/// One PSA matrix entry recomputed by the scalar reference.
struct PsaSample {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Relative tolerance of a sampled PSA entry against the scalar
/// reference under `policy`: 0 for the bit-identical tiers, and the
/// single-precision tier's documented ~1e-6 error with margin otherwise.
double psa_sample_tolerance(mdtask::kernels::KernelPolicy policy);

/// `got` must be bitwise equal to `reference` (another engine's matrix)
/// and every sample must match within `rel_tol`.
std::string check_psa(const mdtask::analysis::DistanceMatrix& got,
                      const mdtask::analysis::DistanceMatrix& reference,
                      std::span<const PsaSample> samples, double rel_tol);

/// Per-atom component labels must split the atoms exactly as the
/// generator's ground-truth leaflet flags do: one label per leaflet,
/// different between the two.
std::string check_leaflet(const mdtask::analysis::ComponentLabels& labels,
                          std::span<const std::uint8_t> truth);

/// `shard` must be bitwise equal to frames [first, first + shard.frames())
/// of `source`.
std::string check_frames(const mdtask::traj::Trajectory& source,
                         std::size_t first,
                         const mdtask::traj::Trajectory& shard);

}  // namespace perfbench
