#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "mdtask/common/timer.h"
#include "mdtask/kernels/policy.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH 0
#endif

namespace perfbench {

void Tally::record(const JobOutcome& job) {
  walls_.push_back(job.wall_s);
  if (!job.ok()) {
    ++failed_;
    if (first_error_.empty()) first_error_ = job.error;
  }
}

double Tally::failed_frac() const noexcept {
  return walls_.empty() ? 0.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(walls_.size());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail_of(std::vector<double> xs, std::size_t beyond) {
  Tail tail;
  tail.samples = xs.size();
  if (xs.empty()) return tail;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  // Nearest rank: the value at rank r has n - r samples above it.
  const std::size_t rank = n > beyond ? n - beyond : n;
  tail.value = xs[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond_count = n - rank;
  return tail;
}

namespace {

bool is_whole_run(const mdtask::trace::TraceEvent& e) {
  return e.category == "workflow";
}

}  // namespace

double covered_us(const std::vector<mdtask::trace::TraceEvent>& events,
                  double t0_us, double t1_us) {
  std::vector<std::pair<double, double>> spans;
  for (const auto& e : events) {
    if (is_whole_run(e)) continue;
    const double begin = std::max(t0_us, e.start_us);
    const double end = std::min(t1_us, e.start_us + e.dur_us);
    if (end > begin) spans.emplace_back(begin, end);
  }
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double reach = t0_us;
  for (const auto& [begin, end] : spans) {
    const double from = std::max(begin, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

double span_total_us(const std::vector<mdtask::trace::TraceEvent>& events,
                     const std::string& name, double t0_us, double t1_us) {
  double total = 0.0;
  for (const auto& e : events) {
    if (e.name == name && e.start_us >= t0_us && e.start_us < t1_us) {
      total += e.dur_us;
    }
  }
  return total;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::pair<std::string, std::string>> host_fingerprint() {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        model == "unknown") {
      model = value;
    } else if (key == "flags" && flags.empty()) {
      flags = " " + value + " ";
    }
  }
  std::string isa;
  for (const char* flag : {"avx2", "fma", "avx512f", "avx512bw", "avx512vl"}) {
    if (flags.find(std::string(" ") + flag + " ") != std::string::npos) {
      isa += isa.empty() ? flag : std::string(",") + flag;
    }
  }
  std::string build_isa = "baseline";
#if defined(__AVX512F__)
  build_isa = "avx512f";
#elif defined(__AVX2__)
  build_isa = "avx2";
#endif
  return {
      {"cpu_model", model},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"host_isa", isa.empty() ? "none" : isa},
      {"build_isa", build_isa},
      {"compiler", std::string("gcc-compatible ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"MDTASK_NATIVE_ARCH", PERFBENCH_NATIVE_ARCH ? "ON" : "OFF"},
      {"kernel_policy",
       mdtask::kernels::to_string(mdtask::kernels::default_policy())},
  };
}

CpuTicks host_cpu_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ..."
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_frac(const CpuTicks& begin, const CpuTicks& end) {
  if (end.total <= begin.total || end.steal < begin.steal) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double host_probe_s() {
  // A serial dependency chain of multiply/xor-shift steps: about 0.1 s
  // on a 2-3 GHz core, memory-free, and independent of the library.
  constexpr std::uint64_t kSteps = 40'000'000;
  mdtask::WallTimer timer;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  // The volatile store keeps the loop, and keeps it before the clock read.
  volatile std::uint64_t sink = x;
  static_cast<void>(sink);
  return timer.seconds();
}

double psa_sample_tolerance(mdtask::kernels::KernelPolicy policy) {
  // Matched by name so the oracle keeps compiling as tiers come and go.
  const std::string name = mdtask::kernels::to_string(policy);
  return name == "scalar" || name == "blocked" ? 0.0 : 1e-5;
}

std::string check_psa(const mdtask::analysis::DistanceMatrix& got,
                      const mdtask::analysis::DistanceMatrix& reference,
                      std::span<const PsaSample> samples, double rel_tol) {
  if (got.size() != reference.size()) {
    return "psa: matrix is " + std::to_string(got.size()) + "x" +
           std::to_string(got.size()) + ", expected " +
           std::to_string(reference.size());
  }
  const auto& a = got.data();
  const auto& b = reference.data();
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return "psa: matrix differs bitwise from the reference engine's";
  }
  for (const auto& s : samples) {
    const double value = got.at(s.row, s.col);
    if (!(std::fabs(value - s.value) <= rel_tol * std::fabs(s.value))) {
      std::ostringstream out;
      out.precision(17);
      out << "psa: entry (" << s.row << "," << s.col << ") = " << value
          << ", scalar reference " << s.value;
      return out.str();
    }
  }
  return {};
}

std::string check_leaflet(const mdtask::analysis::ComponentLabels& labels,
                          std::span<const std::uint8_t> truth) {
  if (labels.size() != truth.size()) {
    return "leaflet: " + std::to_string(labels.size()) + " labels for " +
           std::to_string(truth.size()) + " atoms";
  }
  // Indexed by leaflet flag; a flat table keeps the check cheap next to
  // the job on 131 072 atoms.
  std::array<bool, 256> seen{};
  std::array<std::uint32_t, 256> label_of{};
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const std::uint8_t leaflet = truth[i];
    if (!seen[leaflet]) {
      seen[leaflet] = true;
      label_of[leaflet] = labels[i];
    } else if (label_of[leaflet] != labels[i]) {
      return "leaflet: atom " + std::to_string(i) +
             " is split from the rest of its leaflet";
    }
  }
  if (std::count(seen.begin(), seen.end(), true) != 2 || !seen[0] ||
      !seen[1] || label_of[0] == label_of[1]) {
    return "leaflet: the two leaflets are not separate components";
  }
  return {};
}

std::string check_frames(const mdtask::traj::Trajectory& source,
                         std::size_t first,
                         const mdtask::traj::Trajectory& shard) {
  if (shard.atoms() != source.atoms() ||
      first + shard.frames() > source.frames()) {
    return "ingest: shard shape does not fit the source";
  }
  const auto want = source.data().subspan(first * source.atoms(),
                                          shard.data().size());
  if (std::memcmp(want.data(), shard.data().data(), want.size_bytes()) !=
      0) {
    return "ingest: frames from " + std::to_string(first) +
           " differ from the source";
  }
  return {};
}

}  // namespace perfbench
