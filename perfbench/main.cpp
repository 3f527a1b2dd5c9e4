// mdtask end-to-end benchmark.
//
//   perfbench --workload psa|leaflet_tree|ingest --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--out-dir DIR]
//
// Closed loop from one client thread, one job at a time; jobs cycle
// through MPI -> Spark -> Dask -> RP on min(4, nproc) workers, and each
// engine gets one untimed warm-up job before timing starts. With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// Every job is checked by the workload's oracle; a wrong result counts
// as failed. Every run also records how much the host interfered.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "mdtask/common/timer.h"
#include "mdtask/trace/chrome_export.h"
#include "mdtask/trace/tracer.h"
#include "workloads.h"

namespace {

using perfbench::JobOutcome;
using perfbench::Tally;
using perfbench::Workload;

/// The seed runs use unless told otherwise, and the second seed every
/// later claim must also hold on.
constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kSecondSeed = 1907;
/// Set-ups at each end of an end-to-end run: kSetupsPerEnd, or fewer
/// once kSetupSecondsPerEnd have passed (the median of all is reported).
/// A set-up is short and the host's speed drifts over seconds, so
/// sampling both ends steadies the median.
constexpr int kSetupsPerEnd = 11;
constexpr double kSetupSecondsPerEnd = 1.0;
/// Host probes at each end of a run (the median of all is reported).
constexpr int kProbesPerEnd = 3;
/// Serial replays of the layer calls in a traced run (median per layer).
constexpr std::size_t kReplayRepetitions = 3;
/// Traced jobs per slot: at least kMinTraced, then more while the tracer
/// holds fewer than kSpanBudget events, up to kMaxTraced. Later pairs run
/// untraced only, which bounds the spans kept in memory.
constexpr std::size_t kMinTraced = 2;
constexpr std::size_t kMaxTraced = 32;
constexpr std::size_t kSpanBudget = 50000;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/out";
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty();
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// All digits for the result line; 6 significant ones for the tables.
std::string number(double value, int digits = 17) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits,
                std::isfinite(value) ? value : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_table(const std::string& title, const std::vector<Metric>& metrics,
                 const std::map<std::string, std::string>& notes = {}) {
  std::printf("%s\n", title.c_str());
  for (const auto& m : metrics) {
    const auto note = notes.find(m.name);
    // Counts print exactly, so later changes can cite them.
    const bool exact = (m.unit == "count" || m.unit == "bytes") &&
                       std::fabs(m.value) < 0x1.0p53;
    std::printf("  %-34s %14s %-9s%s\n", m.name.c_str(),
                number(m.value, exact ? 17 : 6).c_str(), m.unit.c_str(),
                note == notes.end() ? "" : ("  " + note->second).c_str());
  }
}

/// How much the host interfered with one run: the hypervisor's steal
/// share of the host's CPU time over the run, and a fixed loop timed at
/// its start and end.
class HostWatch {
 public:
  HostWatch() : ticks_(perfbench::host_cpu_ticks()) { probe(start_); }

  /// Ends the watch; prints and returns {host.steal_frac, host.probe_s}.
  std::vector<Metric> finish() {
    const double steal =
        perfbench::steal_frac(ticks_, perfbench::host_cpu_ticks());
    probe(end_);
    std::vector<double> all = start_;
    all.insert(all.end(), end_.begin(), end_.end());
    const double probe_s = perfbench::median(all);
    std::printf("# host.steal_frac=%.6f host.probe_s=%.6f (start %.6f, "
                "end %.6f; median of %d probes each)\n",
                steal, probe_s, perfbench::median(start_),
                perfbench::median(end_), kProbesPerEnd);
    return {{"host.steal_frac", steal, "fraction"},
            {"host.probe_s", probe_s, "s"}};
  }

 private:
  static void probe(std::vector<double>& into) {
    for (int i = 0; i < kProbesPerEnd; ++i) {
      into.push_back(perfbench::host_probe_s());
    }
  }

  perfbench::CpuTicks ticks_;
  std::vector<double> start_;
  std::vector<double> end_;
};

/// One untimed warm-up job per engine, so lazy set-up finishes before
/// timing. Returns the first failure (empty when all passed).
std::string warm_up(Workload& w, double& seconds) {
  std::string error;
  mdtask::WallTimer timer;
  for (std::size_t slot = 0; slot < w.cycle(); ++slot) {
    const JobOutcome job = w.run(slot, nullptr);
    if (!job.ok() && error.empty()) {
      error = w.slot_label(slot) + ": " + job.error;
    }
  }
  seconds = timer.seconds();
  return error;
}

/// The job walls of each shape (job slot, i.e. engine) of a run.
std::vector<std::vector<double>> walls_by_slot(const std::vector<double>& walls,
                                               std::size_t cycle) {
  std::vector<std::vector<double>> by_slot(cycle);
  for (std::size_t k = 0; k < walls.size(); ++k) {
    by_slot[k % cycle].push_back(walls[k]);
  }
  return by_slot;
}

/// The reported job_s.p50: the mean over the shapes of each shape's
/// median job wall. The plain median of four equally common engine
/// shapes falls on the boundary between the second and third fastest
/// engine, and moves with a few extreme jobs there; each shape's median
/// uses all of that shape's jobs. On a one-shape workload it is the
/// plain median.
double mean_of_medians(const std::vector<std::vector<double>>& by_slot) {
  double sum = 0.0;
  for (const auto& xs : by_slot) sum += perfbench::median(xs);
  return sum / static_cast<double>(by_slot.size());
}

/// Per-shape wall times, so the doc can show where the tail rung falls
/// relative to the job shapes (engines).
void print_shapes(const Workload& w,
                  const std::vector<std::vector<double>>& by_slot) {
  std::printf("job_s by shape (min / p50 / max):");
  for (std::size_t slot = 0; slot < by_slot.size(); ++slot) {
    const auto& xs = by_slot[slot];
    if (xs.empty()) continue;
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    std::printf("  %s %.4f / %.4f / %.4f", w.slot_label(slot).c_str(), *lo,
                perfbench::median(xs), *hi);
  }
  std::printf("\n");
}

int run_end_to_end(Workload& w, const Options& options) {
  HostWatch host;
  std::vector<perfbench::SetupTimes> setups;
  auto set_up = [&] {
    mdtask::WallTimer timer;
    for (int rep = 0;
         rep < kSetupsPerEnd && timer.seconds() < kSetupSecondsPerEnd; ++rep) {
      setups.push_back(w.setup());
    }
  };
  set_up();
  double warmup_s = 0.0;
  const std::string warmup_error = warm_up(w, warmup_s);

  Tally tally;
  const double cpu0 = perfbench::process_cpu_s();
  mdtask::WallTimer phase;
  for (std::size_t k = 0;
       k % w.cycle() != 0 || phase.seconds() < options.seconds; ++k) {
    tally.record(w.run(k % w.cycle(), nullptr));
  }
  const double wall = phase.seconds();
  const double cpu = perfbench::process_cpu_s() - cpu0;
  // The jobs are done, so rewriting their files is harmless.
  set_up();

  std::vector<double> totals, inputs, files;
  for (const auto& s : setups) {
    totals.push_back(s.total());
    inputs.push_back(s.inputs_s);
    files.push_back(s.files_s);
  }
  const auto jobs = static_cast<double>(tally.attempted());
  const auto correct_jobs =
      static_cast<double>(tally.attempted() - tally.failed());
  const perfbench::Tail tail = perfbench::tail_of(tally.walls());
  const auto by_slot = walls_by_slot(tally.walls(), w.cycle());
  const std::vector<Metric> metrics = {
      {"jobs_per_s", correct_jobs / wall, "jobs/s"},
      {"job_s.p50", mean_of_medians(by_slot), "s"},
      {"job_s.tail", tail.value, "s"},
      {"cpu_s_per_job", cpu / jobs, "s"},
      {"peak_rss_mb", perfbench::peak_rss_mb(), "MB"},
      {"setup_s", perfbench::median(totals), "s"},
  };
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.1f of %zu jobs, %zu beyond",
                tail.percentile, tail.samples, tail.beyond_count);
  char setup_note[128];
  std::snprintf(setup_note, sizeof setup_note,
                "median of %zu: inputs %.4f s, files %.4f s", setups.size(),
                perfbench::median(inputs), perfbench::median(files));
  print_table("end-to-end (" + options.workload + ", " +
                  std::to_string(tally.attempted()) + " jobs in " +
                  number(wall, 6) + " s)",
              metrics, {{"job_s.tail", tail_note}, {"setup_s", setup_note}});
  std::printf("  %-34s %14s %-9s  %zu of %zu failed\n", "failed_frac",
              number(tally.failed_frac(), 6).c_str(), "fraction",
              tally.failed(), tally.attempted());
  std::printf("warm-up: %zu jobs in %.4f s (untimed, not in setup_s)\n",
              w.cycle(), warmup_s);
  print_shapes(w, by_slot);
  host.finish();
  if (!warmup_error.empty()) {
    std::printf("warm-up failed: %s\n", warmup_error.c_str());
  }
  if (tally.failed() > 0) {
    std::printf("first failure: %s\n", tally.first_error().c_str());
  }
  print_result(warmup_error.empty() && tally.failed() == 0,
               tally.attempted(), tally.failed(), metrics);
  return 0;
}

/// Per-slot observations of the traced run.
struct SlotRecord {
  std::vector<double> untraced;
  /// traced ÷ untraced wall of each pair that ran both.
  std::vector<double> pair_ratios;
  double traced_us = 0.0;
  double covered_us = 0.0;
  double queue_wait_us = 0.0;
  std::size_t traced_jobs = 0;
  JobOutcome first;  ///< first traced job: exact counts
};

/// Runs each job slot in untraced/traced pairs for `seconds` (whole
/// cycles) and attributes the spans of every traced job to its slot.
/// The serial replay runs kReplayRepetitions times spread over the run,
/// so host drift affects it and the jobs alike; each layer's seconds and
/// the store write are the median over the replays (counts are exact, so
/// the first's).
std::vector<SlotRecord> run_pairs(Workload& w, double seconds,
                                  mdtask::trace::Tracer& tracer, Tally& tally,
                                  perfbench::Replay& replay) {
  const std::size_t cycle = w.cycle();
  struct Window {
    std::size_t slot;
    double t0_us;
    double t1_us;
  };
  std::vector<Window> windows;
  std::vector<SlotRecord> slots(cycle);
  std::vector<perfbench::Replay> replays;
  mdtask::WallTimer phase;
  for (std::size_t k = 0; k % cycle != 0 || phase.seconds() < seconds; ++k) {
    if (k % cycle == 0 && replays.size() < kReplayRepetitions &&
        phase.seconds() >= seconds * static_cast<double>(replays.size()) /
                               kReplayRepetitions) {
      replays.push_back(w.replay());
    }
    const std::size_t slot = k % cycle;
    SlotRecord& rec = slots[slot];
    const bool trace_this =
        rec.traced_jobs < kMinTraced ||
        (rec.traced_jobs < kMaxTraced && tracer.event_count() < kSpanBudget);
    JobOutcome untraced;
    auto run_untraced = [&] {
      untraced = w.run(slot, nullptr);
      rec.untraced.push_back(untraced.wall_s);
      tally.record(untraced);
    };
    // Alternate which of the pair runs first, cycle by cycle.
    const bool traced_first = (k / cycle) % 2 == 1;
    if (!traced_first || !trace_this) run_untraced();
    if (trace_this) {
      const double t0 = tracer.now_us();
      const JobOutcome traced = w.run(slot, &tracer);
      windows.push_back({slot, t0, tracer.now_us()});
      if (rec.traced_jobs++ == 0) rec.first = traced;
      tally.record(traced);
      if (traced_first) run_untraced();
      rec.pair_ratios.push_back(traced.wall_s / untraced.wall_s);
    }
  }
  while (replays.size() < kReplayRepetitions) replays.push_back(w.replay());

  const auto events = tracer.events();
  for (const auto& win : windows) {
    SlotRecord& rec = slots[win.slot];
    rec.traced_us += win.t1_us - win.t0_us;
    rec.covered_us += perfbench::covered_us(events, win.t0_us, win.t1_us);
    rec.queue_wait_us +=
        perfbench::span_total_us(events, "queue-wait", win.t0_us, win.t1_us);
  }

  replay = replays.front();
  for (auto& [name, s] : replay.seconds) {
    std::vector<double> xs;
    for (const auto& r : replays) {
      const auto it = r.seconds.find(name);
      xs.push_back(it == r.seconds.end() ? 0.0 : it->second);
    }
    s = perfbench::median(xs);
  }
  std::vector<double> writes;
  for (const auto& r : replays) writes.push_back(r.write_s);
  replay.write_s = perfbench::median(writes);
  return slots;
}

double lookup(const std::map<std::string, double>& m,
              const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

int run_traced(Workload& w, const Options& options) {
  HostWatch host;
  const perfbench::SetupTimes setup = w.setup();
  double warmup_s = 0.0;
  const std::string warmup_error = warm_up(w, warmup_s);
  const std::size_t cycle = w.cycle();
  const bool uses_engines = cycle > 1;  // ingest is serial: no engine
  const double workers =
      uses_engines ? static_cast<double>(perfbench::bench_workers()) : 1.0;
  mdtask::trace::Tracer tracer;
  tracer.set_enabled(true);
  Tally tally;
  perfbench::Replay replay;
  const std::vector<SlotRecord> slots =
      run_pairs(w, options.seconds, tracer, tally, replay);

  // Every slot makes the same layer calls, so one replay stands for
  // each job; the budget is the job's worker time (workers x wall). The
  // job wall is defined as job_s.p50 is.
  const double replay_s = replay.total_s();
  std::vector<double> pair_ratios;
  std::vector<std::vector<double>> untraced;
  double traced_us = 0.0;
  double covered = 0.0;
  for (const auto& rec : slots) {
    pair_ratios.insert(pair_ratios.end(), rec.pair_ratios.begin(),
                       rec.pair_ratios.end());
    untraced.push_back(rec.untraced);
    traced_us += rec.traced_us;
    covered += rec.covered_us;
  }
  const double job_s = mean_of_medians(untraced);
  const double budget = workers * job_s;
  std::map<std::string, double> module_s;
  for (const auto& [name, s] : replay.seconds) {
    module_s[name.substr(0, name.find('.'))] += s;
  }
  auto share = [&](const std::string& module) {
    return budget > 0.0 ? lookup(module_s, module) / budget : 0.0;
  };
  const double stored = static_cast<double>(w.stored_bytes);
  const double read_s = lookup(replay.seconds, "stream.read_s");
  const double read_bytes = lookup(replay.counts, "stream.read_bytes");

  std::vector<Metric> metrics = {
      {"workflows.job_s", job_s, "s"},
      {"trace.overhead_frac", perfbench::median(pair_ratios) - 1.0,
       "fraction"},
      {"unattributed_frac", traced_us > 0.0 ? 1.0 - covered / traced_us : 0.0,
       "fraction"},
      {"kernels.share", share("kernels"), "fraction"},
      {"stream.share", share("stream"), "fraction"},
      {"traj.share", share("traj"), "fraction"},
      {"analysis.share", share("analysis"), "fraction"},
      {"engines.overhead_share",
       uses_engines && budget > 0.0 ? 1.0 - replay_s / budget : 0.0,
       "fraction"},
      {"kernels.hausdorff_evals",
       lookup(replay.counts, "kernels.hausdorff_evals"), "count"},
      {"analysis.edges", lookup(replay.counts, "analysis.edges"), "count"},
      // The first job (MPI, or the serial ingest job) against the store.
      {"stream.reread_ratio",
       stored > 0.0
           ? static_cast<double>(slots[0].first.metrics.staged_bytes) / stored
           : 0.0,
       "ratio"},
      {"stream.compress_ratio",
       stored > 0.0 ? static_cast<double>(w.raw_bytes) / stored : 0.0,
       "ratio"},
      {"stream.read_mb_per_s", read_s > 0.0 ? read_bytes / read_s / 1e6 : 0.0,
       "MB/s"},
      {"stream.write_mb_per_s",
       replay.write_s > 0.0
           ? static_cast<double>(w.raw_bytes) / replay.write_s / 1e6
           : 0.0,
       "MB/s"},
  };

  // Layer times some workloads lack go to the detail table only: in the
  // result line they would read 0 on every run of the others.
  std::vector<Metric> detail;
  for (std::size_t e = 0; e < 4; ++e) {
    const std::string p =
        std::string("engines.") + perfbench::engine_name(w.engine(e)) + ".";
    const SlotRecord* rec = uses_engines ? &slots[e] : nullptr;
    const mdtask::workflows::RunMetrics m =
        rec != nullptr ? rec->first.metrics : mdtask::workflows::RunMetrics{};
    const double wall = rec != nullptr ? perfbench::median(rec->untraced) : 0;
    metrics.push_back({p + "tasks", static_cast<double>(m.tasks), "count"});
    metrics.push_back({p + "stages", static_cast<double>(m.stages), "count"});
    metrics.push_back(
        {p + "shuffle_bytes", static_cast<double>(m.shuffle_bytes), "bytes"});
    metrics.push_back({p + "broadcast_bytes",
                       static_cast<double>(m.broadcast_bytes), "bytes"});
    metrics.push_back(
        {p + "staged_bytes", static_cast<double>(m.staged_bytes), "bytes"});
    metrics.push_back({p + "db_roundtrips",
                       static_cast<double>(m.db_roundtrips), "count"});
    metrics.push_back({p + "parallel_eff",
                       wall > 0.0 ? replay_s / (workers * wall) : 0.0,
                       "fraction"});
    if (rec == nullptr) continue;
    detail.push_back({std::string("workflows.") +
                          perfbench::engine_name(w.engine(e)) + ".job_s",
                      wall, "s"});
    // Per job, summed over the job's tasks.
    detail.push_back({p + "queue_wait_s",
                      rec->traced_jobs > 0
                          ? rec->queue_wait_us * 1e-6 /
                                static_cast<double>(rec->traced_jobs)
                          : 0.0,
                      "s"});
    detail.push_back({p + "overhead_s", wall - replay_s / workers, "s"});
  }
  for (const Metric& m : host.finish()) metrics.push_back(m);

  for (const auto& [name, s] : replay.seconds) detail.push_back({name, s, "s"});
  detail.push_back({"replay_s", replay_s, "s"});
  if (replay.seconds.count("stream.write_s") == 0) {
    // The set-up's write, replayed: not part of the job.
    detail.push_back({"stream.write_s", replay.write_s, "s"});
  }
  const double evals = lookup(replay.counts, "kernels.hausdorff_evals");
  if (evals > 0.0) {
    detail.push_back(
        {"kernels.ns_per_frame_pair",
         lookup(replay.seconds, "kernels.hausdorff_s") / evals * 1e9, "ns"});
  }
  for (const auto& [module, s] : module_s) {
    detail.push_back({module + ".replay_frac",
                      replay_s > 0.0 ? s / replay_s : 0.0, "fraction"});
    detail.push_back({module + ".wall_frac", job_s > 0.0 ? s / job_s : 0.0,
                      "fraction"});
  }
  for (const auto& [name, n] : replay.counts) {
    if (name != "kernels.hausdorff_evals" && name != "analysis.edges") {
      detail.push_back({name, n, name.ends_with("_bytes") ? "bytes" : "count"});
    }
  }

  print_table("per-layer (" + options.workload + ", traced run, " +
                  std::to_string(tally.attempted()) +
                  " jobs; counts per job)",
              metrics);
  print_table("per-layer detail (times per job; not in the result line)",
              detail);
  std::printf("set-up %.4f s (inputs %.4f s, files %.4f s); warm-up %.4f s\n",
              setup.total(), setup.inputs_s, setup.files_s, warmup_s);

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  // One file per workload: the latest traced run's spans.
  const std::string trace_path =
      options.out_dir + "/" + options.workload + ".trace.json";
  const auto written = mdtask::trace::write_chrome_trace(tracer, trace_path);
  std::printf("spans: %zu events -> %s%s\n", tracer.event_count(),
              trace_path.c_str(), written.ok() ? "" : " (write failed)");
  if (!warmup_error.empty()) {
    std::printf("warm-up failed: %s\n", warmup_error.c_str());
  }
  if (tally.failed() > 0) {
    std::printf("first failure: %s\n", tally.first_error().c_str());
  }
  print_result(warmup_error.empty() && tally.failed() == 0 && written.ok(),
               tally.attempted(), tally.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::getenv("MDTASK_KERNEL_POLICY") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: unset MDTASK_KERNEL_POLICY; both sides of a "
                 "comparison must resolve the kernel policy the same way\n");
    return 2;
  }
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload psa|leaflet_tree|ingest "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--out-dir DIR]\n");
    return 2;
  }
  const std::string dir = options.work_dir + "/" + options.workload + "-" +
                          std::to_string(options.seed) + "-" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return 2;
  }
  auto workload =
      perfbench::make_workload(options.workload, options.seed, dir);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    std::filesystem::remove_all(dir, ec);
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu (default %llu, second %llu) "
              "seconds=%s trace=%d workers=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kSecondSeed),
              number(options.seconds).c_str(), options.trace ? 1 : 0,
              perfbench::bench_workers());
  std::string host = "# host";
  for (const auto& [key, value] : perfbench::host_fingerprint()) {
    host += " " + key + "=\"" + value + "\"";
  }
  std::printf("%s\n", host.c_str());
  const int rc = options.trace ? run_traced(*workload, options)
                               : run_end_to_end(*workload, options);
  workload.reset();
  std::filesystem::remove_all(dir, ec);
  return rc;
}
