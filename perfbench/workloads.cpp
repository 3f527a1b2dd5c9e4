#include "workloads.h"

#include <algorithm>
#include <thread>
#include <type_traits>

#include "mdtask/analysis/graph.h"
#include "mdtask/analysis/hausdorff.h"
#include "mdtask/analysis/leaflet.h"
#include "mdtask/common/hash.h"
#include "mdtask/common/timer.h"
#include "mdtask/kernels/batch.h"
#include "mdtask/kernels/frame_pack.h"
#include "mdtask/stream/shard_format.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/traj/generators.h"
#include "mdtask/traj/mdt_file.h"
#include "mdtask/workflows/leaflet_runner.h"
#include "mdtask/workflows/psa_runner.h"

namespace perfbench {
namespace {

using mdtask::WallTimer;
using mdtask::workflows::EngineKind;
namespace analysis = mdtask::analysis;
namespace kernels = mdtask::kernels;
namespace stream = mdtask::stream;
namespace traj = mdtask::traj;

constexpr EngineKind kEngines[] = {EngineKind::kMpi, EngineKind::kSpark,
                                   EngineKind::kDask, EngineKind::kRp};

/// Adds the seconds `fn` takes to `into` and returns its result.
template <typename Fn>
auto timed(double& into, Fn&& fn) {
  WallTimer timer;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    into += timer.seconds();
  } else {
    auto result = fn();
    into += timer.seconds();
    return result;
  }
}

/// Stored and raw payload bytes of a store on disk.
void store_bytes(const std::string& path, std::uint64_t& stored,
                 std::uint64_t& raw) {
  stored = raw = 0;
  auto reader = stream::ShardReader::open(path);
  if (!reader.ok()) return;
  for (const auto& entry : reader.value().info().index) {
    stored += entry.stored_bytes;
    raw += entry.raw_bytes;
  }
}

std::string error_text(const mdtask::Error& e) { return e.to_string(); }

// ------------------------------------------------------------------ psa

/// Streamed PSA over a compressed ensemble store: 12 trajectories on 4
/// workers plan 3x3 = 9 blocks, and the Hausdorff kernels dominate.
class PsaWorkload final : public Workload {
 public:
  static constexpr std::size_t kTrajectories = 12;
  static constexpr std::size_t kAtoms = 176;
  static constexpr std::size_t kFrames = 112;
  static constexpr std::size_t kFramesPerShard = 16;
  static constexpr std::size_t kSamples = 8;

  PsaWorkload(std::uint64_t seed, const std::string& dir)
      : seed_(seed), path_(dir + "/psa.mds"),
        replay_path_(dir + "/psa-replay.mds") {}

  SetupTimes setup() override {
    SetupTimes times;
    traj::Ensemble ensemble;
    timed(times.inputs_s, [&] {
      traj::ProteinTrajectoryParams params;
      params.atoms = kAtoms;
      params.frames = kFrames;
      params.seed = seed_;
      ensemble = traj::make_protein_ensemble(kTrajectories, params);
      // The store holds the trajectories concatenated frame-major.
      all_ = traj::Trajectory(kTrajectories * kFrames, kAtoms);
      auto out = all_.data().begin();
      for (const auto& t : ensemble) {
        out = std::copy(t.data().begin(), t.data().end(), out);
      }
    });
    const auto status =
        timed(times.files_s, [&] { return write_store(path_); });
    if (!status.ok()) setup_error_ = error_text(status.error());
    store_bytes(path_, stored_bytes, raw_bytes);
    if (samples_.empty()) sample_scalar_reference(ensemble);
    return times;
  }

  JobOutcome run(std::size_t slot, mdtask::trace::Tracer* tracer) override {
    JobOutcome out;
    mdtask::workflows::PsaRunConfig config;
    config.workers = bench_workers();
    config.tracer = tracer;
    WallTimer timer;
    auto result = mdtask::workflows::run_psa_streamed(
        engine(slot), {.path = path_, .trajectories = kTrajectories},
        config);
    out.wall_s = timer.seconds();
    if (!setup_error_.empty()) {
      out.error = setup_error_;
    } else if (!result.ok()) {
      out.error = error_text(result.error());
    } else {
      out.metrics = result.value().metrics;
      const auto& matrix = result.value().matrix;
      const double tol = psa_sample_tolerance(config.kernel_policy);
      if (reference_.size() == 0) {
        // The first job becomes the cross-engine reference once its
        // sampled entries agree with the scalar kernel.
        out.error = check_psa(matrix, matrix, samples_, tol);
        if (out.ok()) reference_ = matrix;
      } else {
        out.error = check_psa(matrix, reference_, samples_, tol);
      }
    }
    return out;
  }

  Replay replay() override {
    Replay replay;
    auto& s = replay.seconds;
    auto& c = replay.counts;
    const auto policy = kernels::default_policy();
    mdtask::workflows::PsaRunConfig config;
    config.workers = bench_workers();
    const auto blocks =
        analysis::make_psa_blocks(
            kTrajectories,
            mdtask::workflows::psa_effective_block_size(kTrajectories,
                                                        config))
            .value();
    timed(replay.write_s, [&] { return write_store(replay_path_); });
    auto reader = timed(s["stream.read_s"], [&] {
      return stream::ShardReader::open(path_);
    });
    if (!reader.ok()) return replay;
    for (const auto& block : blocks) {
      // Each block task reads and packs its row and column trajectories
      // once, exactly as the streamed runner does.
      std::vector<kernels::FramePack> packs(kTrajectories);
      std::vector<bool> loaded(kTrajectories, false);
      auto load = [&](std::size_t i) {
        if (loaded[i]) return;
        loaded[i] = true;
        auto t = timed(s["stream.read_s"], [&] {
          return reader.value().read_frames(i * kFrames, kFrames);
        });
        if (!t.ok()) return;
        c["stream.read_bytes"] += static_cast<double>(t.value().byte_size());
        packs[i] = timed(s["kernels.pack_s"], [&] {
          return kernels::pack_trajectory(t.value());
        });
      };
      for (std::size_t i = block.row_begin; i < block.row_end; ++i) load(i);
      for (std::size_t j = block.col_begin; j < block.col_end; ++j) load(j);
      for (std::size_t i = block.row_begin; i < block.row_end; ++i) {
        for (std::size_t j = block.col_begin; j < block.col_end; ++j) {
          if (i == j) continue;
          std::size_t evals = 0;
          timed(s["kernels.hausdorff_s"], [&] {
            return kernels::hausdorff_packed(packs[i], packs[j], false,
                                             policy, &evals);
          });
          c["kernels.hausdorff_evals"] += static_cast<double>(evals);
        }
      }
    }
    c["engines.blocks"] = static_cast<double>(blocks.size());
    return replay;
  }

 private:
  mdtask::Status write_store(const std::string& path) const {
    return stream::write_sharded(path, all_,
                                 {.frames_per_shard = kFramesPerShard});
  }

  /// Seeded matrix entries recomputed by the scalar kernel (untimed).
  void sample_scalar_reference(const traj::Ensemble& ensemble) {
    std::uint64_t state = mdtask::hash_combine(seed_, 0x9a5ULL);
    while (samples_.size() < kSamples) {
      const std::size_t i = mdtask::splitmix64(state) % kTrajectories;
      const std::size_t j = mdtask::splitmix64(state) % kTrajectories;
      if (i == j) continue;
      samples_.push_back({i, j,
                          analysis::hausdorff_naive(
                              ensemble[i], ensemble[j],
                              kernels::KernelPolicy::kScalar)});
    }
  }

  std::uint64_t seed_;
  std::string path_;
  std::string replay_path_;
  std::string setup_error_;
  traj::Trajectory all_;  ///< the store's frames: trajectories concatenated
  std::vector<PsaSample> samples_;
  analysis::DistanceMatrix reference_;
};

// --------------------------------------------------------- leaflet_tree

/// Streamed Leaflet Finder approach 4 (BallTree edge search, partial
/// components merged by a tree reduce) on the paper's second system.
/// The layer mix is the opposite of psa's: tree search, graph merges
/// and engine dispatch dominate, and no cutoff or Hausdorff kernel runs.
class LeafletTreeWorkload final : public Workload {
 public:
  static constexpr int kApproach = 4;
  // Not the paper's smallest system (131 072 atoms): its 0.2 s jobs
  // woke the workers so often that job walls followed hypervisor steal.
  static constexpr std::size_t kAtoms = 262144;
  static constexpr std::size_t kPointsPerShard = 4096;
  // 15 map tasks instead of the runner's default 55. Every task dispatch
  // wakes a worker, and on a shared virtual machine each wake-up waits
  // for the hypervisor, so with 55 tasks a job's wall time followed the
  // host's steal time more than the code.
  static constexpr std::size_t kTargetTasks = 16;

  LeafletTreeWorkload(std::uint64_t seed, const std::string& dir)
      : path_(dir + "/bilayer.mds"), replay_path_(dir + "/bilayer-replay.mds") {
    params_.atoms = kAtoms;
    params_.seed = seed;
    cutoff_ = traj::default_cutoff(params_);
  }

  SetupTimes setup() override {
    SetupTimes times;
    bilayer_ =
        timed(times.inputs_s, [&] { return traj::make_bilayer(params_); });
    const auto status =
        timed(times.files_s, [&] { return write_store(path_); });
    if (!status.ok()) setup_error_ = error_text(status.error());
    store_bytes(path_, stored_bytes, raw_bytes);
    return times;
  }

  JobOutcome run(std::size_t slot, mdtask::trace::Tracer* tracer) override {
    JobOutcome out;
    mdtask::workflows::LfRunConfig config;
    config.workers = bench_workers();
    config.target_tasks = kTargetTasks;
    config.tracer = tracer;
    WallTimer timer;
    auto result = mdtask::workflows::run_leaflet_finder_streamed(
        engine(slot), kApproach,
        {.path = path_, .mode = stream::ShardReader::Mode::kMmap}, cutoff_,
        config);
    out.wall_s = timer.seconds();
    if (!setup_error_.empty()) {
      out.error = setup_error_;
    } else if (!result.ok()) {
      out.error = error_text(result.error());
    } else {
      out.metrics = result.value().metrics;
      out.error =
          check_leaflet(result.value().leaflets.labels, bilayer_.leaflet);
    }
    return out;
  }

  Replay replay() override {
    Replay replay;
    auto& s = replay.seconds;
    auto& c = replay.counts;
    const auto policy = kernels::default_policy();
    timed(replay.write_s, [&] { return write_store(replay_path_); });
    auto reader = timed(s["stream.read_s"], [&] {
      return stream::ShardReader::open(path_,
                                       stream::ShardReader::Mode::kMmap);
    });
    if (!reader.ok()) return replay;
    auto read = [&](const analysis::AtomChunk& chunk) {
      auto t = timed(s["stream.read_s"], [&] {
        return reader.value().read_frames(chunk.begin, chunk.size());
      });
      if (!t.ok()) return traj::Trajectory();
      c["stream.read_bytes"] += static_cast<double>(t.value().byte_size());
      return std::move(t).value();
    };
    // Each map task reads its block's rows and columns, searches a
    // BallTree for the block's edges and summarizes them as partial
    // components; the reduce merges the summaries.
    const auto blocks = analysis::make_2d_blocks(kAtoms, kTargetTasks);
    std::vector<analysis::PartialComponents> parts;
    for (const auto& block : blocks) {
      const auto rows = read(block.rows);
      const auto cols = block.diagonal() ? traj::Trajectory()
                                         : read(block.cols);
      const auto col_view = block.diagonal() ? rows.data() : cols.data();
      const auto edges = timed(s["analysis.tree_edges_s"], [&] {
        return analysis::lf_edges_tree_spans(rows.data(), col_view, block,
                                             cutoff_, policy);
      });
      c["analysis.edges"] += static_cast<double>(edges.size());
      parts.push_back(timed(s["analysis.partial_cc_s"], [&] {
        return analysis::partial_components(edges);
      }));
    }
    timed(s["analysis.merge_s"], [&] {
      return analysis::merge_partial_components(kAtoms, parts);
    });
    c["engines.blocks"] = static_cast<double>(blocks.size());
    return replay;
  }

 private:
  mdtask::Status write_store(const std::string& path) const {
    return stream::write_sharded_points(
        path, bilayer_.positions, {.frames_per_shard = kPointsPerShard});
  }

  std::string path_;
  std::string replay_path_;
  std::string setup_error_;
  traj::BilayerParams params_;
  double cutoff_ = 0.0;
  traj::Bilayer bilayer_;  ///< positions and the ground-truth leaflets
};

// --------------------------------------------------------------- ingest

/// The conversion every streamed user runs: MDT in, compressed sharded
/// store out, read back shard by shard and compared with the source.
class IngestWorkload final : public Workload {
 public:
  static constexpr std::size_t kAtoms = 1024;
  static constexpr std::size_t kFrames = 3072;
  static constexpr std::size_t kFramesPerShard = 64;

  IngestWorkload(std::uint64_t seed, const std::string& dir)
      : seed_(seed), mdt_path_(dir + "/source.mdt"),
        mds_path_(dir + "/ingest.mds") {}

  std::size_t cycle() const override { return 1; }
  std::string slot_label(std::size_t) const override { return "serial"; }

  // The source stays in memory: every job compares against it.
  SetupTimes setup() override {
    SetupTimes times;
    timed(times.inputs_s, [&] {
      traj::ProteinTrajectoryParams params;
      params.atoms = kAtoms;
      params.frames = kFrames;
      params.seed = seed_;
      source_ = traj::make_protein_trajectory(params);
    });
    const auto status = timed(times.files_s, [&] {
      return traj::write_mdt(mdt_path_, source_);
    });
    if (!status.ok()) setup_error_ = error_text(status.error());
    return times;
  }

  JobOutcome run(std::size_t, mdtask::trace::Tracer* tracer) override {
    JobOutcome out;
    double compare_s = 0.0;
    WallTimer timer;
    out.error = setup_error_;
    if (out.ok()) out.error = round_trip(tracer, out, compare_s);
    out.wall_s = timer.seconds() - compare_s;
    return out;
  }

  Replay replay() override {
    Replay replay;
    auto& s = replay.seconds;
    auto& c = replay.counts;
    const auto t = timed(s["traj.mdt_read_s"],
                         [&] { return traj::read_mdt(mdt_path_); });
    if (!t.ok()) return replay;
    timed(s["stream.write_s"], [&] {
      return stream::write_sharded(mds_path_, t.value(),
                                   {.frames_per_shard = kFramesPerShard});
    });
    replay.write_s = s["stream.write_s"];
    auto reader = timed(s["stream.read_s"], [&] {
      return stream::ShardReader::open(mds_path_);
    });
    if (!reader.ok()) return replay;
    for (std::size_t shard = 0; shard < reader.value().shard_count();
         ++shard) {
      const auto frames = timed(s["stream.read_s"], [&] {
        return reader.value().read_shard(shard);
      });
      if (frames.ok()) {
        c["stream.read_bytes"] +=
            static_cast<double>(frames.value().byte_size());
      }
    }
    store_bytes(mds_path_, stored_bytes, raw_bytes);
    return replay;
  }

 private:
  /// The job: with a tracer, the benchmark's own spans wrap the three
  /// library calls and the reader emits its io:read-shard spans. The
  /// oracle's comparisons are timed into `compare_s`, which the job's
  /// wall time leaves out.
  std::string round_trip(mdtask::trace::Tracer* tracer, JobOutcome& out,
                         double& compare_s) {
    mdtask::trace::Track track{};
    if (tracer != nullptr) {
      track = tracer->named_thread(tracer->process("perfbench"), "ingest");
    }
    auto span = [&](const char* name) {
      return tracer != nullptr ? tracer->span(track, name, "bench")
                               : mdtask::trace::Span();
    };
    traj::Trajectory t;
    {
      auto scope = span("bench:read_mdt");
      auto read = traj::read_mdt(mdt_path_);
      if (!read.ok()) return error_text(read.error());
      t = std::move(read).value();
    }
    {
      auto scope = span("bench:write_sharded");
      const auto status = stream::write_sharded(
          mds_path_, t, {.frames_per_shard = kFramesPerShard});
      if (!status.ok()) return error_text(status.error());
    }
    auto scope = span("bench:read_shards");
    auto reader = stream::ShardReader::open(mds_path_);
    if (!reader.ok()) return error_text(reader.error());
    if (tracer != nullptr) reader.value().set_tracer(tracer);
    std::size_t frames = 0;
    for (std::size_t shard = 0; shard < reader.value().shard_count();
         ++shard) {
      auto read = reader.value().read_shard(shard);
      if (!read.ok()) return error_text(read.error());
      const std::string error = timed(compare_s, [&] {
        return check_frames(source_, reader.value().shard_range(shard).first,
                            read.value());
      });
      if (!error.empty()) return error;
      frames += read.value().frames();
    }
    out.metrics.staged_bytes = reader.value().bytes_read();
    if (frames != source_.frames()) return "ingest: frames missing";
    return {};
  }

  std::uint64_t seed_;
  std::string mdt_path_;
  std::string mds_path_;
  std::string setup_error_;
  traj::Trajectory source_;
};

}  // namespace

double Replay::total_s() const {
  double total = 0.0;
  for (const auto& [name, s] : seconds) total += s;
  return total;
}

EngineKind Workload::engine(std::size_t slot) const {
  return kEngines[slot % 4];
}

std::string Workload::slot_label(std::size_t slot) const {
  return engine_name(engine(slot));
}

const char* engine_name(EngineKind engine) {
  switch (engine) {
    case EngineKind::kMpi: return "mpi";
    case EngineKind::kSpark: return "spark";
    case EngineKind::kDask: return "dask";
    case EngineKind::kRp: return "rp";
  }
  return "?";
}

std::size_t bench_workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "psa") return std::make_unique<PsaWorkload>(seed, work_dir);
  if (name == "leaflet_tree") {
    return std::make_unique<LeafletTreeWorkload>(seed, work_dir);
  }
  if (name == "ingest") {
    return std::make_unique<IngestWorkload>(seed, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
