// The benchmark's workloads, each driving the library through its public
// workflow, stream, traj and kernel APIs (see README.md for why each
// exists and which layer dominates it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness.h"
#include "mdtask/trace/tracer.h"
#include "mdtask/workflows/common.h"

namespace perfbench {

/// Seconds spent generating a workload's inputs and writing its files.
struct SetupTimes {
  double inputs_s = 0.0;
  double files_s = 0.0;
  double total() const { return inputs_s + files_s; }
};

/// Serial, layer-by-layer timing of the calls one job makes.
struct Replay {
  std::map<std::string, double> seconds;  ///< "<module>.<what>_s" -> s
  std::map<std::string, double> counts;   ///< exact counts of the calls
  /// One write of the workload's store. On ingest the job makes it, so it
  /// is in `seconds` too; elsewhere it is set-up work and stays out of
  /// the job's layer times.
  double write_s = 0.0;
  double total_s() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Jobs in one full cycle of engines.
  virtual std::size_t cycle() const { return 4; }
  /// Engine of job slot `slot`: MPI, Spark, Dask, RP in turn.
  mdtask::workflows::EngineKind engine(std::size_t slot) const;
  virtual std::string slot_label(std::size_t slot) const;

  /// Generates the inputs (seeded) and writes the workload's files. The
  /// first call also derives the oracle's expected values from the
  /// inputs, outside the returned times.
  virtual SetupTimes setup() = 0;
  /// Runs job slot `slot` (tracer optional) and checks its result.
  virtual JobOutcome run(std::size_t slot,
                         mdtask::trace::Tracer* tracer) = 0;
  /// Replays the layer calls of one job serially.
  virtual Replay replay() = 0;

  /// The workload's sharded store, for the stream metrics: stored and
  /// raw payload bytes. setup() writes it, except on ingest, whose jobs
  /// write it (recorded by replay()).
  std::uint64_t stored_bytes = 0;
  std::uint64_t raw_bytes = 0;
};

/// Short lowercase engine name used in metric names.
const char* engine_name(mdtask::workflows::EngineKind engine);

/// Engine workers: min(4, nproc).
std::size_t bench_workers();

/// Builds workload `name` with its inputs under `work_dir`; nullptr for
/// an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

}  // namespace perfbench
