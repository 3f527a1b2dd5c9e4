// Shared vocabulary for the engine-parallel application drivers.
#pragma once

#include <cstdint>
#include <string>

#include "mdtask/autoscale/policy.h"
#include "mdtask/fault/fault.h"
#include "mdtask/fault/membership.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/stream/shard_reader.h"
#include "mdtask/trace/tracer.h"

namespace mdtask::workflows {

/// Which mini-framework executes the workload (Sec. 3).
enum class EngineKind { kMpi, kSpark, kDask, kRp };

const char* to_string(EngineKind kind) noexcept;

/// Out-of-core input for the streamed workflow entry points: a sharded
/// store (stream/shard_format.h) map tasks read their own slice of,
/// instead of slicing an in-memory array. How the slices map to engine
/// work units follows each engine's idiom — MPI ranks read their
/// block-cyclic share, Spark partitions and Dask tasks read per-block,
/// RP units stage their inputs — but all of them go through one shared
/// ShardReader, so results stay bit-identical to the in-memory runs.
struct StreamInput {
  std::string path;  ///< sharded .mds store
  stream::ShardReader::Mode mode = stream::ShardReader::Mode::kStream;
  /// PSA only: trajectories in the store (the store's frame count must
  /// divide evenly). Ignored by the Leaflet Finder (one point per
  /// stored frame).
  std::size_t trajectories = 0;
};

/// Plain-value snapshot of engine counters after a run (non-atomic copy
/// of engines::EngineMetrics plus workload-level measurements).
struct RunMetrics {
  std::uint64_t tasks = 0;
  std::uint64_t stages = 0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t broadcast_bytes = 0;
  std::uint64_t staged_bytes = 0;
  std::uint64_t db_roundtrips = 0;
  double wall_seconds = 0.0;
};

/// Knobs for closed-loop elasticity on a live engine run — the
/// policy-driven alternative to a fixed MembershipPlan schedule.
struct AdaptiveConfig {
  bool enabled = false;
  autoscale::TargetUtilizationPolicy::Config utilization;
  autoscale::StragglerSpeculationPolicy::Config speculation;
  bool scaling_enabled = true;
  bool speculation_enabled = true;
  /// Wall seconds between control ticks.
  double tick_interval_s = 0.05;
  /// Completed-task duration window fed to the policies.
  std::size_t metrics_capacity = 1024;
};

/// The engine and infrastructure knobs every engine-parallel workflow
/// carries: PsaRunConfig, LfRunConfig and repex::RepexConfig inherit
/// them, and an EngineSession (engine_session.h) turns them into the
/// live engine, its tracing and its elasticity drivers.
struct EngineRunConfig {
  /// Cores: MPI ranks, Spark executor threads, Dask workers, RP pilot
  /// slots.
  std::size_t workers = 4;
  /// When set, the run registers engine/worker tracks on this tracer and
  /// emits spans for the engine's stages, tasks, collectives and staging
  /// phases (export with trace::write_chrome_trace). Not owned.
  trace::Tracer* tracer = nullptr;
  /// Optional failure model (mdtask/fault). When set and non-empty, the
  /// engine injects the plan's faults into its tasks and recovers with
  /// its native policy (Spark lineage re-execution, Dask worker restart,
  /// RP retry+backoff, MPI checkpoint-abort-restart). Not owned.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Optional sink for every fault/recovery/elasticity decision the run
  /// makes. Not owned.
  fault::RecoveryLog* recovery_log = nullptr;
  /// Optional membership schedule (mdtask/fault/membership.h): an
  /// ElasticDriver applies its join/leave events to the live engine
  /// while the run executes. MPI ignores it — the rigid baseline cannot
  /// resize; use the DES layer (simulate_task_wave) to model its
  /// shrink-restart cost. Not owned.
  const fault::MembershipPlan* membership_plan = nullptr;
  /// Closed-loop elasticity (mdtask/autoscale): when enabled, an
  /// AdaptiveDriver observes the live engine and resizes / speculates
  /// by policy instead of a fixed schedule. Composes with
  /// membership_plan (the plan plays churn, the controller reacts). On
  /// MPI the controller only records rigid vetoes.
  AdaptiveConfig adaptive;
};

}  // namespace mdtask::workflows
