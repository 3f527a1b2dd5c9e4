// One RAII owner of a workflow run's engine plumbing.
//
// Every PSA, Leaflet Finder, RepEx and frame-series body runs on the
// same scaffolding: a MetricsWindow feeding the autoscale policies, the
// engine itself with its tracks registered on the run's tracer, an
// ElasticDriver playing the membership plan against the live pool, and
// an AdaptiveDriver ticking the closed-loop controller. EngineSession
// builds all of it from the shared EngineRunConfig fields, so a runner
// body holds only its engine-native dataflow — the paper's subject.
//
// Members are declared in dependency order (window, engine, elastic
// driver, adaptive driver) and so destroyed in reverse: both driver
// threads are joined before the engine they act on goes away, and the
// engine is torn down before the window its workers record into.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "mdtask/autoscale/adapters.h"
#include "mdtask/autoscale/controller.h"
#include "mdtask/autoscale/metrics.h"
#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/mpi/runtime.h"
#include "mdtask/engines/rp/pilot.h"
#include "mdtask/engines/spark/spark.h"
#include "mdtask/trace/tracer.h"
#include "mdtask/workflows/common.h"

namespace mdtask::workflows {

/// Applies a seeded MembershipPlan to a live engine while a workflow
/// runs: a background thread sleeps to each event's at_s (wall seconds
/// from construction) and invokes `apply` with it. Scoped — the
/// destructor cancels unfired events and joins, so it lives exactly as
/// long as the engine run (EngineSession declares it after the engine,
/// so it is destroyed first).
class ElasticDriver {
 public:
  using Apply = std::function<void(const fault::MembershipEvent&)>;

  /// Starts the schedule. A null/empty plan or null callback is inert.
  ElasticDriver(const fault::MembershipPlan* plan, Apply apply);
  ~ElasticDriver();

  ElasticDriver(const ElasticDriver&) = delete;
  ElasticDriver& operator=(const ElasticDriver&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Runs an AutoscaleController against a live engine while a workflow
/// runs: a background thread ticks every `tick_interval_s`, observing
/// the engine through the adapter and acting through its callbacks.
/// Scoped like ElasticDriver — the destructor stops the ticker and
/// joins, so it lives exactly as long as the engine run (declare it
/// after the engine object so it is destroyed first). A disabled config
/// is inert.
class AdaptiveDriver {
 public:
  /// `window` is the same MetricsWindow handed to the engine's config
  /// (completed-task durations) and must outlive the driver; `log`
  /// (optional) receives AutoscaleRecords.
  AdaptiveDriver(const AdaptiveConfig& config,
                 autoscale::EngineAdapter adapter,
                 autoscale::MetricsWindow* window,
                 fault::RecoveryLog* log = nullptr);
  ~AdaptiveDriver();

  AdaptiveDriver(const AdaptiveDriver&) = delete;
  AdaptiveDriver& operator=(const AdaptiveDriver&) = delete;

  /// Control ticks evaluated so far.
  std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  autoscale::TargetUtilizationPolicy utilization_policy_;
  autoscale::StragglerSpeculationPolicy speculation_policy_;
  std::function<void(autoscale::MetricsWindow&)> observe_;
  autoscale::MetricsWindow* window_ = nullptr;
  std::unique_ptr<autoscale::AutoscaleController> controller_;
  std::atomic<std::uint64_t> ticks_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Engine construction knobs a runner sets that are not shared
/// EngineRunConfig fields.
struct EngineSessionOptions {
  /// Spark/Dask simulated per-task memory limit (0 = unlimited).
  std::uint64_t task_memory_limit = 0;
  /// RP modelled DB roundtrip latency per unit-state transition.
  double db_roundtrip_latency_s = 0.0;
  /// MPI world size; 0 = max(1, workers).
  std::size_t mpi_ranks = 0;
};

class EngineSession {
 public:
  /// Builds the engine for `kind` (none for MPI, whose world is launched
  /// per spmd() call) and starts the drivers. The tracer, plans and log
  /// `config` points to must outlive the session. MPI ignores the
  /// membership plan — the rigid baseline cannot resize — and its
  /// controller only records vetoed resizes.
  EngineSession(EngineKind kind, const EngineRunConfig& config,
                EngineSessionOptions options = {});

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// The engine of the session's kind (calling another kind's accessor
  /// is a precondition violation).
  spark::SparkContext& spark() noexcept { return *spark_; }
  dask::DaskClient& dask() noexcept { return *dask_; }
  rp::UnitManager& rp() noexcept { return *rp_; }

  /// MPI world size used by spmd().
  int ranks() const noexcept { return ranks_; }

  /// Runs one SPMD job on ranks() ranks with binomial-tree broadcast and
  /// the config's tracer: checkpoint-abort-restart
  /// (run_spmd_with_recovery) under a non-empty fault plan, plain
  /// run_spmd otherwise (the body then gets a fresh, job-local store).
  /// Throws fault::InjectedFault when the restart budget runs out.
  mpi::SpmdReport spmd(const mpi::RecoverableSpmdBody& body);

  /// Snapshot of the engine's counters (for MPI: the last spmd() job's
  /// bytes sent, as shuffle_bytes) with the given wall time.
  RunMetrics metrics(double wall_seconds) const;

  /// Opens the whole-run span `name` on the shared "workflow" driver
  /// track, the parent of the engine spans the run emits. Inert without
  /// a tracer.
  static trace::Span run_span(trace::Tracer* tracer, std::string name);
  /// The shared "workflow" driver track itself.
  static trace::Track driver_track(trace::Tracer& tracer);

 private:
  EngineKind kind_;
  EngineRunConfig config_;
  int ranks_;
  std::uint64_t spmd_bytes_ = 0;
  autoscale::MetricsWindow window_;
  std::unique_ptr<spark::SparkContext> spark_;
  std::unique_ptr<dask::DaskClient> dask_;
  std::unique_ptr<rp::UnitManager> rp_;
  ElasticDriver elastic_;
  AdaptiveDriver adaptive_;
};

}  // namespace mdtask::workflows
