#include "mdtask/workflows/engine_session.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace mdtask::workflows {
namespace {

int world_size(const EngineRunConfig& config,
               const EngineSessionOptions& options) {
  const std::size_t ranks =
      options.mpi_ranks > 0 ? options.mpi_ranks : config.workers;
  return static_cast<int>(std::max<std::size_t>(1, ranks));
}

/// The engines' completion paths feed the window only when the
/// controller reads it.
autoscale::MetricsWindow* engine_window(const EngineRunConfig& config,
                                        autoscale::MetricsWindow& window) {
  return config.adaptive.enabled ? &window : nullptr;
}

/// Registers the engine's tracks on the run's tracer, if any.
template <typename Engine>
std::unique_ptr<Engine> traced(std::unique_ptr<Engine> engine,
                               trace::Tracer* tracer) {
  if (tracer != nullptr) engine->enable_tracing(*tracer);
  return engine;
}

std::unique_ptr<spark::SparkContext> make_spark(
    const EngineRunConfig& config, const EngineSessionOptions& options,
    autoscale::MetricsWindow* window) {
  return traced(std::make_unique<spark::SparkContext>(spark::SparkConfig{
                    .executor_threads = config.workers,
                    .task_memory_limit = options.task_memory_limit,
                    .fault_plan = config.fault_plan,
                    .recovery_log = config.recovery_log,
                    .metrics_window = window}),
                config.tracer);
}

std::unique_ptr<dask::DaskClient> make_dask(
    const EngineRunConfig& config, const EngineSessionOptions& options,
    autoscale::MetricsWindow* window) {
  return traced(std::make_unique<dask::DaskClient>(dask::DaskConfig{
                    .workers = config.workers,
                    .task_memory_limit = options.task_memory_limit,
                    .fault_plan = config.fault_plan,
                    .recovery_log = config.recovery_log,
                    .metrics_window = window}),
                config.tracer);
}

std::unique_ptr<rp::UnitManager> make_rp(const EngineRunConfig& config,
                                         const EngineSessionOptions& options,
                                         autoscale::MetricsWindow* window) {
  return traced(std::make_unique<rp::UnitManager>(rp::PilotDescription{
                    .cores = config.workers,
                    .db_roundtrip_latency_s = options.db_roundtrip_latency_s,
                    .fault_plan = config.fault_plan,
                    .recovery_log = config.recovery_log,
                    .metrics_window = window}),
                config.tracer);
}

}  // namespace

ElasticDriver::ElasticDriver(const fault::MembershipPlan* plan,
                             Apply apply) {
  if (plan == nullptr || plan->empty() || !apply) return;
  std::vector<fault::MembershipEvent> schedule = plan->schedule;
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const fault::MembershipEvent& a,
                      const fault::MembershipEvent& b) {
                     return a.at_s < b.at_s;
                   });
  thread_ = std::thread([this, schedule = std::move(schedule),
                         apply = std::move(apply)] {
    const auto start = std::chrono::steady_clock::now();
    for (const auto& ev : schedule) {
      {
        std::unique_lock lk(mu_);
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(ev.at_s));
        if (cv_.wait_until(lk, due, [this] { return stop_; })) return;
      }
      apply(ev);
    }
  });
}

ElasticDriver::~ElasticDriver() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

AdaptiveDriver::AdaptiveDriver(const AdaptiveConfig& config,
                               autoscale::EngineAdapter adapter,
                               autoscale::MetricsWindow* window,
                               fault::RecoveryLog* log)
    : utilization_policy_(config.utilization),
      speculation_policy_(config.speculation),
      observe_(std::move(adapter.observe)),
      window_(window) {
  if (!config.enabled || window_ == nullptr) return;
  std::vector<autoscale::Policy*> policies;
  if (config.scaling_enabled) policies.push_back(&utilization_policy_);
  if (config.speculation_enabled) policies.push_back(&speculation_policy_);
  controller_ = std::make_unique<autoscale::AutoscaleController>(
      std::move(adapter.actions), std::move(policies), window_, log);
  const double tick_s = std::max(config.tick_interval_s, 1e-4);
  thread_ = std::thread([this, tick_s] {
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      {
        std::unique_lock lk(mu_);
        cv_.wait_for(lk, std::chrono::duration<double>(tick_s),
                     [this] { return stop_; });
        if (stop_) return;
      }
      if (observe_) observe_(*window_);
      const double now_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      controller_->tick(now_s);
      ticks_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

AdaptiveDriver::~AdaptiveDriver() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

EngineSession::EngineSession(EngineKind kind, const EngineRunConfig& config,
                             EngineSessionOptions options)
    : kind_(kind),
      config_(config),
      ranks_(world_size(config, options)),
      window_(config.adaptive.metrics_capacity),
      spark_(kind == EngineKind::kSpark
                 ? make_spark(config, options, engine_window(config, window_))
                 : nullptr),
      dask_(kind == EngineKind::kDask
                ? make_dask(config, options, engine_window(config, window_))
                : nullptr),
      rp_(kind == EngineKind::kRp
              ? make_rp(config, options, engine_window(config, window_))
              : nullptr),
      elastic_(kind == EngineKind::kMpi ? nullptr : config.membership_plan,
               [this](const fault::MembershipEvent& ev) {
                 const bool join = ev.kind == fault::MembershipKind::kNodeJoin;
                 const auto departure = config_.membership_plan->departure;
                 if (spark_ != nullptr) {
                   if (join) {
                     spark_->add_executors(ev.count);
                   } else {
                     spark_->decommission_executors(ev.count, departure);
                   }
                 } else if (dask_ != nullptr) {
                   if (join) {
                     dask_->add_workers(ev.count);
                   } else {
                     dask_->retire_workers(ev.count, departure);
                   }
                 } else if (join) {
                   rp_->grow_pilot(ev.count);
                 } else {
                   rp_->shrink_pilot(ev.count);
                 }
               }),
      // MPI is a rigid world: the controller can only record vetoed
      // resize decisions, reproducing the paper's inelastic baseline.
      adaptive_(config.adaptive,
                spark_   ? autoscale::spark_adapter(*spark_)
                : dask_  ? autoscale::dask_adapter(*dask_)
                : rp_    ? autoscale::rp_adapter(*rp_)
                         : autoscale::mpi_adapter(
                               static_cast<std::size_t>(ranks_)),
                &window_, config.recovery_log) {}

mpi::SpmdReport EngineSession::spmd(const mpi::RecoverableSpmdBody& body) {
  mpi::SpmdReport report;
  if (config_.fault_plan != nullptr && !config_.fault_plan->empty()) {
    report = mpi::run_spmd_with_recovery(ranks_, body, *config_.fault_plan,
                                         config_.recovery_log,
                                         mpi::BcastAlgorithm::kBinomialTree,
                                         config_.tracer);
  } else {
    fault::CheckpointStore store;
    report = mpi::run_spmd(
        ranks_, [&](mpi::Communicator& comm) { body(comm, store); },
        mpi::BcastAlgorithm::kBinomialTree, config_.tracer);
  }
  spmd_bytes_ = report.total.bytes_sent;
  return report;
}

RunMetrics EngineSession::metrics(double wall_seconds) const {
  RunMetrics out;
  out.wall_seconds = wall_seconds;
  const engines::EngineMetrics* m = nullptr;
  switch (kind_) {
    case EngineKind::kMpi: out.shuffle_bytes = spmd_bytes_; return out;
    case EngineKind::kSpark: m = &spark_->metrics(); break;
    case EngineKind::kDask: m = &dask_->metrics(); break;
    case EngineKind::kRp: m = &rp_->metrics(); break;
  }
  out.tasks = m->tasks_executed.load();
  out.stages = m->stages_executed.load();
  out.shuffle_bytes = m->shuffle_bytes.load();
  out.broadcast_bytes = m->broadcast_bytes.load();
  out.staged_bytes = m->staged_bytes.load();
  out.db_roundtrips = m->db_roundtrips.load();
  return out;
}

trace::Track EngineSession::driver_track(trace::Tracer& tracer) {
  return tracer.named_thread(tracer.process("workflow"), "driver");
}

trace::Span EngineSession::run_span(trace::Tracer* tracer,
                                    std::string name) {
  if (tracer == nullptr) return {};
  return tracer->span(driver_track(*tracer), std::move(name), "workflow");
}

}  // namespace mdtask::workflows
