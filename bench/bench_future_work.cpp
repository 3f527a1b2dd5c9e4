// Sec. 6 future-work features, implemented and measured:
//  (a) straggler mitigation via speculative execution — makespan with
//      and without speculation under a heavy-tailed straggler mix;
//  (b) dynamic resource-pool scaling — makespan as nodes are added to a
//      running Leaflet-Finder-sized task wave at different times;
//  (c) per-engine elasticity — one seeded join + one seeded leave
//      replayed under each engine's departure semantics (`--churn N`
//      appends N seeded join/leave pairs per engine);
//  (d) checkpoint-interval sweep for the rigid MPI baseline against the
//      Daly optimum, with write/restore costs calibrated to the
//      shared-filesystem alpha-beta model.
//
// `--adaptive` appends the closed-loop studies (CSV rows appear only
// with the flag, keeping the default outputs byte-identical):
//  (e) policy-driven elasticity (mdtask::autoscale) against the best
//      fixed membership schedule on a straggler-heavy wave;
//  (f) live straggler speculation on the real Spark and Dask engines —
//      p99 task latency with and without backup copies.
#include <algorithm>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "mdtask/autoscale/sim_adaptive.h"
#include "mdtask/engines/dask/dask.h"
#include "mdtask/engines/spark/spark.h"
#include "mdtask/fault/sim_faults.h"
#include "mdtask/perf/workloads.h"
#include "mdtask/workflows/engine_session.h"

using namespace mdtask;
using namespace mdtask::perf;

int main(int argc, char** argv) {
  const std::uint64_t seed = bench::parse_seed(argc, argv);
  const std::size_t churn = bench::parse_churn(argc, argv);
  const bool adaptive = bench::parse_adaptive(argc, argv);
  bench::print_seed(seed);
  {
    Table table("Future work (a): speculative execution vs stragglers "
                "(1024 x 1 s tasks, 64 cores)");
    table.set_header({"straggler_fraction", "straggler_factor", "plain_s",
                      "speculative_s", "improvement"});
    const auto cluster = bench::wrangler_alloc(64);
    for (double fraction : {0.01, 0.05, 0.10}) {
      for (double factor : {4.0, 10.0}) {
        const double plain = simulate_straggler_makespan(
            cluster, 1024, 1.0, fraction, factor, SpeculationPolicy{},
            seed);
        const double spec = simulate_straggler_makespan(
            cluster, 1024, 1.0, fraction, factor,
            SpeculationPolicy{.enabled = true, .threshold_factor = 1.5},
            seed);
        table.add_row({Table::fmt(fraction, 2), Table::fmt(factor, 0),
                       Table::fmt(plain, 2), Table::fmt(spec, 2),
                       Table::fmt(100.0 * (1.0 - spec / plain), 1) + "%"});
      }
    }
    bench::emit(table, "future_speculation");
  }
  {
    Table table("Future work (b): elastic resource pool "
                "(1024 x 1 s tasks, 32 -> 64 cores)");
    table.set_header({"grow_at_s", "makespan_s", "vs_fixed"});
    const double fixed = simulate_elastic_makespan(1024, 1.0, 32, 0, 0.0);
    table.add_row({"never", Table::fmt(fixed, 2), "1.00x"});
    for (double at : {0.0, 4.0, 8.0, 16.0, 24.0}) {
      const double grown = simulate_elastic_makespan(1024, 1.0, 32, 32, at);
      table.add_row({Table::fmt(at, 0), Table::fmt(grown, 2),
                     Table::fmt(fixed / grown, 2) + "x"});
    }
    bench::emit(table, "future_elastic");
  }
  {
    Table table("Future work (c): per-engine elasticity "
                "(1024 x 1 s tasks, 32 cores; join +16 @ 8 s, "
                "leave -8 @ 16 s)");
    table.set_header({"engine", "policy", "makespan_s", "vs_static",
                      "preempted", "final_pool"});
    const std::vector<double> durations(1024, 1.0);
    const fault::FaultPlan plan{.seed = seed};
    const fault::EngineId engines[] = {
        fault::EngineId::kSpark, fault::EngineId::kDask,
        fault::EngineId::kRp, fault::EngineId::kMpi};
    for (const fault::EngineId engine : engines) {
      const double fixed =
          fault::simulate_task_wave(32, durations, plan, engine).makespan_s;
      fault::MembershipPlan membership{.seed = seed};
      membership.schedule.push_back(
          {fault::MembershipKind::kNodeJoin, 8.0, 16});
      membership.schedule.push_back(
          {fault::MembershipKind::kNodeLeave, 16.0, 8});
      const auto outcome = fault::simulate_task_wave(
          32, durations, plan, engine, nullptr, &membership);
      table.add_row(
          {fault::to_string(engine),
           fault::to_string(fault::departure_for(
               engine, fault::DeparturePolicy::kEngineDefault)),
           Table::fmt(outcome.makespan_s, 2),
           Table::fmt(fixed / outcome.makespan_s, 2) + "x",
           std::to_string(outcome.preempted),
           std::to_string(outcome.final_pool)});
      if (churn > 0) {
        const auto churned = fault::churn_plan(seed, engine, churn, churn,
                                               /*horizon_s=*/24.0);
        const auto stirred = fault::simulate_task_wave(
            32, durations, plan, engine, nullptr, &churned);
        table.add_row(
            {std::string(fault::to_string(engine)) + " churn",
             fault::to_string(fault::departure_for(
                 engine, fault::DeparturePolicy::kEngineDefault)),
             Table::fmt(stirred.makespan_s, 2),
             Table::fmt(fixed / stirred.makespan_s, 2) + "x",
             std::to_string(stirred.preempted),
             std::to_string(stirred.final_pool)});
      }
    }
    bench::emit(table, "future_elastic_engines");
  }
  {
    // Rigid-baseline checkpointing: a 1 h SPMD job, MTBF 20 min, costs
    // from the Wrangler shared-filesystem model for 256 MB of state.
    const auto model = fault::checkpoint_model_for(sim::wrangler());
    const std::uint64_t state_bytes = 256ull << 20;
    const double checkpoint_s = model.write_s(state_bytes);
    const double restart_s = model.restore_s(state_bytes);
    const double work_s = 3600.0;
    const double mtbf_s = 1200.0;
    const double daly = fault::daly_optimum_interval(checkpoint_s, mtbf_s);
    Table table("Future work (d): checkpoint-interval sweep "
                "(1 h job, MTBF 20 min, 256 MB state on Wrangler; "
                "Daly optimum " + Table::fmt(daly, 1) + " s)");
    table.set_header({"interval_s", "total_s", "overhead", "checkpoints",
                      "failures"});
    std::vector<double> intervals = {30.0,  60.0,   120.0, 240.0,
                                     480.0, 960.0, 1920.0};
    intervals.push_back(daly);
    std::sort(intervals.begin(), intervals.end());
    for (const double interval : intervals) {
      const auto point = fault::simulate_checkpointed_job(
          work_s, interval, checkpoint_s, restart_s, mtbf_s, seed);
      const bool optimal = interval == daly;
      table.add_row(
          {Table::fmt(interval, 1) + (optimal ? " (Daly)" : ""),
           Table::fmt(point.total_s, 1),
           Table::fmt(100.0 * (point.total_s / work_s - 1.0), 1) + "%",
           std::to_string(point.checkpoints),
           std::to_string(point.failures)});
    }
    bench::emit(table, "future_checkpoint");
  }
  if (adaptive) {
    // (e) The closed loop vs the best fixed schedule. Static rows replay
    // the straggler-heavy wave under hand-picked MembershipPlans; the
    // adaptive rows hand the same wave to the AutoscaleController, which
    // must discover the grow moment (and the stragglers) from its own
    // observations. Scaling/speculation-only rows attribute the win.
    Table table(
        "Future work (e): closed-loop elasticity vs static membership "
        "(512 x 1 s tasks, 5% stragglers x8, 32 cores, ceiling 64)");
    table.set_header({"config", "engine", "makespan_s", "vs_best_static",
                      "pool", "scale_ups", "copies", "vetoes",
                      "p99_task_s"});
    const std::vector<double> durations(512, 1.0);
    fault::FaultPlan plan{.seed = seed};
    plan.rates.straggler = 0.05;
    plan.rates.straggler_factor = 8.0;

    struct StaticRow {
      std::string name;
      fault::SimFaultOutcome out;
    };
    std::vector<StaticRow> statics;
    statics.push_back({"static 32",
                       fault::simulate_task_wave(32, durations, plan,
                                                 fault::EngineId::kDask)});
    for (double at : {2.0, 4.0, 8.0}) {
      fault::MembershipPlan membership{.seed = seed};
      membership.schedule.push_back(
          {fault::MembershipKind::kNodeJoin, at, 32});
      statics.push_back({"static +32 @ " + Table::fmt(at, 0) + " s",
                         fault::simulate_task_wave(
                             32, durations, plan, fault::EngineId::kDask,
                             nullptr, &membership)});
    }
    double best_static = std::numeric_limits<double>::infinity();
    for (const auto& row : statics) {
      best_static = std::min(best_static, row.out.makespan_s);
    }
    for (const auto& row : statics) {
      table.add_row({row.name, "dask", Table::fmt(row.out.makespan_s, 2),
                     Table::fmt(best_static / row.out.makespan_s, 2) + "x",
                     std::to_string(row.out.final_pool), "-", "-", "-",
                     "-"});
    }

    autoscale::AdaptiveSimConfig control;
    control.utilization.low_watermark = 0.20;
    control.utilization.cooldown_s = 1.0;
    control.utilization.max_pool = 64;
    control.utilization.max_step = 32;
    control.speculation.threshold_factor = 2.0;
    control.speculation.min_completed = 16;

    const auto add_adaptive = [&](const std::string& name,
                                  fault::EngineId engine,
                                  const autoscale::AdaptiveSimConfig& cfg) {
      const auto out =
          autoscale::simulate_adaptive_wave(32, durations, plan, engine, cfg);
      table.add_row({name, std::string(fault::to_string(engine)),
                     Table::fmt(out.makespan_s, 2),
                     Table::fmt(best_static / out.makespan_s, 2) + "x",
                     std::to_string(out.peak_pool),
                     std::to_string(out.scale_ups),
                     std::to_string(out.speculative_copies),
                     std::to_string(out.rigid_vetoes),
                     Table::fmt(out.p99_task_s, 2)});
    };
    autoscale::AdaptiveSimConfig scaling_only = control;
    scaling_only.speculation_enabled = false;
    add_adaptive("adaptive scaling", fault::EngineId::kDask, scaling_only);
    autoscale::AdaptiveSimConfig speculation_only = control;
    speculation_only.scaling_enabled = false;
    add_adaptive("adaptive speculation", fault::EngineId::kDask,
                 speculation_only);
    const fault::EngineId engines[] = {
        fault::EngineId::kSpark, fault::EngineId::kDask,
        fault::EngineId::kRp, fault::EngineId::kMpi};
    for (const fault::EngineId engine : engines) {
      add_adaptive("adaptive both", engine, control);
    }
    bench::emit(table, "future_adaptive");
  }
  if (adaptive) {
    // (f) Live straggler speculation: the same map workload on the real
    // Spark and Dask engines, with four tasks slowed 50x through
    // scheduled FaultSpecs (delay_s sleeps on the worker). The "on" rows
    // run an AdaptiveDriver in speculation-only mode; backups skip the
    // injected sleep (the relaunch lands on a healthy executor), so the
    // windowed p99 task latency is the speculation win.
    Table table(
        "Future work (f): live straggler speculation "
        "(48 x ~5 ms tasks, 8 workers, 4 x 250 ms injected stragglers)");
    table.set_header(
        {"engine", "speculation", "p50_task_ms", "p99_task_ms", "copies"});

    constexpr std::uint64_t kStragglerParts[] = {5, 17, 29, 41};
    constexpr double kStragglerDelayS = 0.25;
    workflows::AdaptiveConfig driver_config;
    driver_config.scaling_enabled = false;
    driver_config.speculation_enabled = true;
    driver_config.tick_interval_s = 0.02;
    driver_config.speculation.threshold_factor = 3.0;
    driver_config.speculation.min_completed = 8;
    driver_config.speculation.min_threshold_s = 0.05;

    struct LiveRow {
      autoscale::MetricsSnapshot snapshot;
      std::uint64_t copies = 0;
    };
    const auto add_row = [&](const char* engine, bool spec_on,
                             const LiveRow& row) {
      table.add_row({engine, spec_on ? "on" : "off",
                     Table::fmt(row.snapshot.p50_s * 1e3, 1),
                     Table::fmt(row.snapshot.p99_s * 1e3, 1),
                     std::to_string(row.copies)});
    };

    const auto run_spark = [&](bool spec_on) {
      fault::FaultPlan plan{.seed = seed};
      for (const std::uint64_t p : kStragglerParts) {
        // Spark task ids are (stage_id << 20) | partition; the single
        // map stage of this run is stage 1.
        plan.schedule.push_back({fault::FaultKind::kStraggler,
                                 (std::uint64_t{1} << 20) | p, 0, 1.0,
                                 kStragglerDelayS});
      }
      autoscale::MetricsWindow window(256);
      spark::SparkContext sc({.executor_threads = 8, .fault_plan = &plan,
                              .metrics_window = &window});
      workflows::AdaptiveConfig cfg = driver_config;
      cfg.enabled = spec_on;
      workflows::AdaptiveDriver driver(cfg, autoscale::spark_adapter(sc),
                                       &window);
      std::vector<int> items(48);
      for (int i = 0; i < 48; ++i) items[static_cast<std::size_t>(i)] = i;
      auto mapped =
          sc.parallelize(std::move(items), 48).map([](int x) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            return x;
          });
      (void)mapped.collect();
      return LiveRow{window.snapshot(), sc.speculative_copies()};
    };
    const auto run_dask = [&](bool spec_on) {
      fault::FaultPlan plan{.seed = seed};
      for (const std::uint64_t id : kStragglerParts) {
        // Dask task ids are submission order, starting at 0.
        plan.schedule.push_back({fault::FaultKind::kStraggler, id, 0, 1.0,
                                 kStragglerDelayS});
      }
      autoscale::MetricsWindow window(256);
      dask::DaskClient client(
          {.workers = 8, .fault_plan = &plan, .metrics_window = &window});
      workflows::AdaptiveConfig cfg = driver_config;
      cfg.enabled = spec_on;
      workflows::AdaptiveDriver driver(cfg, autoscale::dask_adapter(client),
                                       &window);
      std::vector<dask::Future<int>> futures;
      futures.reserve(48);
      for (int i = 0; i < 48; ++i) {
        futures.push_back(client.submit([i] {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return i;
        }));
      }
      for (const auto& future : futures) (void)future.get();
      client.wait_all();
      return LiveRow{window.snapshot(), client.speculative_copies()};
    };

    for (const bool spec_on : {false, true}) {
      add_row("spark", spec_on, run_spark(spec_on));
    }
    for (const bool spec_on : {false, true}) {
      add_row("dask", spec_on, run_dask(spec_on));
    }
    bench::emit(table, "future_speculation_live");
  }
  return 0;
}
