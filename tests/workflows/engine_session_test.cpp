// EngineSession: the engine plumbing every runner body shares — engine
// construction with tracing, the MPI launch choice, the metrics
// snapshot and the whole-run driver span.
#include "mdtask/workflows/engine_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mdtask/traj/generators.h"
#include "mdtask/workflows/psa_runner.h"

namespace mdtask::workflows {
namespace {

/// gtest-safe identifier for an engine (names reject '-').
std::string engine_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "MPI";
    case EngineKind::kSpark: return "Spark";
    case EngineKind::kDask: return "Dask";
    case EngineKind::kRp: return "RP";
  }
  return "Unknown";
}

/// The process track name each engine registers on a tracer.
std::string engine_process(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMpi: return "mpi";
    case EngineKind::kSpark: return "spark";
    case EngineKind::kDask: return "dask";
    case EngineKind::kRp: return "rp";
  }
  return "";
}

class EngineSessionEngineTest : public ::testing::TestWithParam<EngineKind> {
};

TEST_P(EngineSessionEngineTest, TracedRunNestsEngineSpansUnderTheDriverSpan) {
  traj::ProteinTrajectoryParams p;
  p.atoms = 8;
  p.frames = 6;
  const auto ensemble = traj::make_protein_ensemble(5, p);
  trace::Tracer tracer;
  tracer.set_enabled(true);
  PsaRunConfig config;
  config.workers = 2;
  config.tracer = &tracer;
  run_psa(GetParam(), ensemble, config);

  bool engine_registered = false;
  bool driver_registered = false;
  for (const auto& n : tracer.track_names()) {
    if (n.is_process && n.name == engine_process(GetParam())) {
      engine_registered = true;
    }
    if (!n.is_process && n.name == "driver") driver_registered = true;
  }
  EXPECT_TRUE(engine_registered);
  EXPECT_TRUE(driver_registered);

  const auto events = tracer.events();
  const auto run =
      std::find_if(events.begin(), events.end(),
                   [](const auto& e) { return e.category == "workflow"; });
  ASSERT_NE(run, events.end());
  EXPECT_EQ(run->name, std::string("psa/") + to_string(GetParam()));
  std::size_t engine_spans = 0;
  for (const auto& e : events) {
    if (e.category == "workflow") continue;
    ++engine_spans;
    EXPECT_GE(e.start_us, run->start_us) << e.name;
    EXPECT_LE(e.start_us + e.dur_us, run->start_us + run->dur_us) << e.name;
  }
  EXPECT_GT(engine_spans, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineSessionEngineTest,
                         ::testing::Values(EngineKind::kMpi,
                                           EngineKind::kSpark,
                                           EngineKind::kDask,
                                           EngineKind::kRp),
                         [](const auto& param_info) {
                           return engine_id(param_info.param);
                         });

TEST(EngineSessionTest, MpiWorldSizeFollowsWorkersUnlessOverridden) {
  EngineRunConfig config;
  config.workers = 3;
  EXPECT_EQ(EngineSession(EngineKind::kMpi, config).ranks(), 3);
  config.workers = 0;
  EXPECT_EQ(EngineSession(EngineKind::kMpi, config).ranks(), 1);
  EXPECT_EQ(EngineSession(EngineKind::kMpi, config, {.mpi_ranks = 2}).ranks(),
            2);
}

TEST(EngineSessionTest, SpmdRestartsOnlyUnderAFaultPlan) {
  EngineRunConfig config;
  config.workers = 3;
  auto body = [](mpi::Communicator& comm, fault::CheckpointStore&) {
    comm.allreduce(std::vector<int>{comm.rank()},
                   [](int a, int b) { return a + b; });
  };
  EngineSession plain(EngineKind::kMpi, config);
  EXPECT_EQ(plain.spmd(body).attempts, 1);

  fault::FaultPlan plan;
  plan.schedule.push_back({fault::FaultKind::kNodeCrash, 0, 0});
  fault::RecoveryLog log;
  config.fault_plan = &plan;
  config.recovery_log = &log;
  EngineSession faulted(EngineKind::kMpi, config);
  EXPECT_EQ(faulted.spmd(body).attempts, 2);
  EXPECT_EQ(log.size(), 1u);
}

TEST(EngineSessionTest, MpiMetricsCarryTheLastJobsBytes) {
  EngineRunConfig config;
  config.workers = 2;
  EngineSession session(EngineKind::kMpi, config);
  const auto report =
      session.spmd([](mpi::Communicator& comm, fault::CheckpointStore&) {
        comm.gather<double>(std::vector<double>{1.0, 2.0}, 0);
      });
  const RunMetrics metrics = session.metrics(1.5);
  EXPECT_GT(report.total.bytes_sent, 0u);
  EXPECT_EQ(metrics.shuffle_bytes, report.total.bytes_sent);
  EXPECT_EQ(metrics.tasks, 0u);
  EXPECT_EQ(metrics.wall_seconds, 1.5);
}

TEST(EngineSessionTest, MetricsSnapshotTheEngineCounters) {
  EngineRunConfig config;
  config.workers = 2;
  EngineSession session(EngineKind::kSpark, config);
  const auto squares = session.spark()
                           .parallelize(std::vector<int>{1, 2, 3, 4}, 2)
                           .map([](const int& x) { return x * x; })
                           .collect();
  EXPECT_EQ(squares.size(), 4u);
  const RunMetrics metrics = session.metrics(0.0);
  EXPECT_EQ(metrics.tasks,
            session.spark().metrics().tasks_executed.load());
  EXPECT_EQ(metrics.stages,
            session.spark().metrics().stages_executed.load());
  EXPECT_GT(metrics.tasks, 0u);
}

TEST(EngineSessionTest, RunSpanIsInertWithoutATracer) {
  trace::Span span = EngineSession::run_span(nullptr, "psa/MPI");
  EXPECT_FALSE(span.active());
  span.arg_num("trajectories", 3);  // a no-op, not a crash
}

}  // namespace
}  // namespace mdtask::workflows
