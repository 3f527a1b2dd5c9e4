// Fault-aware shard reads: injected transient read errors must heal by
// re-reading, every decision must land in the RecoveryLog with the
// owning engine's recovery action, and same-seed schedules must replay
// byte-identical canonical logs (the determinism contract shared with
// the engine-level injection).
#include "mdtask/stream/recovery_read.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "mdtask/stream/shard_format.h"
#include "mdtask/traj/generators.h"
#include "test_paths.h"

namespace mdtask::stream {
namespace {

class StreamFaultTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path(".mds");

  void SetUp() override {
    traj::ProteinTrajectoryParams p;
    p.frames = 24;
    p.atoms = 7;
    p.seed = 17;
    source_ = traj::make_protein_trajectory(p);
    ShardStoreOptions opts;
    opts.frames_per_shard = 6;  // 4 shards
    ASSERT_TRUE(write_sharded(path_, source_, opts).ok());
    auto reader = ShardReader::open(path_);
    ASSERT_TRUE(reader.ok());
    reader_.emplace(std::move(reader.value()));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  traj::Trajectory source_;
  std::optional<ShardReader> reader_;
};

fault::FaultPlan transient_once(std::uint64_t task_id) {
  fault::FaultPlan plan;
  plan.schedule.push_back({fault::FaultKind::kTransientReadError, task_id,
                           /*attempt=*/0});
  plan.retry.max_attempts = 3;
  return plan;
}

TEST_F(StreamFaultTest, NullPlanPassesThrough) {
  ReadRecoveryContext ctx;  // plan == nullptr
  auto shard = read_shard_with_recovery(*reader_, 1, /*task_id=*/1, ctx);
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(shard.value().frames(), 6u);
}

TEST_F(StreamFaultTest, TransientErrorHealsByRereadPerEngine) {
  // Each engine answers the same corrupt read with its native recovery
  // action; all of them end with a clean re-read of identical bytes.
  const fault::EngineId kEngines[] = {
      fault::EngineId::kSpark, fault::EngineId::kDask, fault::EngineId::kRp,
      fault::EngineId::kMpi};
  const fault::FaultPlan plan = transient_once(2);
  for (const fault::EngineId engine : kEngines) {
    fault::RecoveryLog log;
    ReadRecoveryContext ctx{&plan, engine, &log};
    auto shard = read_shard_with_recovery(*reader_, 2, /*task_id=*/2, ctx);
    ASSERT_TRUE(shard.ok()) << shard.error().to_string();
    for (std::size_t f = 0; f < 6; ++f) {
      for (std::size_t a = 0; a < source_.atoms(); ++a) {
        ASSERT_EQ(shard.value().frame(f)[a], source_.frame(12 + f)[a]);
      }
    }
    const auto events = log.events();
    ASSERT_EQ(events.size(), 1u) << fault::to_string(engine);
    EXPECT_EQ(events[0].engine, engine);
    EXPECT_EQ(events[0].task_id, 2u);
    EXPECT_EQ(events[0].attempt, 0);
    EXPECT_EQ(events[0].fault, fault::FaultKind::kTransientReadError);
    EXPECT_EQ(events[0].action,
              fault::recovery_action(engine,
                                     fault::FaultKind::kTransientReadError, 0,
                                     plan.retry));
  }
}

TEST_F(StreamFaultTest, UntargetedTaskReadsClean) {
  const fault::FaultPlan plan = transient_once(2);
  fault::RecoveryLog log;
  ReadRecoveryContext ctx{&plan, fault::EngineId::kRp, &log};
  auto shard = read_shard_with_recovery(*reader_, 0, /*task_id=*/7, ctx);
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(log.size(), 0u);
}

TEST_F(StreamFaultTest, ExhaustedBudgetGivesUpWithContext) {
  fault::FaultPlan plan;
  plan.schedule.push_back({fault::FaultKind::kTransientReadError, 3,
                           fault::FaultSpec::kEveryAttempt});
  plan.retry.max_attempts = 2;
  fault::RecoveryLog log;
  ReadRecoveryContext ctx{&plan, fault::EngineId::kDask, &log};
  auto shard = read_shard_with_recovery(*reader_, 1, /*task_id=*/3, ctx);
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.error().code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(shard.error().task().has_value());
  EXPECT_EQ(shard.error().task()->task_id, 3u);
  // Both attempts were logged; the last decision is the give-up.
  const auto events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().action, fault::RecoveryAction::kGiveUp);
}

TEST_F(StreamFaultTest, RateDrivenScheduleIsSeedDeterministic) {
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.rates.transient_read = 0.5;
  plan.retry.max_attempts = 4;

  // 16 distinct task ids (mapped onto the 4 shards) so that p=0.5
  // fires somewhere with overwhelming probability, for any seed.
  constexpr std::uint64_t kTasks = 16;
  auto run = [&](const fault::FaultPlan& p, fault::RecoveryLog& log) {
    ReadRecoveryContext ctx{&p, fault::EngineId::kSpark, &log};
    for (std::uint64_t task = 0; task < kTasks; ++task) {
      auto shard = read_shard_with_recovery(
          *reader_, task % reader_->shard_count(), task, ctx);
      // With max_attempts=4 and p=0.5 a give-up is possible but the
      // outcome — success or failure — must match between runs, which
      // the canonical log comparison below asserts.
      (void)shard;
    }
  };
  fault::RecoveryLog first;
  fault::RecoveryLog second;
  run(plan, first);
  run(plan, second);
  EXPECT_EQ(first.canonical(), second.canonical());
  EXPECT_GT(first.size(), 0u);

  // A different seed draws a different schedule.
  fault::FaultPlan other = plan;
  other.seed = 100;
  fault::RecoveryLog third;
  run(other, third);
  EXPECT_NE(first.canonical(), third.canonical());
}

TEST_F(StreamFaultTest, ReadFramesRetriesEveryCoveredShard) {
  const fault::FaultPlan plan = transient_once(5);
  fault::RecoveryLog log;
  ReadRecoveryContext ctx{&plan, fault::EngineId::kRp, &log};
  // Frames [4, 14) touch shards 0, 1 and 2; the attempt-0 fault fires
  // once per shard's own attempt loop, so three re-reads heal it.
  const std::uint64_t fetched_before = reader_->shards_fetched();
  auto range = read_frames_with_recovery(*reader_, 4, 10, /*task_id=*/5, ctx);
  ASSERT_TRUE(range.ok()) << range.error().to_string();
  ASSERT_EQ(range.value().frames(), 10u);
  for (std::size_t f = 0; f < 10; ++f) {
    for (std::size_t a = 0; a < source_.atoms(); ++a) {
      ASSERT_EQ(range.value().frame(f)[a], source_.frame(4 + f)[a]);
    }
  }
  EXPECT_EQ(log.size(), 3u);
  // The burned attempt is rejected at checksum time, before this layer
  // issues the read, so only the clean re-read per shard fetches bytes.
  EXPECT_EQ(reader_->shards_fetched() - fetched_before, 3u);
}

TEST_F(StreamFaultTest, NonReadFaultKindsAreIgnoredHere) {
  // Task-level faults (OOM, crash, straggler) belong to the engines;
  // the read path must not consume or log them.
  fault::FaultPlan plan;
  plan.schedule.push_back({fault::FaultKind::kWorkerOomKill, 1, 0});
  plan.schedule.push_back(
      {fault::FaultKind::kStraggler, 1, fault::FaultSpec::kEveryAttempt});
  fault::RecoveryLog log;
  ReadRecoveryContext ctx{&plan, fault::EngineId::kDask, &log};
  auto shard = read_shard_with_recovery(*reader_, 0, /*task_id=*/1, ctx);
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(log.size(), 0u);
}

}  // namespace
}  // namespace mdtask::stream
