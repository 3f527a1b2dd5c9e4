// Concurrency tests for the async prefetch pipeline: in-order delivery
// under fast and slow consumers, the depth bound, cancellation
// mid-stream and clean teardown with tiles in flight. Run under TSan in
// CI (the stream cell of the sanitizer matrix).
#include "mdtask/stream/prefetch.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "mdtask/common/thread_pool.h"
#include "mdtask/traj/generators.h"
#include "test_paths.h"

namespace mdtask::stream {
namespace {

class PrefetchTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path(".mds");

  void SetUp() override {
    traj::ProteinTrajectoryParams p;
    p.frames = 40;
    p.atoms = 13;
    p.seed = 5;
    source_ = traj::make_protein_trajectory(p);
    ShardStoreOptions opts;
    opts.frames_per_shard = 4;  // 10 shards
    ASSERT_TRUE(write_sharded(path_, source_, opts).ok());
    auto reader = ShardReader::open(path_);
    ASSERT_TRUE(reader.ok());
    reader_.emplace(std::move(reader.value()));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  traj::Trajectory source_;
  std::optional<ShardReader> reader_;
};

void expect_tile_matches(const FrameTile& tile, const traj::Trajectory& src) {
  for (std::size_t f = 0; f < tile.frames.frames(); ++f) {
    for (std::size_t a = 0; a < src.atoms(); ++a) {
      ASSERT_EQ(tile.frames.frame(f)[a], src.frame(tile.first_frame + f)[a]);
    }
  }
}

TEST_F(PrefetchTest, DeliversEveryShardInOrder) {
  ThreadPool pool(3);
  PrefetchPipeline pipe(*reader_, pool);
  std::size_t expected = 0;
  while (true) {
    auto tile = pipe.next();
    ASSERT_TRUE(tile.ok()) << tile.error().to_string();
    if (!tile.value().has_value()) break;
    EXPECT_EQ(tile.value()->shard, expected);
    EXPECT_EQ(tile.value()->first_frame, expected * 4);
    expect_tile_matches(*tile.value(), source_);
    ++expected;
  }
  EXPECT_EQ(expected, reader_->shard_count());
  EXPECT_EQ(pipe.tiles_delivered(), reader_->shard_count());
  // End of stream is sticky.
  auto again = pipe.next();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().has_value());
}

TEST_F(PrefetchTest, SlowConsumerKeepsBufferWithinDepth) {
  ThreadPool pool(4);
  PrefetchOptions opts;
  opts.depth = 2;
  PrefetchPipeline pipe(*reader_, pool, opts);
  // Let the producers race ahead of a consumer that never shows up; the
  // exchange buffer must saturate at `depth`, not the whole store.
  pool.wait_idle();
  EXPECT_LE(pipe.buffered(), opts.depth);
  std::size_t count = 0;
  while (true) {
    auto tile = pipe.next();
    ASSERT_TRUE(tile.ok());
    if (!tile.value().has_value()) break;
    EXPECT_EQ(tile.value()->shard, count);
    EXPECT_LE(pipe.buffered(), opts.depth);
    ++count;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count, reader_->shard_count());
}

TEST_F(PrefetchTest, FastConsumerFromAnotherThreadSeesSequentialOrder) {
  ThreadPool pool(2);
  PrefetchOptions opts;
  opts.depth = 3;
  PrefetchPipeline pipe(*reader_, pool, opts);
  std::vector<std::size_t> order;
  std::thread consumer([&] {
    while (true) {
      auto tile = pipe.next();
      if (!tile.ok() || !tile.value().has_value()) break;
      order.push_back(tile.value()->shard);
    }
  });
  consumer.join();
  ASSERT_EQ(order.size(), reader_->shard_count());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST_F(PrefetchTest, ShardRangeStreamsOnlyThePartition) {
  ThreadPool pool(2);
  PrefetchOptions opts;
  opts.begin_shard = 3;
  opts.end_shard = 7;
  PrefetchPipeline pipe(*reader_, pool, opts);
  std::size_t expected = 3;
  while (true) {
    auto tile = pipe.next();
    ASSERT_TRUE(tile.ok());
    if (!tile.value().has_value()) break;
    EXPECT_EQ(tile.value()->shard, expected++);
    expect_tile_matches(*tile.value(), source_);
  }
  EXPECT_EQ(expected, 7u);
}

TEST_F(PrefetchTest, PackTilesBuildsLanesOffTheCriticalPath) {
  ThreadPool pool(2);
  PrefetchOptions opts;
  opts.pack_tiles = true;
  PrefetchPipeline pipe(*reader_, pool, opts);
  std::size_t tiles = 0;
  while (true) {
    auto tile = pipe.next();
    ASSERT_TRUE(tile.ok());
    if (!tile.value().has_value()) break;
    ASSERT_TRUE(tile.value()->pack.has_value());
    EXPECT_EQ(tile.value()->pack->frames(), tile.value()->frames.frames());
    EXPECT_EQ(tile.value()->pack->atoms(), tile.value()->frames.atoms());
    ++tiles;
  }
  EXPECT_EQ(tiles, reader_->shard_count());
}

TEST_F(PrefetchTest, CancelMidStreamUnblocksConsumer) {
  ThreadPool pool(2);
  PrefetchPipeline pipe(*reader_, pool);
  auto first = pipe.next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().has_value());
  pipe.cancel();
  auto after = pipe.next();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code(), ErrorCode::kCancelled);
  // cancel() is idempotent and next() stays cancelled.
  pipe.cancel();
  auto again = pipe.next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kCancelled);
}

TEST_F(PrefetchTest, CancelFromAnotherThreadWhileConsumerBlocks) {
  ThreadPool pool(1);
  PrefetchPipeline pipe(*reader_, pool);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pipe.cancel();
  });
  // Drain until the cancel lands; every pre-cancel tile is well-formed.
  while (true) {
    auto tile = pipe.next();
    if (!tile.ok()) {
      EXPECT_EQ(tile.error().code(), ErrorCode::kCancelled);
      break;
    }
    if (!tile.value().has_value()) break;  // cancel raced end-of-stream
  }
  canceller.join();
}

TEST_F(PrefetchTest, DestructorDrainsInFlightTiles) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    PrefetchPipeline pipe(*reader_, pool);
    auto tile = pipe.next();
    ASSERT_TRUE(tile.ok());
    // Destroyed with producers mid-flight; must not leak, hang or race
    // the pool (TSan guards this loop in CI).
  }
  pool.wait_idle();
}

TEST_F(PrefetchTest, CorruptShardSurfacesItsError) {
  // Flip a byte in the last shard's payload; the pipeline must deliver
  // every clean tile first and then surface kFormatError in order.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    char b = 0;
    f.get(b);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(b ^ 0x01));
  }
  auto reopened = ShardReader::open(path_);
  ASSERT_TRUE(reopened.ok());
  ThreadPool pool(2);
  PrefetchPipeline pipe(reopened.value(), pool);
  std::size_t clean = 0;
  while (true) {
    auto tile = pipe.next();
    if (!tile.ok()) {
      EXPECT_EQ(tile.error().code(), ErrorCode::kFormatError);
      break;
    }
    ASSERT_TRUE(tile.value().has_value()) << "error tile never surfaced";
    EXPECT_EQ(tile.value()->shard, clean);
    ++clean;
  }
  EXPECT_EQ(clean, reopened.value().shard_count() - 1);
}

}  // namespace
}  // namespace mdtask::stream
