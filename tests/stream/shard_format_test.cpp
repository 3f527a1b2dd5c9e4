// Round-trip property tests for the sharded store (MDS) format:
// randomized seeded trajectories across shard sizes and compression
// settings must decode byte-identically, and every corruption class
// (truncation, bit-flip, bad magic) must be rejected with kFormatError
// before any garbage reaches an analysis kernel.
#include "mdtask/stream/shard_format.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <vector>

#include "mdtask/stream/shard_reader.h"
#include "mdtask/traj/generators.h"
#include "test_paths.h"

namespace mdtask::stream {
namespace {

class ShardFormatTest : public ::testing::Test {
 protected:
  std::string path_ = unique_temp_path(".mds");
  void TearDown() override { std::remove(path_.c_str()); }
};

traj::Trajectory random_trajectory(std::size_t frames, std::size_t atoms,
                                   std::uint64_t seed) {
  traj::ProteinTrajectoryParams p;
  p.frames = frames;
  p.atoms = atoms;
  p.seed = seed;
  return traj::make_protein_trajectory(p);
}

void expect_identical(const traj::Trajectory& got,
                      const traj::Trajectory& want) {
  ASSERT_EQ(got.frames(), want.frames());
  ASSERT_EQ(got.atoms(), want.atoms());
  const auto a = got.data();
  const auto b = want.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST_F(ShardFormatTest, RoundTripAcrossShardSizesAndCompression) {
  // Property sweep: shard sizes that divide the frame count, that don't
  // (short last shard), and the degenerate one-frame-per-shard case,
  // each with the codec on and off, over distinct seeded trajectories.
  const std::size_t kFramesPerShard[] = {1, 3, 8, 64};
  std::uint64_t seed = 100;
  for (const bool compress : {true, false}) {
    for (const std::size_t fps : kFramesPerShard) {
      const traj::Trajectory t = random_trajectory(21, 17, seed++);
      ShardStoreOptions opts;
      opts.frames_per_shard = fps;
      opts.delta_compress = compress;
      ASSERT_TRUE(write_sharded(path_, t, opts).ok());

      auto reader = ShardReader::open(path_);
      ASSERT_TRUE(reader.ok()) << reader.error().to_string();
      const ShardReader& r = reader.value();
      EXPECT_EQ(r.frames(), t.frames());
      EXPECT_EQ(r.atoms(), t.atoms());
      EXPECT_EQ(r.shard_count(), (t.frames() + fps - 1) / fps);
      EXPECT_EQ(r.info().compressed(), compress);

      auto back = r.read_all();
      ASSERT_TRUE(back.ok()) << back.error().to_string();
      expect_identical(back.value(), t);
    }
  }
}

TEST_F(ShardFormatTest, ReadShardAndFrameRangesMatchSource) {
  const traj::Trajectory t = random_trajectory(26, 9, 7);
  ShardStoreOptions opts;
  opts.frames_per_shard = 8;  // shards: 8, 8, 8, 2
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  const ShardReader& r = reader.value();

  for (std::size_t s = 0; s < r.shard_count(); ++s) {
    const auto [first, count] = r.shard_range(s);
    auto shard = r.read_shard(s);
    ASSERT_TRUE(shard.ok());
    ASSERT_EQ(shard.value().frames(), count);
    for (std::size_t f = 0; f < count; ++f) {
      for (std::size_t a = 0; a < t.atoms(); ++a) {
        ASSERT_EQ(shard.value().frame(f)[a], t.frame(first + f)[a]);
      }
    }
  }

  // A range crossing two shard boundaries.
  auto range = r.read_frames(6, 12);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range.value().frames(), 12u);
  for (std::size_t f = 0; f < 12; ++f) {
    for (std::size_t a = 0; a < t.atoms(); ++a) {
      ASSERT_EQ(range.value().frame(f)[a], t.frame(6 + f)[a]);
    }
  }
  EXPECT_GT(r.bytes_read(), 0u);
  EXPECT_GT(r.shards_fetched(), 0u);
}

TEST_F(ShardFormatTest, MmapModeMatchesStreamMode) {
  const traj::Trajectory t = random_trajectory(12, 23, 11);
  ASSERT_TRUE(write_sharded(path_, t).ok());
  auto mapped = ShardReader::open(path_, ShardReader::Mode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.error().to_string();
  auto back = mapped.value().read_all();
  ASSERT_TRUE(back.ok());
  expect_identical(back.value(), t);
}

TEST_F(ShardFormatTest, PointCloudRoundTrip) {
  traj::BilayerParams p;
  p.atoms = 512;
  const traj::Bilayer bilayer = traj::make_bilayer(p);
  ShardStoreOptions opts;
  opts.frames_per_shard = 100;  // 512 points -> 6 shards, last short
  ASSERT_TRUE(write_sharded_points(path_, bilayer.positions, opts).ok());
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().frames(), bilayer.positions.size());
  EXPECT_EQ(reader.value().atoms(), 1u);
  auto back = reader.value().read_all();
  ASSERT_TRUE(back.ok());
  const auto data = back.value().data();
  ASSERT_EQ(data.size(), bilayer.positions.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], bilayer.positions[i]);
  }
}

TEST_F(ShardFormatTest, DeltaCodecIsLosslessOnRandomBytes) {
  // The codec must invert on arbitrary payloads, not just smooth MD
  // data; fuzz with incompressible bytes and zero-dense bytes.
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 8; ++round) {
    const std::size_t frame_bytes = 24 * (1 + round % 3);
    const std::size_t frames = 1 + (round * 7) % 11;
    std::vector<std::uint8_t> raw(frame_bytes * frames);
    for (auto& b : raw) {
      // Even rounds: random bytes. Odd rounds: mostly zeros (RLE path).
      b = (round % 2 == 0 || rng() % 4 == 0)
              ? static_cast<std::uint8_t>(rng())
              : 0;
    }
    const std::vector<std::uint8_t> encoded = delta_encode(raw, frame_bytes);
    auto decoded = delta_decode(encoded, frame_bytes, raw.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    ASSERT_EQ(decoded.value(), raw) << "round " << round;
  }
}

TEST_F(ShardFormatTest, SmoothTrajectoriesCompress) {
  // The whole point of XOR-delta: consecutive MD frames differ in few
  // mantissa bits, so the stored file shrinks versus the raw payload.
  const traj::Trajectory t = random_trajectory(64, 333, 3);
  ShardStoreOptions raw_opts;
  raw_opts.delta_compress = false;
  ASSERT_TRUE(write_sharded(path_, t, raw_opts).ok());
  auto raw_reader = ShardReader::open(path_);
  ASSERT_TRUE(raw_reader.ok());
  std::uint64_t raw_stored = 0;
  for (const auto& e : raw_reader.value().info().index) {
    raw_stored += e.stored_bytes;
  }

  ASSERT_TRUE(write_sharded(path_, t).ok());  // compression on (default)
  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());
  std::uint64_t stored = 0;
  for (const auto& e : reader.value().info().index) {
    stored += e.stored_bytes;
    // Invariant: encoding never inflates a stored shard.
    EXPECT_LE(e.stored_bytes, e.raw_bytes);
  }
  EXPECT_LT(stored, raw_stored);
}

TEST_F(ShardFormatTest, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cull);
  const std::uint8_t ab[] = {'a', 'b'};
  EXPECT_NE(fnv1a64(ab), fnv1a64(a));
}

TEST_F(ShardFormatTest, BadMagicRejectedAtOpen) {
  const traj::Trajectory t = random_trajectory(8, 4, 1);
  ASSERT_TRUE(write_sharded(path_, t).ok());
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  auto reader = ShardReader::open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.error().code(), ErrorCode::kFormatError);
}

TEST_F(ShardFormatTest, TruncatedFileRejected) {
  const traj::Trajectory t = random_trajectory(16, 8, 2);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Chop the last shard's tail: the index now points past end of file.
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 9));
  out.close();
  auto reader = ShardReader::open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.error().code(), ErrorCode::kFormatError);

  // Chop inside the header itself.
  std::ofstream out2(path_, std::ios::binary | std::ios::trunc);
  out2.write(bytes.data(), 11);
  out2.close();
  auto reader2 = ShardReader::open(path_);
  ASSERT_FALSE(reader2.ok());
  EXPECT_EQ(reader2.error().code(), ErrorCode::kFormatError);
}

TEST_F(ShardFormatTest, BitFlipCaughtByChecksum) {
  const traj::Trajectory t = random_trajectory(16, 8, 3);
  ShardStoreOptions opts;
  opts.frames_per_shard = 4;
  ASSERT_TRUE(write_sharded(path_, t, opts).ok());
  // Flip one bit in the last payload byte; only the owning shard fails.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(-1, std::ios::end);
  char b = 0;
  f.get(b);
  f.seekp(-1, std::ios::end);
  f.put(static_cast<char>(b ^ 0x40));
  f.close();

  auto reader = ShardReader::open(path_);
  ASSERT_TRUE(reader.ok());  // header and index are intact
  const std::size_t last = reader.value().shard_count() - 1;
  auto corrupt = reader.value().read_shard(last);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.error().code(), ErrorCode::kFormatError);
  // Other shards still decode.
  auto clean = reader.value().read_shard(0);
  ASSERT_TRUE(clean.ok());
}

TEST_F(ShardFormatTest, MissingFileIsAnError) {
  auto reader = ShardReader::open(::testing::TempDir() + "/no-such-store.mds");
  ASSERT_FALSE(reader.ok());
}

TEST_F(ShardFormatTest, ShardPartitionsCoverAndBalance) {
  const auto parts = shard_partitions(10, 4);  // 3,3,2,2
  ASSERT_EQ(parts.size(), 4u);
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (const auto& p : parts) {
    EXPECT_EQ(p.begin, prev_end);
    prev_end = p.end;
    covered += p.size();
    EXPECT_GE(p.size(), 2u);
    EXPECT_LE(p.size(), 3u);
  }
  EXPECT_EQ(covered, 10u);
  // More parts than shards: one shard each, no empties.
  const auto fine = shard_partitions(3, 8);
  ASSERT_EQ(fine.size(), 3u);
  for (const auto& p : fine) EXPECT_EQ(p.size(), 1u);
}

}  // namespace
}  // namespace mdtask::stream
