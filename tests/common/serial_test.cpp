#include "mdtask/common/serial.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace mdtask {
namespace {

TEST(SerialTest, ScalarRoundTrip) {
  ByteWriter w;
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.25);
  ByteReader r(w.bytes());
  auto a = r.get<std::uint32_t>();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), 0xdeadbeefu);
  auto b = r.get<double>();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 3.25);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerialTest, VectorRoundTrip) {
  ByteWriter w;
  const std::vector<float> xs = {1.0f, -2.5f, 3.75f};
  w.put_span<float>(xs);
  ByteReader r(w.bytes());
  auto back = r.get_vector<float>();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), xs);
}

TEST(SerialTest, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello, world");
  w.put_string("");
  ByteReader r(w.bytes());
  auto a = r.get_string();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), "hello, world");
  auto b = r.get_string();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), "");
}

TEST(SerialTest, TruncatedScalarFails) {
  ByteWriter w;
  w.put<std::uint16_t>(1);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.get<std::uint64_t>().ok());
}

TEST(SerialTest, TruncatedVectorFails) {
  ByteWriter w;
  w.put<std::uint64_t>(1000);  // claims 1000 elements, provides none
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.get_vector<double>().ok());
}

TEST(SerialTest, EmptyVectorRoundTrip) {
  ByteWriter w;
  w.put_span<double>(std::vector<double>{});
  ByteReader r(w.bytes());
  auto back = r.get_vector<double>();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerialTest, VectorCountThatWrapsByteSizeFails) {
  // (2^61 + 1) * sizeof(double) wraps to 8, which the 8 payload bytes
  // would satisfy if the size were multiplied before the bounds check.
  ByteWriter w;
  w.put<std::uint64_t>((std::uint64_t{1} << 61) + 1);
  w.put<double>(1.0);
  ByteReader r(w.bytes());
  auto back = r.get_vector<double>();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), ErrorCode::kFormatError);
}

TEST(SerialTest, StringLengthThatWrapsPositionFails) {
  // After the 8-byte length, pos + (2^64 - 8) wraps to 0.
  ByteWriter w;
  w.put<std::uint64_t>(~std::uint64_t{0} - 7);
  w.put<std::uint64_t>(0);
  ByteReader r(w.bytes());
  auto back = r.get_string();
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), ErrorCode::kFormatError);
}

TEST(SerialTest, SizeTracksPayload) {
  ByteWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.put<std::uint8_t>(1);
  EXPECT_EQ(w.size(), 1u);
  w.put_string("abc");  // 8-byte length + 3 bytes
  EXPECT_EQ(w.size(), 12u);
}

TEST(SerialTest, MixedSequenceRoundTrip) {
  ByteWriter w;
  w.put<std::int32_t>(-5);
  w.put_string("traj");
  const std::vector<std::uint64_t> ids = {1, 2, 3, 5, 8};
  w.put_span<std::uint64_t>(ids);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::int32_t>().value(), -5);
  EXPECT_EQ(r.get_string().value(), "traj");
  EXPECT_EQ(r.get_vector<std::uint64_t>().value(), ids);
}

}  // namespace
}  // namespace mdtask
