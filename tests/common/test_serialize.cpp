// Round-trip tests for the byte serialization layer.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace mrbio {
namespace {

TEST(Serialize, PodRoundTrip) {
  ByteWriter w;
  w.put<std::int32_t>(-7);
  w.put<double>(2.5);
  w.put<std::uint8_t>(255);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
  EXPECT_EQ(r.get<std::uint8_t>(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string("with\0null", 9));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("with\0null", 9));
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter w;
  w.put_vector(std::vector<float>{1.0f, -2.0f, 3.5f});
  w.put_vector(std::vector<std::uint64_t>{});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_vector<float>(), (std::vector<float>{1.0f, -2.0f, 3.5f}));
  EXPECT_TRUE(r.get_vector<std::uint64_t>().empty());
}

TEST(Serialize, EmptyVectorAndStringRoundTrip) {
  // An empty vector has a null data(); reading one back must not hand that
  // pointer to memcpy (a sanitizer build reports it).
  ByteWriter w;
  w.put_vector(std::vector<std::uint32_t>{});
  w.put_string("");
  w.put_bytes({});
  w.put<std::uint8_t>(9);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_vector<std::uint32_t>().empty());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_EQ(r.get<std::uint8_t>(), 9);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, BytesRoundTrip) {
  ByteWriter w;
  std::vector<std::byte> blob{std::byte{1}, std::byte{2}};
  w.put_bytes(blob);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_bytes(), blob);
}

TEST(Serialize, MixedSequencePreservesOrder) {
  ByteWriter w;
  w.put<std::uint16_t>(10);
  w.put_string("key");
  w.put_vector(std::vector<std::int32_t>{4, 5});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint16_t>(), 10);
  EXPECT_EQ(r.get_string(), "key");
  EXPECT_EQ(r.get_vector<std::int32_t>(), (std::vector<std::int32_t>{4, 5}));
}

TEST(Serialize, UnderflowThrows) {
  ByteWriter w;
  w.put<std::int32_t>(1);
  ByteReader r(w.bytes());
  r.get<std::int32_t>();
  EXPECT_THROW(r.get<std::int32_t>(), LogicError);
}

TEST(Serialize, TruncatedStringThrows) {
  ByteWriter w;
  w.put<std::uint64_t>(100);  // claims 100 bytes follow, none do
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), LogicError);
}

TEST(Serialize, RemainingTracksConsumption) {
  ByteWriter w;
  w.put<std::uint64_t>(1);
  w.put<std::uint64_t>(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 16u);
  r.get<std::uint64_t>();
  EXPECT_EQ(r.remaining(), 8u);
  r.get<std::uint64_t>();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TakeMovesBufferAndClears) {
  ByteWriter w;
  w.put<std::int32_t>(5);
  auto buf = w.take();
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace mrbio
