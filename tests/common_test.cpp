#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/error.h"
#include "common/secret.h"
#include "common/serialize.h"

namespace spfe {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(hex_encode(data), "0001abff7f");
  EXPECT_EQ(hex_decode("0001abff7f"), data);
  EXPECT_EQ(hex_decode("0001ABFF7F"), data);
}

TEST(Hex, Empty) {
  EXPECT_EQ(hex_encode({}), "");
  EXPECT_TRUE(hex_decode("").empty());
}

TEST(Hex, RejectsOddLength) { EXPECT_THROW(hex_decode("abc"), SerializationError); }

TEST(Hex, RejectsNonHex) { EXPECT_THROW(hex_decode("zz"), SerializationError); }

TEST(Bytes, XorBytes) {
  const Bytes a = {0xff, 0x00, 0x55};
  const Bytes b = {0x0f, 0xf0, 0xaa};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{0xf0, 0xf0, 0xff}));
  EXPECT_THROW(xor_bytes(a, Bytes{0x00}), InvalidArgument);
}

TEST(Bytes, CtEqual) {
  // common::ct_eq_bytes, the constant-time equality the CT harness times:
  // an all-ones mask for equal buffers, zero for a difference anywhere.
  const Bytes a = {1, 2, 3};
  EXPECT_EQ(common::ct_eq_bytes(a.data(), Bytes{1, 2, 3}.data(), 3), ~std::uint64_t{0});
  EXPECT_EQ(common::ct_eq_bytes(a.data(), Bytes{1, 2, 4}.data(), 3), 0u);
  EXPECT_EQ(common::ct_eq_bytes(a.data(), Bytes{0, 2, 3}.data(), 3), 0u);
  EXPECT_EQ(common::ct_eq_bytes(a.data(), Bytes{9, 9, 9}.data(), 0), ~std::uint64_t{0});
}

TEST(Serialize, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VarintRoundTrip) {
  const std::uint64_t values[] = {0,    1,    127,  128,   16383, 16384,
                                  1u << 20, ~0ull >> 1, ~0ull};
  Writer w;
  for (auto v : values) w.varint(v);
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  r.expect_done();
}

TEST(Serialize, VarintEncodingIsMinimalForSmall) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.data().size(), 1u);
}

TEST(Serialize, BytesAndStrings) {
  Writer w;
  w.bytes(Bytes{1, 2, 3});
  w.str("hello");
  w.bytes({});
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.bytes().empty());
  r.expect_done();
}

TEST(Serialize, TruncationThrows) {
  Writer w;
  w.u32(42);
  Reader r(w.data());
  r.u16();
  EXPECT_THROW(r.u32(), SerializationError);
}

TEST(Serialize, LengthBeyondBufferThrows) {
  Writer w;
  w.varint(1000);  // length prefix with no payload
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), SerializationError);
}

TEST(Serialize, ExpectDoneThrowsOnTrailing) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), SerializationError);
}

TEST(Serialize, VarintCountAcceptsPlausibleCount) {
  Writer w;
  w.varint(3);
  w.raw(Bytes(12, 0xab));  // 3 items of >= 4 bytes each
  Reader r(w.data());
  EXPECT_EQ(r.varint_count(4), 3u);
}

TEST(Serialize, VarintCountRejectsCountBeyondBuffer) {
  // A count whose minimal payload cannot fit in the remaining bytes must be
  // rejected BEFORE any count-sized allocation: 2^60 claimed elements over a
  // 12-byte buffer used to reach vector::resize as a std::length_error.
  Writer w;
  w.varint(std::uint64_t(1) << 60);
  w.raw(Bytes(12, 0));
  Reader r(w.data());
  EXPECT_THROW(r.varint_count(4), SerializationError);
}

TEST(Serialize, VarintCountExactFitIsAccepted) {
  Writer w;
  w.varint(5);
  w.raw(Bytes(5, 1));
  Reader r(w.data());
  EXPECT_EQ(r.varint_count(1), 5u);
  // One more element than fits is rejected.
  Writer w2;
  w2.varint(6);
  w2.raw(Bytes(5, 1));
  Reader r2(w2.data());
  EXPECT_THROW(r2.varint_count(1), SerializationError);
}

TEST(Serialize, VarintCountZeroItemSizeTreatedAsOneByte) {
  // min_item_bytes = 0 (caller doesn't know a floor) still bounds the count
  // by the remaining byte count instead of dividing by zero.
  Writer w;
  w.varint(4);
  w.raw(Bytes(4, 9));
  Reader r(w.data());
  EXPECT_EQ(r.varint_count(0), 4u);
  Writer w2;
  w2.varint(5);
  w2.raw(Bytes(4, 9));
  Reader r2(w2.data());
  EXPECT_THROW(r2.varint_count(0), SerializationError);
}

TEST(Serialize, VarintOverflowThrows) {
  // 10 bytes of 0xff encode more than 64 bits.
  const Bytes evil(10, 0xff);
  Reader r(evil);
  EXPECT_THROW(r.varint(), SerializationError);
}

}  // namespace
}  // namespace spfe
