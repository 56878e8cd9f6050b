//===- tests/support/BytesTest.cpp - The shared byte codec -----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// bytes::Reader's overrun argument, case by case: a layout run by a Writer
// decodes back through a Reader; the first short read poisons the cursor;
// a length or count larger than the bytes left fails before anything is
// allocated; done() refuses a trailing byte; seal/sealed cover every byte.
//
//===----------------------------------------------------------------------===//

#include "support/Bytes.h"

#include <gtest/gtest.h>

using namespace relc;

namespace {

struct Rec {
  uint64_t Hash = 0;
  bool On = false;
  std::string Name;
  std::vector<std::string> Tags;
  std::optional<uint32_t> Extra;
};

template <class Dir, class R> void layout(Dir &IO, R &X) {
  IO.u64(X.Hash);
  IO.flag(X.On);
  IO.str64(X.Name);
  IO.list(X.Tags, [&](auto &T) { IO.str32(T); });
  IO.optional(X.Extra, [&](auto &E) { IO.u32(E); });
}

std::string encode(const Rec &X) {
  std::string Out;
  bytes::Writer W(Out);
  layout(W, X);
  return Out;
}

Rec sample() {
  Rec X;
  X.Hash = 0x0102030405060708ull;
  X.On = true;
  X.Name = std::string("a\0b", 3);
  X.Tags = {"x", "", "yz"};
  X.Extra = 7;
  return X;
}

TEST(BytesTest, LayoutRoundTripsLittleEndian) {
  std::string Image = encode(sample());
  EXPECT_EQ(bytes::loadU64(Image.data()), 0x0102030405060708ull);
  EXPECT_EQ(Image[0], '\x08');
  Rec Y;
  bytes::Reader R(Image);
  layout(R, Y);
  ASSERT_TRUE(R.done());
  EXPECT_EQ(encode(Y), Image);
  EXPECT_EQ(Y.Name, sample().Name);
  EXPECT_EQ(Y.Tags, sample().Tags);
  EXPECT_EQ(Y.Extra, 7u);
}

TEST(BytesTest, EveryTruncationPoisonsAndTrailingBytesAreRefused) {
  std::string Image = encode(sample());
  for (size_t N = 0; N < Image.size(); ++N) {
    Rec Y;
    bytes::Reader R(std::string_view(Image).substr(0, N));
    layout(R, Y);
    EXPECT_FALSE(R.ok()) << "truncation at " << N;
    EXPECT_FALSE(R.done()) << "truncation at " << N;
  }
  Rec Y;
  std::string Padded = Image + "x";
  bytes::Reader R(Padded);
  layout(R, Y);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.done());
  EXPECT_EQ(R.left(), 1u);
}

TEST(BytesTest, LengthsAndCountsPastTheInputFailBeforeAllocating) {
  // A u64 string length of 2^63 and a u32 count of 2^32 - 1, each in a
  // few bytes: refused by comparison with the bytes left, with nothing
  // reserved for them.
  std::string Huge;
  bytes::putU64(Huge, 1ull << 63);
  std::string S = "untouched";
  bytes::Reader R(Huge);
  R.str64(S);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(S.empty());

  std::string Count;
  bytes::putU32(Count, 0xffffffffu);
  Count += "abc";
  std::vector<std::string> V;
  bytes::Reader C(Count);
  C.list(V, [&](std::string &E) { C.str32(E); });
  EXPECT_FALSE(C.ok());
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), 0u);

  // A poisoned cursor reads zeros, even over bytes that are there.
  uint32_t X = 99;
  C.u32(X);
  EXPECT_EQ(X, 0u);
}

TEST(BytesTest, AnyNonzeroFlagByteIsTrue) {
  for (char B : {'\x01', '\x02', '\xff'}) {
    bool F = false;
    bytes::Reader R(std::string_view(&B, 1));
    R.flag(F);
    EXPECT_TRUE(F && R.done()) << int(uint8_t(B));
  }
}

TEST(BytesTest, SealCoversEveryByte) {
  std::string Image = encode(sample());
  bytes::seal(Image);
  EXPECT_TRUE(bytes::sealed(Image));
  for (size_t At = 0; At < Image.size(); ++At) {
    std::string T = Image;
    T[At] = char(T[At] ^ 0x20);
    EXPECT_FALSE(bytes::sealed(T)) << At;
  }
  EXPECT_FALSE(bytes::sealed(Image.substr(1)));
  EXPECT_FALSE(bytes::sealed("1234567"));
}

} // namespace
