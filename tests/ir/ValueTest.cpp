//===- tests/ir/ValueTest.cpp ----------------------------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"

#include <gtest/gtest.h>

using namespace relc::ir;

namespace {

TEST(ValueTest, ScalarConstructorsAndAccessors) {
  EXPECT_EQ(Value::word(42).asWord(), 42u);
  EXPECT_EQ(Value::byte(0xAB).asByte(), 0xAB);
  EXPECT_TRUE(Value::boolean(true).asBool());
  EXPECT_FALSE(Value::boolean(false).asBool());
  EXPECT_EQ(Value::unit().kind(), Value::Kind::Unit);
  EXPECT_EQ(Value::byte(7).scalar(), 7u);
  EXPECT_EQ(Value::boolean(true).scalar(), 1u);
}

TEST(ValueTest, ByteListRoundTrip) {
  std::vector<uint8_t> Bytes = {1, 2, 255, 0};
  Value L = Value::byteList(Bytes);
  EXPECT_EQ(L.listElt(), EltKind::U8);
  EXPECT_EQ(L.asBytes(), Bytes);
  EXPECT_EQ(L.elems().size(), 4u);
}

TEST(ValueTest, WordListAsWords) {
  Value L = Value::list(EltKind::U32,
                        {Value::word(7), Value::word(0xffffffff)});
  EXPECT_EQ(L.asWords(), (std::vector<uint64_t>{7, 0xffffffff}));
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::word(1), Value::word(1));
  EXPECT_NE(Value::word(1), Value::word(2));
  EXPECT_NE(Value::word(1), Value::byte(1)); // Kinds matter.
  EXPECT_EQ(Value::byteList({1, 2}), Value::byteList({1, 2}));
  EXPECT_NE(Value::byteList({1, 2}), Value::byteList({1, 3}));
  EXPECT_NE(Value::list(EltKind::U8, {Value::byte(1)}),
            Value::list(EltKind::U16, {Value::byte(1)}));
  EXPECT_EQ(Value::tuple({Value::word(1), Value::unit()}),
            Value::tuple({Value::word(1), Value::unit()}));
}

TEST(ValueTest, EltKindHelpers) {
  EXPECT_EQ(eltSize(EltKind::U8), 1u);
  EXPECT_EQ(eltSize(EltKind::U64), 8u);
  EXPECT_EQ(eltMask(EltKind::U8), 0xffull);
  EXPECT_EQ(eltMask(EltKind::U16), 0xffffull);
  EXPECT_EQ(eltMask(EltKind::U32), 0xffffffffull);
  EXPECT_EQ(eltMask(EltKind::U64), ~0ull);
}

TEST(ValueTest, PrintingAbbreviatesLongLists) {
  std::vector<uint8_t> Big(100, 7);
  std::string S = Value::byteList(Big).str();
  EXPECT_NE(S.find("100 elems"), std::string::npos);
  EXPECT_LT(S.size(), 200u);
}

TEST(ValueTest, CopiesOfAListShareStorage) {
  const Value A = Value::byteList({1, 2, 3});
  const Value B = A;
  EXPECT_EQ(A.elems().data(), B.elems().data());
  const Value T = Value::tuple({A, Value::word(7)});
  const Value U = T;
  EXPECT_EQ(T.elems().data(), U.elems().data());
}

TEST(ValueTest, WriteThroughOneCopyLeavesTheOtherUnchanged) {
  Value A = Value::byteList({1, 2, 3});
  Value B = A;
  B.elems()[0] = Value::byte(9);
  EXPECT_EQ(A.asBytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(B.asBytes(), (std::vector<uint8_t>{9, 2, 3}));
  // The original writing, with a copy still around.
  Value C = A;
  A.elems().push_back(Value::byte(4));
  EXPECT_EQ(A.asBytes(), (std::vector<uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(C.asBytes(), (std::vector<uint8_t>{1, 2, 3}));
  // A list inside a tuple: writing the copy's inner list.
  const Value T = Value::tuple({C, Value::word(7)});
  Value U = T;
  U.elems()[0].elems()[2] = Value::byte(5);
  EXPECT_EQ(T.elems()[0].asBytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(U.elems()[0].asBytes(), (std::vector<uint8_t>{1, 2, 5}));
  EXPECT_EQ(C.asBytes(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(ValueTest, MovingTupleElementsOutLeavesAnEarlierCopyIntact) {
  // What binding the results of a multi-valued let does.
  Value T = Value::tuple({Value::byteList({1, 2}), Value::word(7)});
  const Value Earlier = T;
  Value L = std::move(T.elems()[0]);
  Value W = std::move(T.elems()[1]);
  EXPECT_EQ(L.asBytes(), (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(W.asWord(), 7u);
  ASSERT_EQ(Earlier.elems().size(), 2u);
  EXPECT_EQ(Earlier.elems()[0].asBytes(), (std::vector<uint8_t>{1, 2}));
  EXPECT_EQ(Earlier.elems()[1].asWord(), 7u);
  EXPECT_EQ(Earlier, Value::tuple({Value::byteList({1, 2}), Value::word(7)}));
}

TEST(ValueTest, SharedAndUnsharedListsAgree) {
  std::vector<uint8_t> Bytes(12);
  for (size_t I = 0; I < Bytes.size(); ++I)
    Bytes[I] = uint8_t(3 * I + 1);
  const Value A = Value::byteList(Bytes);
  const Value Shared = A;
  const Value Unshared = Value::byteList(Bytes);
  EXPECT_EQ(Shared, A);
  EXPECT_EQ(Shared, Unshared);
  EXPECT_EQ(Shared.str(), Unshared.str());
  EXPECT_EQ(Shared.asBytes(), Unshared.asBytes());
  EXPECT_EQ(Shared.asBytes(), Bytes);
  Value Changed = Shared;
  Changed.elems()[11] = Value::byte(0);
  EXPECT_NE(Changed, Shared);
  EXPECT_EQ(Shared, Unshared);
  EXPECT_EQ(Shared.asBytes(), Bytes);
  EXPECT_EQ(Value::tuple({A, Value::unit()}),
            Value::tuple({Unshared, Value::unit()}));
  EXPECT_EQ(Value::tuple({A}).str(), Value::tuple({Unshared}).str());
}

} // namespace
