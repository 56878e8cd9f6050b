//===- tests/cgen/CEmitTest.cpp - C pretty-printer --------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cgen/CEmit.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace relc;
using namespace relc::bedrock;

namespace {

Function fn(const char *Name, CmdPtr Body,
            std::vector<std::string> Args = {},
            std::vector<std::string> Rets = {}) {
  Function F;
  F.Name = Name;
  F.Args = std::move(Args);
  F.Rets = std::move(Rets);
  F.Body = std::move(Body);
  return F;
}

TEST(CEmitTest, VoidFunctionSignature) {
  Result<std::string> C = cgen::emitFunction(
      fn("touch", store(AccessSize::Byte, var("p"), lit(1)), {"p"}));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("void touch(uintptr_t p)"), std::string::npos);
  EXPECT_NE(C->find("*(uint8_t *)"), std::string::npos);
}

TEST(CEmitTest, ReturningFunctionSignature) {
  Result<std::string> C = cgen::emitFunction(
      fn("idf", set("r", var("x")), {"x"}, {"r"}));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("uintptr_t idf(uintptr_t x)"), std::string::npos);
  EXPECT_NE(C->find("return r;"), std::string::npos);
}

TEST(CEmitTest, MultipleReturnsRejected) {
  Result<std::string> C =
      cgen::emitFunction(fn("two", skip(), {}, {"a", "b"}));
  ASSERT_FALSE(bool(C));
  EXPECT_NE(C.error().str().find("one return"), std::string::npos);
}

TEST(CEmitTest, DollarNamesAreSanitized) {
  Result<std::string> C = cgen::emitFunction(
      fn("f", seqAll({set("i$0", lit(1)), set("sel$1", var("i$0"))})));
  ASSERT_TRUE(bool(C));
  EXPECT_EQ(C->find("$"), std::string::npos);
  EXPECT_NE(C->find("i_0"), std::string::npos);
}

TEST(CEmitTest, CollidingSanitizedNamesStayDistinct) {
  // "i$0" and "i_0" sanitize toward the same identifier; emission must
  // keep them apart.
  Result<std::string> C = cgen::emitFunction(
      fn("f", seqAll({set("i$0", lit(1)), set("i_0", lit(2)),
                      set("r", add(var("i$0"), var("i_0")))}),
         {}, {"r"}));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("i_0_"), std::string::npos);
}

TEST(CEmitTest, VariableShiftsAreMasked) {
  Result<std::string> C = cgen::emitFunction(
      fn("f", set("r", bin(BinOp::Shl, var("x"), var("y"))), {"x", "y"},
         {"r"}));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("& 63"), std::string::npos);
  // Constant small shifts stay bare.
  Result<std::string> K = cgen::emitFunction(
      fn("g", set("r", bin(BinOp::Shl, var("x"), lit(3))), {"x"}, {"r"}));
  ASSERT_TRUE(bool(K));
  EXPECT_EQ(K->find("& 63"), std::string::npos);
}

TEST(CEmitTest, ComparisonsCastToWord) {
  Result<std::string> C = cgen::emitFunction(
      fn("f", set("r", bin(BinOp::LtS, var("x"), var("y"))), {"x", "y"},
         {"r"}));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("(int64_t)x < (int64_t)y"), std::string::npos);
}

TEST(CEmitTest, StackallocBecomesScopedArray) {
  Result<std::string> C = cgen::emitFunction(fn(
      "f", stackalloc("p", 16, store(AccessSize::Byte, var("p"), lit(0)))));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("uint8_t p_buf[16];"), std::string::npos);
  EXPECT_NE(C->find("uintptr_t p = (uintptr_t)p_buf;"), std::string::npos);
}

TEST(CEmitTest, InlineTablesBecomeStaticConstArrays) {
  Function F = fn("f", set("r", tableGet(AccessSize::Four, "t", var("i"))),
                  {"i"}, {"r"});
  F.Tables.push_back(InlineTable{"t", AccessSize::Four, {1, 2, 3}});
  Result<std::string> C = cgen::emitFunction(F);
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("static const uint32_t table_t[3]"), std::string::npos);
  EXPECT_NE(C->find("table_t["), std::string::npos);
}

TEST(CEmitTest, InteractMapsToRuntimeHooks) {
  Result<std::string> C = cgen::emitFunction(
      fn("f", seqAll({interact({"x"}, "read", {}),
                      interact({}, "write", {var("x")})})));
  ASSERT_TRUE(bool(C));
  EXPECT_NE(C->find("x = relc_ext_read();"), std::string::npos);
  EXPECT_NE(C->find("relc_ext_write(x);"), std::string::npos);
}

TEST(CEmitTest, UnknownInteractionRejected) {
  Result<std::string> C =
      cgen::emitFunction(fn("f", interact({}, "launch_missiles", {})));
  EXPECT_FALSE(bool(C));
}

TEST(CEmitTest, ModuleEmissionForwardDeclares) {
  Module M;
  M.Functions.push_back(fn("b", call({}, "a", {})));
  M.Functions.push_back(fn("a", skip()));
  Result<std::string> C = cgen::emitModule(M);
  ASSERT_TRUE(bool(C));
  // Declaration of a precedes the body of b.
  size_t Decl = C->find("void a();");
  size_t BodyB = C->find("void b() {");
  ASSERT_NE(Decl, std::string::npos);
  ASSERT_NE(BodyB, std::string::npos);
  EXPECT_LT(Decl, BodyB);
}

TEST(CEmitTest, GeneratedSuiteStaysCompactAndPrintable) {
  // The whole benchmark suite emits, and each program's C stays in the
  // size class of handwritten code (no blowup from the derivation).
  core::Compiler Compiler;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    Result<core::CompileResult> C =
        Compiler.compileFn(P.Model, P.Spec, P.Hints);
    ASSERT_TRUE(bool(C)) << P.Name;
    Result<std::string> Code = cgen::emitFunction(C->Fn);
    ASSERT_TRUE(bool(Code)) << P.Name << ": " << Code.error().str();
    unsigned Lines = 1;
    for (char Ch : *Code)
      Lines += Ch == '\n';
    EXPECT_LT(Lines, 120u) << P.Name; // Tables print 8 entries per line.
  }
}

//===----------------------------------------------------------------------===//
// The range-guarded rule: `(x - c) <u k` prints as `(uint8_t)(x - c) < k`
// when x is provably a byte and c + k <= 256.
//===----------------------------------------------------------------------===//

TEST(CEmitTest, ByteRangeCheckAgreesWithWordCompareExactlyWhenGuarded) {
  // The rule's soundness, exhaustively: for a byte x and c + k <= 256 the
  // 64-bit and the 8-bit compare agree.
  for (uint64_t X = 0; X < 256; ++X)
    for (uint64_t C = 0; C < 256; ++C)
      for (uint64_t K = 0; K <= 256 - C; ++K)
        ASSERT_EQ(X - C < K, uint8_t(X - C) < K)
            << "x=" << X << " c=" << C << " k=" << K;
  // The guard is tight: at c + k = 257 they differ (x = 0 wraps to 255
  // in 8 bits, which is below 256, but to 2^64 - 1 in 64 bits).
  const uint64_t X = 0, C = 1, K = 256;
  EXPECT_NE(X - C < K, uint8_t(X - C) < K);
}

/// `r = (x - 97) <u 26`, the toupper range check of upstr.
CmdPtr rangeCheck(const char *X, Word C = 97, Word K = 26,
                  BinOp Op = BinOp::LtU) {
  return set("r", bin(Op, sub(var(X), lit(C)), lit(K)));
}

std::string emit(const Function &F) {
  Result<std::string> C = cgen::emitFunction(F);
  EXPECT_TRUE(bool(C));
  return C ? *C : std::string();
}

bool narrowed(const std::string &Code, const std::string &X) {
  return Code.find("(uint8_t)(" + X + " - ") != std::string::npos;
}

TEST(CEmitTest, UpstrRangeCheckPrintsInByteWidth) {
  const programs::ProgramDef *P = programs::findProgram("upstr");
  ASSERT_NE(P, nullptr);
  core::Compiler Compiler;
  Result<core::CompileResult> C =
      Compiler.compileFn(P->Model, P->Spec, P->Hints);
  ASSERT_TRUE(bool(C));
  const std::string Code = emit(C->Fn);
  EXPECT_NE(Code.find("((uintptr_t)((uint8_t)(b - 97u) < 26u))"),
            std::string::npos)
      << Code;
  EXPECT_EQ(Code.find("97ull"), std::string::npos) << Code;
}

TEST(CEmitTest, LocalLoadedAsByteInBothArmsIsNarrowed) {
  const std::string Code = emit(fn(
      "f",
      seqAll({ifThenElse(var("p"), set("x", load(AccessSize::Byte, var("p"))),
                         set("x", load(AccessSize::Byte, var("q")))),
              rangeCheck("x")}),
      {"p", "q"}, {"r"}));
  EXPECT_TRUE(narrowed(Code, "x")) << Code;
}

TEST(CEmitTest, LocalCopiedFromByteLocalIsNarrowed) {
  const std::string Code = emit(
      fn("f",
         seqAll({set("y", load(AccessSize::Byte, var("p"))),
                 set("x", var("y")), rangeCheck("x")}),
         {"p"}, {"r"}));
  EXPECT_TRUE(narrowed(Code, "x")) << Code;
}

TEST(CEmitTest, CyclicByteLocalIsNarrowed) {
  // x = x & 0x7f keeps x a byte; so does x = x & m for a word m, which
  // only the greatest fixpoint sees (x is a byte because x is).
  for (ExprPtr Mask : {lit(0x7f), var("m")}) {
    const std::string Code = emit(fn(
        "f",
        seqAll({set("x", load(AccessSize::Byte, var("p"))),
                whileLoop(var("n"), seqAll({set("x", bin(BinOp::And, var("x"),
                                                         Mask)),
                                            set("n", sub(var("n"), lit(1)))})),
                rangeCheck("x")}),
        {"p", "n", "m"}, {"r"}));
    EXPECT_TRUE(narrowed(Code, "x")) << Code;
  }
}

TEST(CEmitTest, RangeCheckStaysWordWidthUnlessProvablyByte) {
  const CmdPtr ByteX = set("x", load(AccessSize::Byte, var("p")));
  const struct {
    const char *Why;
    Function F;
  } Cases[] = {
      {"argument", fn("f", rangeCheck("x"), {"x"}, {"r"})},
      {"call return",
       fn("f", seqAll({call({"x"}, "g", {}), rangeCheck("x")}), {}, {"r"})},
      {"interact return",
       fn("f", seqAll({interact({"x"}, "read", {}), rangeCheck("x")}), {},
          {"r"})},
      {"stackalloc binder", fn("f", stackalloc("x", 4, rangeCheck("x")), {},
                               {"r"})},
      {"one 2-byte load",
       fn("f",
          seqAll({ByteX, ifThenElse(var("p"),
                                    set("x", load(AccessSize::Two, var("p"))),
                                    skip()),
                  rangeCheck("x")}),
          {"p"}, {"r"})},
      {"c + k = 257", fn("f", seqAll({ByteX, rangeCheck("x", 200, 57)}),
                         {"p"}, {"r"})},
      {"signed compare",
       fn("f", seqAll({ByteX, rangeCheck("x", 97, 26, BinOp::LtS)}), {"p"},
          {"r"})},
  };
  for (const auto &C : Cases) {
    const std::string Code = emit(C.F);
    EXPECT_FALSE(narrowed(Code, "x")) << C.Why << "\n" << Code;
    EXPECT_NE(Code.find("(x - "), std::string::npos) << C.Why << "\n" << Code;
  }
}

} // namespace
