//===- tests/cgen/CEmitTest.cpp - C pretty-printer --------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cgen/CEmit.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

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

} // namespace
