//===- tests/cgen/CCompileIntegrationTest.cpp - Host-compiler check --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The paper's pipeline ends by feeding the pretty-printed C to a regular C
// compiler (§4.2). This integration test does the same: every certified
// benchmark program (and a grab bag of feature-heavy compilations —
// stackalloc, copy, IO hooks, conditionals) is emitted as one translation
// unit and must compile cleanly under the host C compiler with warnings as
// errors. Skipped when no host compiler is available. A last case pins
// Figure 2's one vectorization concern: GCC must vectorize upstr's loop as
// printed.
//
//===----------------------------------------------------------------------===//

#include "cgen/CEmit.h"
#include "core/Compiler.h"
#include "ir/Build.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace relc;
using namespace relc::ir;

namespace {

bool hostCompilerAvailable() {
  return std::system("cc --version > /dev/null 2>&1") == 0;
}

/// Writes \p Source to a temp file and runs `cc -std=c11 -Wall -Werror
/// -fsyntax-only` on it.
::testing::AssertionResult compilesAsC(const std::string &Source,
                                       const std::string &Tag) {
  std::string Path = ::testing::TempDir() + "/relc_cc_" + Tag + ".c";
  {
    std::ofstream Out(Path);
    Out << Source;
  }
  std::string Cmd =
      "cc -std=c11 -Wall -Wextra -Werror -fsyntax-only " + Path +
      " > /dev/null 2>" + Path + ".log";
  if (std::system(Cmd.c_str()) == 0)
    return ::testing::AssertionSuccess();
  std::ifstream Log(Path + ".log");
  std::string Diag((std::istreambuf_iterator<char>(Log)),
                   std::istreambuf_iterator<char>());
  return ::testing::AssertionFailure() << "cc rejected " << Tag << ":\n"
                                       << Diag << "\n"
                                       << Source;
}

/// Whether `cc` is GCC (Clang defines __GNUC__ too).
bool hostCompilerIsGcc() {
  const std::string Macros = "cc -dM -E -x c /dev/null 2>/dev/null";
  return std::system((Macros + " | grep -q __GNUC__").c_str()) == 0 &&
         std::system((Macros + " | grep -q __clang__").c_str()) != 0;
}

TEST(CCompileIntegrationTest, BenchmarkSuiteCompilesUnderHostCC) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";
  core::Compiler Compiler;
  bedrock::Module M;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    Result<core::CompileResult> C =
        Compiler.compileFn(P.Model, P.Spec, P.Hints);
    ASSERT_TRUE(bool(C)) << P.Name;
    M.Functions.push_back(C->Fn);
  }
  Result<std::string> Code = cgen::emitModule(M);
  ASSERT_TRUE(bool(Code)) << Code.error().str();
  EXPECT_TRUE(compilesAsC(*Code, "suite"));
}

TEST(CCompileIntegrationTest, FeatureHeavyModuleCompilesUnderHostCC) {
  if (!hostCompilerAvailable())
    GTEST_SKIP() << "no host C compiler";

  core::Compiler C;
  bedrock::Module M;

  // Stackalloc + copy + conditional + early-exit fold in one function.
  {
    FnBuilder FB("kitchen_sink", Monad::Pure);
    FB.wordParam("x");
    ProgBuilder Then;
    Then.let("t", mkPut("t", cw(0), cb(1)));
    ProgBuilder Else;
    ProgBuilder B;
    B.let("buf", mkStack({1, 2, 3, 4, 5, 6, 7, 8, 9}))
        .let("t", mkCopy("buf"))
        .letMulti({"t"}, mkIf(ltu(v("x"), cw(10)), std::move(Then).ret({"t"}),
                              std::move(Else).ret({"t"})))
        .let("h", mkFoldBreak("t", "h", "e", cw(0),
                              addw(v("h"), b2w(v("e"))), ltu(cw(20), v("h"))))
        .let("r", addw(v("h"), v("x")));
    SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
    sep::FnSpec Spec("kitchen_sink");
    Spec.scalarArg("x").retScalar("r");
    Result<core::CompileResult> R = C.compileFn(Fn, Spec);
    ASSERT_TRUE(bool(R)) << R.error().str();
    M.Functions.push_back(R->Fn);
  }

  // IO function exercising the relc_ext_* hooks.
  {
    FnBuilder FB("echo_n", Monad::Io);
    FB.wordParam("n");
    ProgBuilder Loop;
    Loop.let("x", mkIoRead()).let("_", mkIoWrite(v("x")));
    ProgBuilder B;
    B.letMulti({"n2"}, mkRange("i", cw(0), v("n"), {acc("n2", cw(0))},
                               [&] {
                                 ProgBuilder Inner;
                                 Inner.let("x", mkIoRead())
                                     .let("_", mkIoWrite(v("x")))
                                     .let("n2", addw(v("n2"), cw(1)));
                                 return std::move(Inner).ret({"n2"});
                               }()));
    SourceFn Fn = std::move(FB).done(std::move(B).ret({"n2"}));
    sep::FnSpec Spec("echo_n");
    Spec.scalarArg("n").retScalar("n2");
    Result<core::CompileResult> R = C.compileFn(Fn, Spec);
    ASSERT_TRUE(bool(R)) << R.error().str();
    M.Functions.push_back(R->Fn);
  }

  Result<std::string> Code = cgen::emitModule(M);
  ASSERT_TRUE(bool(Code)) << Code.error().str();
  EXPECT_TRUE(compilesAsC(*Code, "features"));
}

TEST(CCompileIntegrationTest, GccVectorizesUpstrAsPrinted) {
  // GCC 12 vectorizes the byte-width range check cgen prints for upstr,
  // and not the 64-bit `(b - 97ull) < 26ull`. -O3 because at -O2 it
  // vectorizes neither the generated nor the handwritten loop.
  if (!hostCompilerAvailable() || !hostCompilerIsGcc())
    GTEST_SKIP() << "host cc is not GCC";
  const programs::ProgramDef *P = programs::findProgram("upstr");
  ASSERT_NE(P, nullptr);
  core::Compiler Compiler;
  Result<core::CompileResult> C =
      Compiler.compileFn(P->Model, P->Spec, P->Hints);
  ASSERT_TRUE(bool(C));
  Result<std::string> Fn = cgen::emitFunction(C->Fn);
  ASSERT_TRUE(bool(Fn)) << Fn.error().str();
  std::string Path = ::testing::TempDir() + "/relc_cc_upstr_vec.c";
  {
    std::ofstream Out(Path);
    Out << cgen::cPrelude() << *Fn;
  }
  std::string Cmd = "cc -std=c11 -O3 -fopt-info-vec-optimized -c " + Path +
                    " -o /dev/null > " + Path + ".log 2>&1";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << *Fn;
  std::ifstream Log(Path + ".log");
  std::string Report((std::istreambuf_iterator<char>(Log)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(Report.find("loop vectorized"), std::string::npos)
      << "GCC did not vectorize upstr:\n"
      << *Fn << Report;
}

} // namespace
