//===- tests/analysis/SuiteCleanTest.cpp - Table 2 programs are clean -----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Every benchmark program the compiler produces must analyze clean: zero
// errors and zero warnings. This is the suite-level soundness/precision
// check — the analyzer is strong enough to justify every bounds check the
// compiler discharged, and the compiler emits no dead or unreachable code.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace relc;

namespace {

class SuiteCleanTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteCleanTest, AnalyzesWithZeroDiagnostics) {
  const programs::ProgramDef *P = programs::findProgram(GetParam());
  ASSERT_NE(P, nullptr);

  // Compile only — certification would itself run the analyzer; this
  // test wants the raw report.
  core::Compiler Compiler;
  Result<core::CompileResult> C =
      Compiler.compileFn(P->Model, P->Spec, P->Hints);
  ASSERT_TRUE(bool(C)) << (C ? "" : C.error().str());

  analysis::AnalysisReport R = analysis::analyzeProgram(
      C->Fn, P->Spec, P->Model, P->Hints.EntryFacts);
  EXPECT_TRUE(R.Diags.empty()) << R.str();
  EXPECT_FALSE(R.hasErrors());
  EXPECT_EQ(R.numWarnings(), 0u);

  // The report reflects a real run: the symbolic fixpoint visited blocks,
  // and the function was not trivially empty.
  EXPECT_GT(R.NumBlocks, 0u);
  EXPECT_GT(R.NumStmts, 0u);
  EXPECT_GT(R.SymIterations, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SuiteCleanTest,
                         ::testing::Values("fnv1a", "utf8", "upstr", "m3s",
                                           "ip", "fasta", "crc32"),
                         [](const auto &Info) { return Info.param; });

} // namespace
