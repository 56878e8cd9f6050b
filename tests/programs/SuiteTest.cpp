//===- tests/programs/SuiteTest.cpp - The Table 2 suite, end to end --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::programs;

namespace {

class SuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteTest, CompilesReplaysAndCertifies) {
  const ProgramDef *P = findProgram(GetParam());
  ASSERT_NE(P, nullptr);
  std::vector<pipeline::ProgramOutcome> O =
      pipeline::certifyPrograms({P}, {});
  ASSERT_TRUE(O[0].ok()) << O[0].CompileError << O[0].ValidationError;
  EXPECT_GT(O[0].Compiled.EmittedStmts, 0u);
  EXPECT_GT(O[0].Compiled.Proof->size(), 1u);
}

TEST_P(SuiteTest, FeatureMatrixMatchesTable2) {
  const ProgramDef *P = findProgram(GetParam());
  ASSERT_NE(P, nullptr);
  core::Compiler Compiler;
  Result<core::CompileResult> C = Compiler.compileFn(P->Model, P->Spec,
                                                     P->Hints);
  ASSERT_TRUE(bool(C));
  const std::set<std::string> &F = C->Features;
  // Every program computes: Arithmetic always fires.
  EXPECT_TRUE(F.count("Arithmetic"));
  if (GetParam() == "upstr" || GetParam() == "fasta") {
    EXPECT_TRUE(F.count("Mutation"));
    EXPECT_TRUE(F.count("Loops"));
    EXPECT_TRUE(F.count("Arrays"));
  }
  if (GetParam() == "fasta" || GetParam() == "crc32" ||
      GetParam() == "utf8") {
    EXPECT_TRUE(F.count("Inline"));
  }
  if (GetParam() == "m3s") {
    EXPECT_FALSE(F.count("Loops"));
    EXPECT_FALSE(F.count("Arrays"));
    EXPECT_FALSE(F.count("Mutation"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, SuiteTest,
    ::testing::Values("fnv1a", "utf8", "upstr", "m3s", "ip", "fasta",
                      "crc32"),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

TEST(SuiteRegistryTest, RegistryIsCompleteAndNamed) {
  EXPECT_EQ(allPrograms().size(), 7u);
  EXPECT_EQ(findProgram("nope"), nullptr);
  for (const ProgramDef &P : allPrograms()) {
    EXPECT_FALSE(P.Description.empty()) << P.Name;
    EXPECT_FALSE(P.SourceFile.empty()) << P.Name;
    EXPECT_EQ(P.Spec.TargetName.empty(), false) << P.Name;
  }
}

TEST(SuiteRegistryTest, EndToEndFlagsMatchTable2) {
  // The paper marks every program but m3s as end-to-end.
  for (const ProgramDef &P : allPrograms())
    EXPECT_EQ(P.EndToEnd, P.Name != "m3s") << P.Name;
}

} // namespace
