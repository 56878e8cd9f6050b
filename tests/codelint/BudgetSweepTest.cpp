//===- tests/codelint/BudgetSweepTest.cpp - Step-limited target layers ----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Running out of budget anywhere in the target-side work (the symbolic
// fixpoint, the replay's solver queries, the analyzer's own fixpoints,
// codelint's step-bound search) may only degrade a report, never turn it
// into a verdict. For every step limit from 1 to one past what an
// unlimited run uses, each suite program is analyzed the way the pipeline
// does it: one TargetFacts under one budget, rendered by both layers. Each
// report either equals the unbudgeted one or is degraded:
//
//  - analysis sets BudgetExhausted, and every error the unbudgeted report
//    lacks names the budget;
//  - codelint sets BudgetExhausted and is never Unsafe, and it blames no
//    loop for a missing step bound that the unbudgeted report finds.
//
//===----------------------------------------------------------------------===//

#include "codelint/Codelint.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

#include <set>

using namespace relc;

namespace {

struct Reports {
  analysis::AnalysisReport A;
  codelint::Report C;
};

/// Both layers over one TargetFacts, as the pipeline's shared job runs them.
Reports analyze(const bedrock::Function &Fn, const programs::ProgramDef &P,
                const guard::Budget *Budget) {
  analysis::TargetFacts T(
      Fn, analysis::makeAbiInfo(Fn, P.Spec, P.Model, P.Hints.EntryFacts),
      Budget);
  return {analysis::analyzeFunction(T), codelint::analyzeFunction(T)};
}

TEST(BudgetSweepTest, EveryStepLimitEqualsOrDegrades) {
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    SCOPED_TRACE(P.Name);
    core::Compiler C;
    Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
    ASSERT_TRUE(bool(R)) << R.error().str();

    guard::Budget Counting; // Unlimited; counts the steps a full run uses.
    Reports Full = analyze(R->Fn, P, &Counting);
    ASSERT_FALSE(Full.A.BudgetExhausted || Full.C.BudgetExhausted);
    ASSERT_FALSE(Full.A.hasErrors()) << Full.A.str();
    ASSERT_EQ(Full.C.overall(), codelint::Verdict::Safe) << Full.C.str();
    const uint64_t Used = Counting.stepsUsed();
    ASSERT_GT(Used, 0u);
    const std::string FullA = Full.A.str(), FullC = Full.C.str();
    std::set<std::string> FullDiags;
    for (const analysis::Diagnostic &D : Full.A.Diags)
      FullDiags.insert(D.str());
    std::set<std::string> FullFindings;
    for (const codelint::Finding &F : Full.C.Findings)
      FullFindings.insert(F.str());

    for (uint64_t Limit = 1; Limit <= Used + 1; ++Limit) {
      guard::Budget B(/*DeadlineMs=*/0, Limit);
      Reports Got = analyze(R->Fn, P, &B);
      const std::string A = Got.A.str(), L = Got.C.str();
      EXPECT_TRUE(A == FullA || Got.A.BudgetExhausted)
          << "limit " << Limit << "\n" << A;
      for (const analysis::Diagnostic &D : Got.A.Diags)
        if (D.IsError && !FullDiags.count(D.str())) {
          EXPECT_NE(D.Message.find("budget"), std::string::npos)
              << "limit " << Limit << ": an error only exhaustion caused "
              << "must name the budget\n" << D.str();
        }
      EXPECT_TRUE(L == FullC || Got.C.BudgetExhausted)
          << "limit " << Limit << "\n" << L;
      EXPECT_NE(Got.C.overall(), codelint::Verdict::Unsafe)
          << "limit " << Limit << "\n" << L;
      // A loop the full run bounds is not blamed when the budget stopped
      // the bound search.
      if (Got.C.BudgetExhausted)
        for (const codelint::Finding &F : Got.C.Findings) {
          if (F.Reason == "unknown-step-bound") {
            EXPECT_TRUE(FullFindings.count(F.str()))
                << "limit " << Limit << ": " << F.str();
          }
        }
      if (Limit == Used + 1) { // One step more than a full run uses.
        EXPECT_FALSE(B.exhausted());
        EXPECT_EQ(A, FullA);
        EXPECT_EQ(L, FullC);
      }
    }
  }
}

} // namespace
