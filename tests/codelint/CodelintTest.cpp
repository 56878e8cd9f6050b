//===- tests/codelint/CodelintTest.cpp - Codelint contract tests ----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The target-side analyzer's precision/recall contract (DESIGN.md §4.9):
//
//  - Recall: a seeded wrong-code corpus — an out-of-bounds store, an
//    unbounded (self-recursive) stack, a frame-escaping stackalloc
//    pointer, an underflowing stackm pop — each rejected with its exact
//    kebab-case reason. Every seed starts from a genuinely certified
//    suite program, so the defect is the only difference.
//
//  - Precision: the whole benchmark suite and the §2 stackm examples come
//    out proved Safe on all three analyses.
//
//  - Soundness of the resource envelopes, cross-checked dynamically: the
//    static step bound dominates the fuel the Bedrock2 interpreter
//    actually burns, and the static operand-depth bound dominates the
//    depth the stackm interpreter actually reaches.
//
//  - Refusal-by-default: an exhausted budget degrades verdicts to
//    Unknown (never Unsafe, never a wrong Safe) with a named finding.
//
//===----------------------------------------------------------------------===//

#include "codelint/Driver.h"

#include "bedrock/Interp.h"
#include "pipeline/Pipeline.h"
#include "stackm/StackMachine.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::codelint;
using namespace relc::bedrock;

namespace {

/// Compiles suite program \p Name (compile only; these tests are about
/// the analyzer, not the compiler).
core::CompileResult compiled(const std::string &Name) {
  const programs::ProgramDef *P = programs::findProgram(Name);
  EXPECT_NE(P, nullptr) << Name;
  core::Compiler Compiler;
  Result<core::CompileResult> C =
      Compiler.compileFn(P->Model, P->Spec, P->Hints);
  EXPECT_TRUE(bool(C)) << (C ? "" : C.error().str());
  return C.take();
}

bool hasFinding(const Report &R, const std::string &Reason) {
  for (const Finding &F : R.Findings)
    if (F.Reason == Reason)
      return true;
  return false;
}

/// Analyzes \p Fn under suite program \p Name's ABI (spec/model/hints).
Report analyzeAs(const std::string &Name, const Function &Fn) {
  const programs::ProgramDef *P = programs::findProgram(Name);
  EXPECT_NE(P, nullptr) << Name;
  return analyzeFunction(Fn, P->Spec, P->Model, P->Hints.EntryFacts);
}

//===----------------------------------------------------------------------===//
// Precision: the certified artifacts are provably Safe.
//===----------------------------------------------------------------------===//

TEST(CodelintTest, SuiteProvedSafe) {
  for (const ProgramLint &L : lintSuite()) {
    ASSERT_TRUE(L.CompileOk) << L.Name << ": " << L.CompileError;
    EXPECT_EQ(L.R.overall(), Verdict::Safe) << renderLint(L);
    EXPECT_EQ(L.R.Mem, Verdict::Safe) << renderLint(L);
    EXPECT_EQ(L.R.Stack, Verdict::Safe) << renderLint(L);
    EXPECT_EQ(L.R.Steps, Verdict::Safe) << renderLint(L);
    EXPECT_TRUE(L.R.Findings.empty()) << renderLint(L);
    EXPECT_GT(L.R.StepBound, 0u) << renderLint(L);
  }
}

TEST(CodelintTest, StackExamplesProvedSafe) {
  std::vector<ProgramLint> Ls = lintStackExamples();
  ASSERT_EQ(Ls.size(), 3u);
  for (const ProgramLint &L : Ls) {
    ASSERT_TRUE(L.CompileOk) << L.Name << ": " << L.CompileError;
    EXPECT_EQ(L.R.overall(), Verdict::Safe) << renderLint(L);
    EXPECT_GT(L.R.OperandDepth, 0u) << renderLint(L);
  }
}

//===----------------------------------------------------------------------===//
// Recall: the seeded wrong-code corpus, each with its pinned reason.
//===----------------------------------------------------------------------===//

TEST(CodelintTest, SeededOobStoreRejected) {
  // fnv1a with one extra store at s + len: one byte past the frame.
  core::CompileResult C = compiled("fnv1a");
  Function Bad = C.Fn;
  Bad.Body = seqAll({Bad.Body, store(AccessSize::Byte,
                                     add(var("s"), var("len")), lit(0))});
  Report R = analyzeAs("fnv1a", Bad);
  EXPECT_EQ(R.Mem, Verdict::Unsafe) << R.str();
  EXPECT_EQ(R.overall(), Verdict::Unsafe);
  EXPECT_TRUE(hasFinding(R, "oob-store")) << R.str();
}

TEST(CodelintTest, SeededFrameEscapeRejected) {
  // fnv1a that replaces its hash result with a pointer into a stackalloc
  // frame — the scoped pointer escapes by being returned.
  core::CompileResult C = compiled("fnv1a");
  Function Bad = C.Fn;
  Bad.Body = seqAll({Bad.Body, stackalloc("scr", 8, set("h", var("scr")))});
  Report R = analyzeAs("fnv1a", Bad);
  EXPECT_EQ(R.Mem, Verdict::Unsafe) << R.str();
  EXPECT_TRUE(hasFinding(R, "frame-escape")) << R.str();
}

TEST(CodelintTest, StoredLoadThroughStackPointerIsNotAnEscape) {
  // t := copy(buf) compiles to `store8((t + 0)) = load8((buf + 0))`: the
  // stored word is memory contents read through buf, not buf itself. The
  // program certifies through the pipeline, every layer on, and codelint
  // proves it Safe.
  programs::ProgramDef Def;
  Def.Name = "cpy";
  ir::FnBuilder FB("cpy", ir::Monad::Pure);
  FB.wordParam("x");
  ir::ProgBuilder B;
  B.let("buf", ir::mkStack({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}))
      .let("t", ir::mkCopy("buf"))
      .let("r", ir::b2w(ir::aget("t", ir::cw(0))));
  Def.Model = std::move(FB).done(std::move(B).ret({"r"}));
  Def.Spec = sep::FnSpec("cpy");
  Def.Spec.scalarArg("x").retScalar("r");
  std::vector<pipeline::ProgramOutcome> Ok =
      pipeline::certifyPrograms({&Def}, {});
  ASSERT_TRUE(Ok[0].ok()) << Ok[0].CompileError << Ok[0].ValidationError;
  ASSERT_NE(Ok[0].Compiled.Fn.str().find("= load8((buf + 0))"),
            std::string::npos)
      << Ok[0].Compiled.Fn.str();
  EXPECT_EQ(Ok[0].CodelintVerdictName, "safe");

  // Storing the pointer itself, or an address derived from it, is still
  // an escape.
  pipeline::PipelineOptions OnlyCodelint;
  OnlyCodelint.Validate = OnlyCodelint.Analyze = OnlyCodelint.Tv = false;
  for (ExprPtr Leak : {var("buf"), add(var("buf"), lit(3))}) {
    SCOPED_TRACE(Leak->str());
    pipeline::TamperHook Tamper = [Leak](const programs::ProgramDef &,
                                         core::CompileResult &R) {
      R.Fn.Body = stackalloc(
          "buf", 11,
          stackalloc("t", 11,
                     seqAll({store(AccessSize::Eight, var("t"), Leak),
                             set("r", lit(0))})));
    };
    std::vector<pipeline::ProgramOutcome> Bad =
        pipeline::certifyPrograms({&Def}, OnlyCodelint, nullptr, Tamper);
    EXPECT_FALSE(Bad[0].ok());
    EXPECT_EQ(Bad[0].CodelintVerdictName, "unsafe");
    EXPECT_NE(Bad[0].ValidationError.find("[frame-escape]"),
              std::string::npos)
        << Bad[0].ValidationError;
  }
}

TEST(CodelintTest, SeededUnboundedStackRejected) {
  // fnv1a that tail-calls itself: no bounded stack frame exists.
  core::CompileResult C = compiled("fnv1a");
  Function Bad = C.Fn;
  Bad.Body =
      seqAll({Bad.Body, call({"h"}, "fnv1a", {var("s"), var("len")})});
  Report R = analyzeAs("fnv1a", Bad);
  EXPECT_EQ(R.Stack, Verdict::Unsafe) << R.str();
  EXPECT_TRUE(hasFinding(R, "unbounded-stack")) << R.str();
}

TEST(CodelintTest, SeededStackmUnderflowRejected) {
  // A bare popAdd on an empty operand stack. The interpreter's total
  // semantics make it a no-op, but no well-formed compilation emits it.
  Report R = analyzeStackProgram({stackm::TOp::popAdd()});
  EXPECT_EQ(R.Stack, Verdict::Unsafe) << R.str();
  EXPECT_TRUE(hasFinding(R, "stack-underflow")) << R.str();
  ASSERT_FALSE(R.Findings.empty());
  EXPECT_EQ(R.Findings.front().Path, "op#0");
}

//===----------------------------------------------------------------------===//
// Dynamic cross-checks: the static envelopes dominate observed behavior.
//===----------------------------------------------------------------------===//

TEST(CodelintTest, StepBoundDominatesInterpreterFuel) {
  core::CompileResult C = compiled("fnv1a");
  Report R = analyzeAs("fnv1a", C.Fn);
  ASSERT_EQ(R.Steps, Verdict::Safe) << R.str();

  std::vector<uint8_t> Input = {'r', 'e', 'l', 'c', '-', 'c', 'o', 'd',
                                'e', 'l', 'i', 'n', 't', '!', '!', '!'};
  Module Linked;
  Linked.Functions.push_back(C.Fn);
  TapeEnv Env;
  Result<RunResult> Run = runFunction(
      Linked, "fnv1a", {}, Env,
      [&](State &S, std::vector<Word> &Args) -> Status {
        Word Base = S.Mem.alloc(Input.size());
        if (Status F = S.Mem.fill(Base, Input); !F)
          return F;
        Args = {Base, Input.size()};
        return Status::success();
      });
  ASSERT_TRUE(bool(Run)) << (Run ? "" : Run.error().str());
  EXPECT_GT(Run->FuelUsed, 0u);
  EXPECT_LE(Run->FuelUsed, R.StepBound)
      << "static step envelope must dominate observed fuel";
}

TEST(CodelintTest, OperandDepthDominatesObservedDepth) {
  using namespace stackm;
  // The same shapes the driver lints: the traditional compiler's base
  // fragment and the relational compiler with the Mul extension.
  std::vector<TProgram> Programs;
  Programs.push_back(*compileStoT(*sAdd(sAdd(sInt(1), sInt(2)),
                                        sAdd(sInt(3), sInt(4)))));
  SRuleSet Rules = SRuleSet::base();
  Rules.add(makeMulRule());
  Programs.push_back(
      compileRelational(Rules,
                        sAdd(sInt(3), sMul(sInt(4), sAdd(sInt(5), sInt(6)))))
          ->Program);

  for (const TProgram &P : Programs) {
    Report R = analyzeStackProgram(P);
    ASSERT_EQ(R.overall(), Verdict::Safe) << R.str();
    size_t Observed = 0;
    (void)evalT(P, {}, &Observed);
    EXPECT_GE(R.OperandDepth, Observed) << R.str();
    EXPECT_EQ(R.StepBound, P.size()) << "stackm step count is exact";
  }
}

//===----------------------------------------------------------------------===//
// Refusal-by-default: starvation degrades to Unknown, never Unsafe.
//===----------------------------------------------------------------------===//

TEST(CodelintTest, ExhaustedBudgetDegradesToUnknown) {
  core::CompileResult C = compiled("fnv1a");
  const programs::ProgramDef *P = programs::findProgram("fnv1a");
  guard::Budget B(/*DeadlineMs=*/0, /*StepLimit=*/1);
  Report R = analyzeFunction(C.Fn, P->Spec, P->Model,
                             P->Hints.EntryFacts, &B);
  EXPECT_TRUE(R.BudgetExhausted) << R.str();
  EXPECT_EQ(R.overall(), Verdict::Unknown) << R.str();
  EXPECT_NE(R.overall(), Verdict::Unsafe);
  EXPECT_TRUE(hasFinding(R, "analysis-incomplete")) << R.str();
}

//===----------------------------------------------------------------------===//
// Verdict names: stable kebab-case, round-trippable (the certificate
// reader parses them back).
//===----------------------------------------------------------------------===//

TEST(CodelintTest, VerdictNamesRoundTrip) {
  for (Verdict V : {Verdict::Safe, Verdict::Unknown, Verdict::Unsafe}) {
    std::optional<Verdict> Back = verdictFromName(verdictName(V));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, V);
  }
  EXPECT_FALSE(verdictFromName("Safe").has_value()) << "names are kebab-case";
  EXPECT_FALSE(verdictFromName("").has_value());
}

} // namespace
