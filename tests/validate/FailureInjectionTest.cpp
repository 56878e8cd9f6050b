//===- tests/validate/FailureInjectionTest.cpp - Tampered artifacts --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The trust story of DESIGN.md §4.4 rests on the validator rejecting
// anything that is not exactly what the compiler proved. These tests
// inject faults into each artifact — the target code, the derivation
// witness, and the linked module — and demand rejection.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "pipeline/Pipeline.h"
#include "programs/Programs.h"
#include "validate/Validate.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::ir;
using namespace relc::bedrock;

namespace {

struct Compiled {
  programs::ProgramDef P;
  core::CompileResult R;

  explicit Compiled(const char *Name) : P(*programs::findProgram(Name)) {
    core::Compiler C;
    Result<core::CompileResult> Res = C.compileFn(P.Model, P.Spec, P.Hints);
    EXPECT_TRUE(bool(Res)) << (Res ? "" : Res.error().str());
    R = Res.take();
  }

  Status certifyWith(const Function &Fn) const {
    bedrock::Module M;
    M.Functions.push_back(Fn);
    return validate::differentialCertify(P.Model, P.Spec, R, M, P.VOpts);
  }
};

TEST(FailureInjectionTest, EmptyBodyRejected) {
  Compiled C("upstr");
  Function Broken = C.R.Fn;
  Broken.Body = skip(); // Does nothing: in-place contents will differ.
  Status S = C.certifyWith(Broken);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("mismatch"), std::string::npos);
}

TEST(FailureInjectionTest, SubtlyWrongLoopBodyRejected) {
  // A plausible-but-wrong upstr: masks *every* byte with 0x5f instead of
  // only lowercase letters — correct on letters, wrong on digits and
  // punctuation. The differential vectors catch it.
  Compiled C("upstr");
  Function Broken = C.R.Fn;
  Broken.Body = seqAll(
      {set("i", lit(0)),
       whileLoop(bin(BinOp::LtU, var("i"), var("len")),
                 seqAll({store(AccessSize::Byte, add(var("s"), var("i")),
                               bin(BinOp::And,
                                   load(AccessSize::Byte,
                                        add(var("s"), var("i"))),
                                   lit(0x5f))),
                         set("i", add(var("i"), lit(1)))}))});
  Status S = C.certifyWith(Broken);
  EXPECT_FALSE(bool(S));
}

TEST(FailureInjectionTest, WrongScalarResultRejected) {
  Compiled C("fnv1a");
  Function Broken = C.R.Fn;
  Broken.Body = seq(Broken.Body, set("h", lit(0))); // Clobber the result.
  EXPECT_FALSE(bool(C.certifyWith(Broken)));
}

TEST(FailureInjectionTest, FrameViolationRejected) {
  // A function that writes one byte past its buffer: the memory model
  // faults the wild store before the frame even gets compared.
  Compiled C("upstr");
  Function Broken = C.R.Fn;
  Broken.Body =
      seq(Broken.Body,
          store(AccessSize::Byte, add(var("s"), var("len")), lit(7)));
  Status S = C.certifyWith(Broken);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("out of bounds"), std::string::npos);
}

TEST(FailureInjectionTest, ReadOnlyArgumentMutationRejected) {
  // fnv1a's array is read-only per its spec; a sneaky store must fail.
  Compiled C("fnv1a");
  Function Broken = C.R.Fn;
  ProgBuilder B;
  Broken.Body = seq(
      ifThenElse(bin(BinOp::LtU, lit(0), var("len")),
                 store(AccessSize::Byte, var("s"), lit(0)), skip()),
      Broken.Body);
  Status S = C.certifyWith(Broken);
  ASSERT_FALSE(bool(S));
  // Either the hash differs or the read-only check fires; both reject.
}

TEST(FailureInjectionTest, SpuriousTraceEventRejected) {
  Compiled C("m3s");
  Function Broken = C.R.Fn;
  Broken.Body = seq(interact({}, "write", {lit(1)}), Broken.Body);
  Status S = C.certifyWith(Broken);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("trace"), std::string::npos);
}

TEST(FailureInjectionTest, LeakedAllocationRejected) {
  // A stackalloc whose body never ends (we fake a leak by allocating in
  // the interpreter setup is not possible from outside; instead check the
  // well-formedness gate: a call to an unknown function).
  Compiled C("m3s");
  Function Broken = C.R.Fn;
  Broken.Body = seq(Broken.Body, call({}, "missing_fn", {}));
  Status S = C.certifyWith(Broken);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("missing_fn"), std::string::npos);
}

TEST(FailureInjectionTest, UnknownRuleInWitnessRejected) {
  Compiled C("upstr");
  C.R.Proof->Children[0]->Rule = "compile_backdoor";
  Status S = validate::replayDerivation(C.P.Model, C.R);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("compile_backdoor"), std::string::npos);
}

TEST(FailureInjectionTest, DroppedSideConditionRejected) {
  // Remove every recorded bounds side condition: the replay count check
  // catches the mismatch with the source's memory accesses.
  Compiled C("crc32");
  std::function<void(core::DerivNode &)> Strip =
      [&](core::DerivNode &N) {
        N.SideConds.clear();
        for (auto &Ch : N.Children)
          Strip(*Ch);
      };
  Strip(*C.R.Proof);
  Status S = validate::replayDerivation(C.P.Model, C.R);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("side conditions"), std::string::npos);
}

TEST(FailureInjectionTest, DroppedInvariantTemplateRejected) {
  Compiled C("upstr");
  std::function<void(core::DerivNode &)> Strip =
      [&](core::DerivNode &N) {
        if (N.Rule == "compile_map_inplace")
          N.Notes.clear();
        for (auto &Ch : N.Children)
          Strip(*Ch);
      };
  Strip(*C.R.Proof);
  Status S = validate::replayDerivation(C.P.Model, C.R);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("invariant"), std::string::npos);
}

// The static layer's reason to exist: a bug differential testing cannot
// see. The tampered upstr below writes one byte past the buffer, but only
// when len == 77 — a length the sampled vector battery never generates
// (ValidationOptions::Sizes has no 77). Differential certification
// accepts the broken function; the static analyzer, which reasons over
// *all* lengths, rejects it.
TEST(FailureInjectionTest, RareLengthOverflowEscapesDifferentialTesting) {
  Compiled C("upstr");
  Function Broken = C.R.Fn;
  Broken.Body =
      seq(Broken.Body,
          ifThenElse(bin(BinOp::Eq, var("len"), lit(77)),
                     store(AccessSize::Byte, add(var("s"), var("len")),
                           lit(0)),
                     skip()));

  // Layer 3 misses it: every sampled vector takes the harmless branch.
  ASSERT_TRUE(bool(C.certifyWith(Broken)));

  // Layer 2 catches it: the store at s+len is outside the frame.
  analysis::AnalysisReport R = analysis::analyzeProgram(
      Broken, C.P.Spec, C.P.Model, C.P.Hints.EntryFacts);
  ASSERT_TRUE(R.hasErrors()) << R.str();
  EXPECT_NE(R.str().find("bounds"), std::string::npos) << R.str();
}

// Warnings do not fail certification, but they do surface: a useless
// assignment smuggled into the target passes both differential testing
// and certification, yet the analysis report names it.
TEST(FailureInjectionTest, InjectedDeadStoreSurfacesAsWarning) {
  Compiled C("upstr");
  Function Broken = C.R.Fn;
  Broken.Body = seqAll({set("scratch", lit(41)), Broken.Body});

  ASSERT_TRUE(bool(C.certifyWith(Broken)));

  analysis::AnalysisReport R = analysis::analyzeProgram(
      Broken, C.P.Spec, C.P.Model, C.P.Hints.EntryFacts);
  EXPECT_FALSE(R.hasErrors())
      << "warnings alone must not fail certification\n" << R.str();
  ASSERT_EQ(R.numWarnings(), 1u) << R.str();
  EXPECT_EQ(R.Diags[0].C, analysis::Diagnostic::Checker::DeadStore);
}

// The same injections, under the parallel scheduler: a defect in one
// program must fail exactly that program, without poisoning, blocking, or
// slowing its siblings — their layers run to completion concurrently and
// come out green.
TEST(FailureInjectionTest, ParallelPipelineIsolatesInjectedDefect) {
  std::vector<const programs::ProgramDef *> Suite;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Suite.push_back(&P);

  pipeline::PipelineOptions Opts;
  Opts.Jobs = 8; // Layers of all programs genuinely interleave.
  pipeline::TamperHook Tamper = [](const programs::ProgramDef &P,
                                   core::CompileResult &R) {
    if (P.Name == "crc32") // Clobber the scalar result.
      R.Fn.Body = seq(R.Fn.Body, set(R.Fn.Rets.at(0), lit(1)));
  };

  pipeline::PipelineStats Stats;
  std::vector<pipeline::ProgramOutcome> Out =
      pipeline::certifyPrograms(Suite, Opts, &Stats, Tamper);

  ASSERT_EQ(Out.size(), Suite.size());
  EXPECT_EQ(Stats.Failures, 1u);
  for (const pipeline::ProgramOutcome &O : Out) {
    if (O.Def->Name == "crc32") {
      EXPECT_FALSE(O.ok());
      EXPECT_FALSE(O.ValidationError.empty());
      // The rejection carries the standard note chain.
      EXPECT_NE(O.ValidationError.find("while validating program crc32"),
                std::string::npos)
          << O.ValidationError;
    } else {
      EXPECT_TRUE(O.ok()) << O.Def->Name << ": " << O.ValidationError;
      EXPECT_TRUE(O.Diff.Ran) << O.Def->Name;
    }
  }
}

// And the serial reference (-j 1) renders the exact same outcome and
// diagnostics for the injected defect: parallelism never changes verdicts.
TEST(FailureInjectionTest, SerialAndParallelAgreeOnInjectedDefect) {
  std::vector<const programs::ProgramDef *> Suite;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Suite.push_back(&P);
  pipeline::TamperHook Tamper = [](const programs::ProgramDef &P,
                                   core::CompileResult &R) {
    if (P.Name == "upstr")
      R.Fn.Body = skip();
  };

  pipeline::PipelineOptions Serial, Parallel;
  Parallel.Jobs = 8;
  std::vector<pipeline::ProgramOutcome> S =
      pipeline::certifyPrograms(Suite, Serial, nullptr, Tamper);
  std::vector<pipeline::ProgramOutcome> P =
      pipeline::certifyPrograms(Suite, Parallel, nullptr, Tamper);

  ASSERT_EQ(S.size(), P.size());
  for (size_t I = 0; I < S.size(); ++I) {
    EXPECT_EQ(S[I].ok(), P[I].ok()) << S[I].Def->Name;
    EXPECT_EQ(S[I].ValidationError, P[I].ValidationError) << S[I].Def->Name;
  }
}

TEST(FailureInjectionTest, WrongMonadNoteRejected) {
  Compiled C("m3s");
  for (std::string &N : C.R.Proof->Notes)
    if (N.rfind("monad:", 0) == 0)
      N = "monad: io";
  Status S = validate::replayDerivation(C.P.Model, C.R);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("monad"), std::string::npos);
}

} // namespace
