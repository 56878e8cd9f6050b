//===- tests/core/CompilerTest.cpp - Driver, ABI, diagnostics --------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "CoreTestUtil.h"

using namespace relc;
using namespace relc::ir;
using namespace relc::coretest;

namespace {

TEST(CompilerTest, StraightLineScalarFunction) {
  FnBuilder FB("axpy", Monad::Pure);
  FB.wordParam("a").wordParam("x").wordParam("y");
  ProgBuilder B;
  B.let("t", mulw(v("a"), v("x"))).let("r", addw(v("t"), v("y")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("axpy");
  Spec.scalarArg("a").scalarArg("x").scalarArg("y").retScalar("r");
  core::CompileResult Out;
  ASSERT_CERTIFIES(Fn, Spec, {}, {}, &Out);
  EXPECT_EQ(Out.Fn.Args, (std::vector<std::string>{"a", "x", "y"}));
  EXPECT_EQ(Out.Fn.Rets, (std::vector<std::string>{"r"}));
  EXPECT_EQ(Out.EmittedStmts, 2u);
  EXPECT_TRUE(Out.Features.count("Arithmetic"));
}

TEST(CompilerTest, MultipleScalarReturnsAtTargetLevel) {
  // Bedrock2 supports multiple returns (only C emission restricts them).
  FnBuilder FB("divmod", Monad::Pure);
  FB.wordParam("a").wordParam("b");
  ProgBuilder B;
  B.let("q", binop(WordOp::DivU, v("a"), v("b")))
      .let("r", binop(WordOp::RemU, v("a"), v("b")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"q", "r"}));
  sep::FnSpec Spec("divmod");
  Spec.scalarArg("a").scalarArg("b").retScalar("q").retScalar("r");
  EXPECT_CERTIFIES(Fn, Spec);
}

TEST(CompilerTest, ArrayPutInPlace) {
  FnBuilder FB("set0", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder Then;
  Then.let("s", mkPut("s", cw(0), cb(0xAA)));
  ProgBuilder Else; // Leave unchanged.
  ProgBuilder B;
  B.letMulti({"s"}, mkIf(ltu(cw(0), v("len")), std::move(Then).ret({"s"}),
                         std::move(Else).ret({"s"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  sep::FnSpec Spec("set0");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");
  EXPECT_CERTIFIES(Fn, Spec);
}

TEST(CompilerTest, PutUnderDifferentNameIsUnsolvedGoal) {
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("t", mkPut("s", cw(0), cb(1)));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  sep::FnSpec Spec("f");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("same name"), std::string::npos);
}

TEST(CompilerTest, UnprovableBoundsStopCompilation) {
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("x", b2w(aget("s", v("len")))); // One past the end.
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  sep::FnSpec Spec("f");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("x");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("unsolved side condition"),
            std::string::npos);
}

TEST(CompilerTest, EntryFactHintsDischargeRequiresClauses) {
  // s[0] needs len >= 1; the hint supplies it (the ABI promises it).
  FnBuilder FB("first", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("x", b2w(aget("s", cw(0))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  sep::FnSpec Spec("first");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("x");

  core::Compiler C;
  EXPECT_FALSE(bool(C.compileFn(Fn, Spec))); // Without the hint.

  core::CompileHints Hints;
  Hints.EntryFacts.push_back([](sep::CompState &St) {
    St.Facts.addLe(solver::lc(1), solver::ls("len_s"), "requires len >= 1");
  });
  validate::ValidationOptions VO;
  VO.MakeInputs = [](const SourceFn &F, Rng &R, size_t Hint) {
    return validate::defaultInputs(F, R, Hint < 1 ? 1 : Hint);
  };
  EXPECT_CERTIFIES(Fn, Spec, Hints, VO);
}

TEST(CompilerTest, UnsolvedGoalPrintsTheJudgment) {
  // No rule handles a fold bound to two names.
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.letMulti({"a", "b"},
             mkFold("s", "a", "x", cw(0), addw(v("a"), b2w(v("x")))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  sep::FnSpec Spec("f");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  // The checker rejects this earlier (arity); ensure a diagnostic exists.
  EXPECT_FALSE(R.error().str().empty());
}

TEST(CompilerTest, MissingLenLocalIsExplained) {
  // An array argument without any length argument cannot drive a loop.
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("s", mkMap("s", "b", v("b")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  sep::FnSpec Spec("f");
  Spec.arrayArg("s").retInPlace("s");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("length"), std::string::npos);
}

TEST(CompilerTest, ModelRejectedBeforeCompilation) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("y", v("nope"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"y"}));
  sep::FnSpec Spec("f");
  Spec.scalarArg("x").retScalar("y");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("model rejected"), std::string::npos);
}

TEST(CompilerTest, ExternCallLinksTwoCompiledFunctions) {
  // g(x) = x*x, f(x) = g(x) + g(x+1): compile both, link, validate f.
  FnBuilder GB("g_model", Monad::Pure);
  GB.wordParam("x");
  ProgBuilder G;
  G.let("y", mulw(v("x"), v("x")));
  SourceFn GFn = std::move(GB).done(std::move(G).ret({"y"}));
  sep::FnSpec GSpec("square");
  GSpec.scalarArg("x").retScalar("y");

  FnBuilder FBd("f_model", Monad::Pure);
  FBd.wordParam("x");
  ProgBuilder F;
  F.letMulti({"a"}, mkCall("square", {v("x")}, 1))
      .letMulti({"b"}, mkCall("square", {addw(v("x"), cw(1))}, 1))
      .let("r", addw(v("a"), v("b")));
  SourceFn FFn = std::move(FBd).done(std::move(F).ret({"r"}));
  sep::FnSpec FSpec("sumsq");
  FSpec.scalarArg("x").retScalar("r");

  core::Compiler C;
  Result<core::CompileResult> GR = C.compileFn(GFn, GSpec);
  ASSERT_TRUE(bool(GR)) << GR.error().str();
  Result<core::CompileResult> FR = C.compileFn(FFn, FSpec);
  ASSERT_TRUE(bool(FR)) << FR.error().str();
  EXPECT_EQ(FR->ExternalCallees, (std::set<std::string>{"square"}));

  bedrock::Module Linked;
  Linked.Functions.push_back(GR->Fn);
  Linked.Functions.push_back(FR->Fn);
  // The pipeline certifies one function at a time, so this test runs the
  // replay and differential layers on the linked module itself.
  Status Replay = validate::replayDerivation(FFn, *FR);
  EXPECT_TRUE(bool(Replay)) << (Replay ? "" : Replay.error().str());
  validate::ValidationOptions VO;
  VO.CalleeModels["square"] = &GFn;
  Status V = validate::differentialCertify(FFn, FSpec, *FR, Linked, VO);
  EXPECT_TRUE(bool(V)) << (V ? "" : V.error().str());
}

TEST(CompilerTest, MissingCalleeFailsValidation) {
  FnBuilder FB("f_model", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder F;
  F.letMulti({"a"}, mkCall("square", {v("x")}, 1)).let("r", v("a"));
  SourceFn Fn = std::move(FB).done(std::move(F).ret({"r"}));
  sep::FnSpec Spec("f");
  Spec.scalarArg("x").retScalar("r");
  // The pipeline links the function alone: the callee is absent.
  programs::ProgramDef Def = programDef(Fn, Spec);
  std::vector<pipeline::ProgramOutcome> R =
      pipeline::certifyPrograms({&Def}, {});
  ASSERT_TRUE(R[0].CompileOk) << R[0].CompileError;
  ASSERT_FALSE(R[0].ok());
  EXPECT_NE(R[0].ValidationError.find("square"), std::string::npos)
      << R[0].ValidationError;
}

TEST(CompilerTest, DerivationRecordsInvariantAndSideConditions) {
  // A ranged loop with an explicit array read: the witness must carry the
  // inferred invariant template and the discharged bounds side condition.
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder Body;
  Body.let("h", addw(v("h"), b2w(aget("s", v("i")))));
  ProgBuilder B;
  B.letMulti({"h"}, mkRange("i", cw(0), v("len"), {acc("h", cw(0))},
                            std::move(Body).ret({"h"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"h"}));
  sep::FnSpec Spec("f");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("h");
  core::CompileResult Out;
  ASSERT_CERTIFIES(Fn, Spec, {}, {}, &Out);
  std::string D = Out.Proof->str();
  EXPECT_NE(D.find("invariant template"), std::string::npos);
  EXPECT_NE(D.find("ranged_for"), std::string::npos);
  EXPECT_NE(D.find("(bounds of s)"), std::string::npos);

  // A fold records its invariant instantiation too.
  FnBuilder FB2("g", Monad::Pure);
  FB2.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B2;
  B2.let("h", mkFold("s", "h", "b", cw(0), addw(v("h"), b2w(v("b")))));
  SourceFn Fn2 = std::move(FB2).done(std::move(B2).ret({"h"}));
  sep::FnSpec Spec2("g");
  Spec2.arrayArg("s").lenArg("len", "s").retScalar("h");
  core::CompileResult Out2;
  ASSERT_CERTIFIES(Fn2, Spec2, {}, {}, &Out2);
  EXPECT_NE(Out2.Proof->str().find("fold_left f (firstn i"),
            std::string::npos);
}

TEST(CompilerTest, BlankCompilerKnowsNothing) {
  core::Compiler Blank{core::Compiler::EmptyTag{}};
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("y", v("x"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"y"}));
  sep::FnSpec Spec("f");
  Spec.scalarArg("x").retScalar("y");
  Result<core::CompileResult> R = Blank.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("no compilation lemma"), std::string::npos);
}

} // namespace
