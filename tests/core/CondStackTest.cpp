//===- tests/core/CondStackTest.cpp - Conditionals & stack allocation ------===//
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

TEST(CondTest, PaperCompareAndSwapShape) {
  // §3.4.2's example: let (r, c) := if t then (true, put c x) else
  // (false, c) — here over a cell.
  FnBuilder FB("cas", Monad::Pure);
  FB.cellParam("c").wordParam("t").wordParam("x");
  ProgBuilder Then;
  Then.let("c", mkCellPut("c", v("x"))).let("r", cw(1));
  ProgBuilder Else;
  Else.let("r", cw(0));
  ProgBuilder B;
  B.let("cur", mkCellGet("c"))
      .letMulti({"r", "c"},
                mkIf(eqw(v("cur"), v("t")), std::move(Then).ret({"r", "c"}),
                     std::move(Else).ret({"r", "c"})))
      .let("out", v("r"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"out", "c"}));
  sep::FnSpec Spec("cas");
  Spec.cellArg("c").scalarArg("t").scalarArg("x").retScalar("out")
      .retCellInPlace("c");
  core::CompileResult Out;
  ASSERT_CERTIFIES(Fn, Spec, {}, {}, &Out);
  // The join inference recorded the template, and the classification
  // found r scalar, c pointer — just like the paper.
  std::string D = Out.Proof->str();
  EXPECT_NE(D.find("join template"), std::string::npos);
  EXPECT_NE(D.find("cond_then"), std::string::npos);
  EXPECT_NE(D.find("cond_else"), std::string::npos);
}

TEST(CondTest, BranchFactsProveTailAccess) {
  // if (len & 1) != 0 then s[len-1] else 0 — the ip odd-tail shape.
  FnBuilder FB("tail", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder Then;
  Then.let("r", b2w(aget("s", subw(v("len"), cw(1)))));
  ProgBuilder Else;
  Else.let("r", cw(0));
  ProgBuilder B;
  B.letMulti({"r"}, mkIf(nez(andw(v("len"), cw(1))),
                         std::move(Then).ret({"r"}),
                         std::move(Else).ret({"r"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("tail");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("r");
  EXPECT_CERTIFIES(Fn, Spec);
}

TEST(CondTest, WithoutBranchFactTheAccessFails) {
  // The same access under a guard that gives no lower bound on len.
  FnBuilder FB("tail", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len").wordParam("z");
  ProgBuilder Then;
  Then.let("r", b2w(aget("s", subw(v("len"), cw(1)))));
  ProgBuilder Else;
  Else.let("r", cw(0));
  ProgBuilder B;
  B.letMulti({"r"}, mkIf(nez(andw(v("z"), cw(1))), // Unrelated guard.
                         std::move(Then).ret({"r"}),
                         std::move(Else).ret({"r"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("tail");
  Spec.arrayArg("s").lenArg("len", "s").scalarArg("z").retScalar("r");
  core::Compiler C;
  EXPECT_FALSE(bool(C.compileFn(Fn, Spec)));
}

TEST(CondTest, NestedConditionals) {
  FnBuilder FB("clamp", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder InnerThen;
  InnerThen.let("r", cw(100));
  ProgBuilder InnerElse;
  InnerElse.let("r", v("x"));
  ProgBuilder OuterThen;
  OuterThen.letMulti({"r"}, mkIf(ltu(cw(100), v("x")),
                                 std::move(InnerThen).ret({"r"}),
                                 std::move(InnerElse).ret({"r"})));
  ProgBuilder OuterElse;
  OuterElse.let("r", cw(10));
  ProgBuilder B;
  B.letMulti({"r"}, mkIf(ltu(cw(10), v("x")), std::move(OuterThen).ret({"r"}),
                         std::move(OuterElse).ret({"r"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("clamp");
  Spec.scalarArg("x").retScalar("r");
  EXPECT_CERTIFIES(Fn, Spec);
}

TEST(StackTest, InitializedStackBufferReadableAndScoped) {
  // A 4-byte constant table on the stack, indexed by x & 3.
  FnBuilder FB("lut4", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("buf", mkStack({10, 20, 30, 40}))
      .let("r", b2w(aget("buf", andw(v("x"), cw(3)))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("lut4");
  Spec.scalarArg("x").retScalar("r");
  core::CompileResult Out;
  ASSERT_CERTIFIES(Fn, Spec, {}, {}, &Out);
  EXPECT_NE(Out.Fn.str().find("stackalloc buf[4]"), std::string::npos);
}

TEST(StackTest, LargeInitializedBufferUsesWordStores) {
  FnBuilder FB("big", Monad::Pure);
  FB.wordParam("x");
  std::vector<uint8_t> Init(19);
  for (size_t I = 0; I < Init.size(); ++I)
    Init[I] = uint8_t(3 * I + 1);
  ProgBuilder B;
  B.let("buf", mkStack(Init)).let("r", b2w(aget("buf", cw(18))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("big");
  Spec.scalarArg("x").retScalar("r");
  core::CompileResult Out;
  ASSERT_CERTIFIES(Fn, Spec, {}, {}, &Out);
  // 2 word stores + 3 byte stores, not 19 byte stores.
  EXPECT_NE(Out.Fn.str().find("store8"), std::string::npos);
}

TEST(StackTest, UninitThenFullyOverwrittenIsDeterministic) {
  FnBuilder FB("scr", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder Fill;
  Fill.let("buf", mkPut("buf", v("j"), w2b(andw(v("x"), cw(0xff)))));
  ProgBuilder B;
  B.let("buf", mkStackUninit(8))
      .letMulti({"buf"}, mkRange("j", cw(0), cw(8), {acc("buf", v("buf"))},
                                 std::move(Fill).ret({"buf"})))
      .let("r", b2w(aget("buf", cw(5))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("scr");
  Spec.scalarArg("x").retScalar("r");
  EXPECT_CERTIFIES(Fn, Spec);
}

TEST(StackTest, UninitDependentResultFailsValidation) {
  // Reading junk directly: compilation succeeds (the lemma applies), but
  // differential certification rejects it — the §4.1.2 determinism
  // obligation, discharged dynamically.
  FnBuilder FB("junk", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("buf", mkStackUninit(8)).let("r", b2w(aget("buf", cw(0))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("junk");
  Spec.scalarArg("x").retScalar("r");
  programs::ProgramDef Def = programDef(Fn, Spec);
  std::vector<pipeline::ProgramOutcome> R =
      pipeline::certifyPrograms({&Def}, {});
  ASSERT_TRUE(R[0].CompileOk) << R[0].CompileError;
  EXPECT_FALSE(R[0].ok());
}

TEST(StackTest, StackBufferCannotBeAnInPlaceResult) {
  // Returning a stack buffer through the ensures clause is rejected: it
  // dies with its scope.
  FnBuilder FB("esc", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("s2", mkStack({1, 2, 3}));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  sep::FnSpec Spec("esc");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");
  // This one is fine (s untouched)...
  EXPECT_CERTIFIES(Fn, Spec);
  // ...but binding the stack buffer under the parameter's name collides.
  ProgBuilder B2;
  B2.let("s", mkStack({1, 2, 3}));
  FnBuilder FB2("esc2", Monad::Pure);
  FB2.listParam("s", EltKind::U8).wordParam("len");
  SourceFn Fn2 = std::move(FB2).done(std::move(B2).ret({"s"}));
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn2, Spec);
  EXPECT_FALSE(bool(R));
}

TEST(CopyTest, CopyOfStackBufferIsIndependent) {
  // t := copy(buf); mutate t; both survive with the right contents.
  FnBuilder FB("cpy", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("buf", mkStack({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}))
      .let("t", mkCopy("buf"))
      .let("t", mkPut("t", cw(0), cb(0xEE)))
      .let("orig", b2w(aget("buf", cw(0))))
      .let("dup", b2w(aget("t", cw(0))))
      .let("r", orw(shlw(v("orig"), cw(8)), v("dup")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("cpy");
  Spec.scalarArg("x").retScalar("r");
  core::CompileResult Out;
  // Source semantics: copy duplicates, so orig stays 1 while dup becomes
  // 0xEE and r = 0x1EE — checked by the differential vectors.
  ASSERT_CERTIFIES(Fn, Spec, {}, {}, &Out);
  EXPECT_NE(Out.Fn.str().find("stackalloc t[11]"), std::string::npos);
}

TEST(CopyTest, CopyOfSymbolicLengthArrayIsUnsolvedGoal) {
  FnBuilder FB("cpy", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("t", mkCopy("s")).let("r", v("len"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("cpy");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("r");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("statically sized"), std::string::npos);
}

TEST(CopyTest, CopyBackToSameNameRejected) {
  FnBuilder FB("cpy", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("buf", mkStack({1, 2})).let("buf", mkCopy("buf")).let("r", v("x"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("cpy");
  Spec.scalarArg("x").retScalar("r");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("identity"), std::string::npos);
}

TEST(StackTest, OversizeStackAllocationRejected) {
  FnBuilder FB("huge", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("buf", mkStackUninit(1 << 20)).let("r", v("x"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("huge");
  Spec.scalarArg("x").retScalar("r");
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("4096"), std::string::npos);
}

} // namespace
