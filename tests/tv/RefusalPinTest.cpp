//===- tests/tv/RefusalPinTest.cpp - Refusal sites on both faces ----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Hand-built (model, code) pairs that stop the symbolic evaluator at its
// refusal sites, pinned on both of its faces:
//
//  - the translation validator's verdict and full reason (Inconclusive for
//    a program outside the modeled fragment, Refuted for a mismatch);
//  - the independent checker's reject name, for a proved certificate
//    re-keyed with cert::contentKey to the same pair, so that every
//    pre-check passes and only the re-derivation can refuse.
//
// Each pair changes one thing in a clean twin that proves, so the site
// under test is the only reason either face can give.
//
//===----------------------------------------------------------------------===//

#include "cert/Rederive.h"
#include "cert/Writer.h"
#include "codelint/Codelint.h"
#include "ir/Build.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::ir;
using namespace relc::bedrock;

namespace {

struct Pair {
  SourceFn Model;
  sep::FnSpec Spec;
  Function Code;
};

//===----------------------------------------------------------------------===//
// The clean twins.
//===----------------------------------------------------------------------===//

/// sum(s) = fold (+) 0 s, returned as "acc".
SourceFn sumModel(Monad M = Monad::Pure) {
  FnBuilder FB("sum", M);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("acc", mkFold("s", "a", "b", cw(0), addw(v("a"), b2w(v("b")))));
  return std::move(FB).done(std::move(B).ret({"acc"}));
}

sep::FnSpec sumSpec() {
  sep::FnSpec Spec("sum");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("acc");
  return Spec;
}

CmdPtr sumLoop(CmdPtr Extra = skip()) {
  return whileLoop(
      bin(BinOp::LtU, var("i"), var("len")),
      seqAll({set("acc", add(var("acc"),
                             load(AccessSize::Byte, add(var("s"), var("i"))))),
              Extra, set("i", add(var("i"), lit(1)))}));
}

Function sumCode(CmdPtr Tail = skip()) {
  Function F;
  F.Name = "sum";
  F.Args = {"s", "len"};
  F.Rets = {"acc"};
  F.Body = seqAll({set("acc", lit(0)), set("i", lit(0)), sumLoop(), Tail});
  return F;
}

Pair sumPair() { return {sumModel(), sumSpec(), sumCode()}; }

/// incr(s) = map (+1) s, in place.
Pair incrPair(bool DropStore) {
  FnBuilder FB("incr", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("s", mkMap("s", "b", w2b(addw(b2w(v("b")), cw(1)))));
  sep::FnSpec Spec("incr");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");

  Function F;
  F.Name = "incr";
  F.Args = {"s", "len"};
  bedrock::ExprPtr Addr = add(var("s"), var("i"));
  CmdPtr Write = DropStore
                     ? set("dead", add(load(AccessSize::Byte, Addr), lit(1)))
                     : store(AccessSize::Byte, Addr,
                             add(load(AccessSize::Byte, Addr), lit(1)));
  CmdPtr Step = set("i", add(var("i"), lit(1)));
  F.Body = seqAll({set("i", lit(0)),
                   whileLoop(bin(BinOp::LtU, var("i"), var("len")),
                             seqAll({Write, Step}))});
  return {std::move(FB).done(std::move(B).ret({"s"})), std::move(Spec),
          std::move(F)};
}

//===----------------------------------------------------------------------===//
// The two faces.
//===----------------------------------------------------------------------===//

/// Pins TV's verdict and reason on \p Bad, then checks a proved
/// certificate of \p Clean, re-keyed to \p Bad, against \p Bad.
void expectRefused(const Pair &Clean, const Pair &Bad, tv::Verdict V,
                   const std::string &Reason) {
  tv::TvReport Rep = tv::validateTranslation(Bad.Model, Bad.Spec, Bad.Code);
  EXPECT_STREQ(tv::verdictName(Rep.TheVerdict), tv::verdictName(V))
      << Rep.str();
  EXPECT_EQ(Rep.Reason, Reason);

  tv::TvReport Good =
      tv::validateTranslation(Clean.Model, Clean.Spec, Clean.Code);
  ASSERT_TRUE(Good.proved()) << Good.str();
  cert::Certificate C = cert::fromTvReport(
      Good, cert::contentKey(Bad.Model, {}, Bad.Spec, Bad.Code));
  cert::CheckResult R =
      cert::Rederive::check(C, Bad.Model, {}, Bad.Spec, Bad.Code);
  EXPECT_FALSE(R.Accepted) << "re-keyed certificate accepted";
  EXPECT_STREQ(cert::rejectName(R.Why), "rederivation-failed") << R.Detail;
}

TEST(RefusalPinTest, CleanTwinsProveAndTheirCertificatesAreAccepted) {
  for (const Pair &P : {sumPair(), incrPair(false)}) {
    tv::TvReport Rep = tv::validateTranslation(P.Model, P.Spec, P.Code);
    ASSERT_TRUE(Rep.proved()) << Rep.str();
    cert::Certificate C = cert::fromTvReport(
        Rep, cert::contentKey(P.Model, {}, P.Spec, P.Code));
    C.Codelint = cert::codelintRecOf(
        codelint::analyzeFunction(P.Code, P.Spec, P.Model, {}));
    cert::CheckResult R = cert::Rederive::check(C, P.Model, {}, P.Spec, P.Code);
    EXPECT_TRUE(R.Accepted) << cert::rejectName(R.Why) << ": " << R.Detail;
  }
}

//===----------------------------------------------------------------------===//
// Outside the fragment: TV says Inconclusive.
//===----------------------------------------------------------------------===//

TEST(RefusalPinTest, MonadicModel) {
  expectRefused(sumPair(), {sumModel(Monad::Writer), sumSpec(), sumCode()},
                tv::Verdict::Inconclusive,
                "model is in the writer monad; only pure programs are "
                "validated statically");
}

TEST(RefusalPinTest, BindingFormOutsideTheFragment) {
  FnBuilder FB("sum", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("c", mkCopy("s"));
  B.let("acc", mkFold("s", "a", "b", cw(0), addw(v("a"), b2w(v("b")))));
  expectRefused(sumPair(),
                {std::move(FB).done(std::move(B).ret({"acc"})), sumSpec(),
                 sumCode()},
                tv::Verdict::Inconclusive,
                "binding form 'copy s' is outside the statically validated "
                "fragment");
}

TEST(RefusalPinTest, TargetCall) {
  expectRefused(sumPair(),
                {sumModel(), sumSpec(),
                 sumCode(call({"t"}, "helper", {var("acc")}))},
                tv::Verdict::Inconclusive,
                "target calls 'helper'; calls are not validated statically");
}

TEST(RefusalPinTest, TargetStackalloc) {
  expectRefused(sumPair(),
                {sumModel(), sumSpec(), sumCode(stackalloc("buf", 8, skip()))},
                tv::Verdict::Inconclusive,
                "stackalloc is outside the validated fragment");
}

TEST(RefusalPinTest, TargetInteract) {
  expectRefused(sumPair(),
                {sumModel(), sumSpec(), sumCode(interact({}, "yield", {}))},
                tv::Verdict::Inconclusive,
                "environment interaction is outside the validated fragment");
}

TEST(RefusalPinTest, NestedModelLoop) {
  // ranged_for over [0, len) whose body folds s: a loop inside a loop.
  FnBuilder FB("sum", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder Body;
  Body.let("y", mkFold("s", "a", "b", cw(0), addw(v("a"), b2w(v("b")))));
  Body.let("acc", addw(v("acc"), v("y")));
  ProgBuilder B;
  B.let("acc", mkRange("k", cw(0), v("len"), {acc("acc", cw(0))},
                       std::move(Body).ret({"acc"})));
  expectRefused(sumPair(),
                {std::move(FB).done(std::move(B).ret({"acc"})), sumSpec(),
                 sumCode()},
                tv::Verdict::Inconclusive, "nested loops are not summarized");
}

TEST(RefusalPinTest, NestedTargetLoop) {
  Function F = sumCode();
  F.Body = seqAll(
      {set("acc", lit(0)), set("i", lit(0)),
       sumLoop(whileLoop(bin(BinOp::LtU, var("i"), lit(0)), skip()))});
  expectRefused(sumPair(), {sumModel(), sumSpec(), std::move(F)},
                tv::Verdict::Inconclusive,
                "nested target loops are not summarized");
}

//===----------------------------------------------------------------------===//
// Mismatches: TV says Refuted.
//===----------------------------------------------------------------------===//

TEST(RefusalPinTest, InlineTableContents) {
  FnBuilder FB("sum", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len").table("t", EltKind::U8,
                                                        {1, 2, 3});
  ProgBuilder B;
  B.let("acc", mkFold("s", "a", "b", cw(0), addw(v("a"), b2w(v("b")))));
  Function F = sumCode();
  F.Tables = {{"t", AccessSize::Byte, {1, 2, 4}}};
  expectRefused(sumPair(),
                {std::move(FB).done(std::move(B).ret({"acc"})), sumSpec(),
                 std::move(F)},
                tv::Verdict::Refuted,
                "inline table 't' contents differ from the model");
}

TEST(RefusalPinTest, LoopStoredRegionSet) {
  expectRefused(incrPair(false), incrPair(true), tv::Verdict::Refuted,
                "loop at body.1 writes regions {} but model binding 's' (0) "
                "writes {s}");
}

TEST(RefusalPinTest, MissingReturnLocal) {
  Function F = sumCode();
  F.Rets = {"total"};
  expectRefused(sumPair(), {sumModel(), sumSpec(), std::move(F)},
                tv::Verdict::Refuted,
                "target never defines return local 'total'");
}

} // namespace
