//===- tests/tv/TvSeededBugsTest.cpp - Planted-miscompilation corpus -------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Hand-planted wrong-code twins: for each classic miscompilation — an
// off-by-one loop bound, swapped operands, a dropped store — a Bedrock2
// function that *almost* implements its model, and a clean twin differing
// only in the defect. The validator must refute each defect naming the
// failing model binding, and must prove the clean twin. This corpus is
// the precision/recall contract of the translation-validation layer,
// mirroring tests/analysis/SeededBugsTest.cpp one layer up the trust
// story.
//
// The clean twins are deliberately written by hand in a *natural* loop
// style rather than echoing the compiler's exact output shape: proving
// them exercises the normalization engine (affine index arithmetic,
// store-masking, mask erasure), not just syntactic replay.
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"
#include "pipeline/Pipeline.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::ir;
using namespace relc::bedrock;

namespace {

//===----------------------------------------------------------------------===//
// Defect 1: off-by-one loop bound (reads one element past the model).
//===----------------------------------------------------------------------===//

SourceFn sumModel() {
  FnBuilder FB("sum", Monad::Pure);
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

Function sumTarget(bool OffByOne) {
  Function F;
  F.Name = "sum";
  F.Args = {"s", "len"};
  F.Rets = {"acc"};
  bedrock::ExprPtr Bound = OffByOne ? add(var("len"), lit(1)) : var("len");
  F.Body = seqAll(
      {set("acc", lit(0)), set("i", lit(0)),
       whileLoop(bin(BinOp::LtU, var("i"), Bound),
                 seqAll({set("acc", add(var("acc"),
                                        load(AccessSize::Byte,
                                             add(var("s"), var("i"))))),
                         set("i", add(var("i"), lit(1)))}))});
  return F;
}

TEST(TvSeededBugsTest, OffByOneLoopBoundRefuted) {
  tv::TvReport Rep =
      tv::validateTranslation(sumModel(), sumSpec(), sumTarget(true));
  ASSERT_TRUE(Rep.refuted()) << Rep.str();
  // The refutation names the failing model binding and the loop's path.
  EXPECT_NE(Rep.Reason.find("'acc'"), std::string::npos) << Rep.Reason;
  EXPECT_NE(Rep.Reason.find("body."), std::string::npos) << Rep.Reason;
  EXPECT_NE(Rep.Reason.find("guard"), std::string::npos) << Rep.Reason;
}

TEST(TvSeededBugsTest, OffByOneCleanTwinProves) {
  tv::TvReport Rep =
      tv::validateTranslation(sumModel(), sumSpec(), sumTarget(false));
  EXPECT_TRUE(Rep.proved()) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Defect 2: swapped operands of a non-commutative operator.
//===----------------------------------------------------------------------===//

SourceFn diffModel() {
  // acc' = acc - b: subtraction makes the operand order observable.
  FnBuilder FB("diff", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("acc", mkFold("s", "a", "b", cw(0), subw(v("a"), b2w(v("b")))));
  return std::move(FB).done(std::move(B).ret({"acc"}));
}

sep::FnSpec diffSpec() {
  sep::FnSpec Spec("diff");
  Spec.arrayArg("s").lenArg("len", "s").retScalar("acc");
  return Spec;
}

Function diffTarget(bool Swapped) {
  Function F;
  F.Name = "diff";
  F.Args = {"s", "len"};
  F.Rets = {"acc"};
  bedrock::ExprPtr Elt = load(AccessSize::Byte, add(var("s"), var("i")));
  bedrock::ExprPtr Step = Swapped ? sub(Elt, var("acc")) : sub(var("acc"), Elt);
  F.Body = seqAll({set("acc", lit(0)), set("i", lit(0)),
                   whileLoop(bin(BinOp::LtU, var("i"), var("len")),
                             seqAll({set("acc", Step),
                                     set("i", add(var("i"), lit(1)))}))});
  return F;
}

TEST(TvSeededBugsTest, SwappedOperandsRefuted) {
  tv::TvReport Rep =
      tv::validateTranslation(diffModel(), diffSpec(), diffTarget(true));
  ASSERT_TRUE(Rep.refuted()) << Rep.str();
  EXPECT_NE(Rep.Reason.find("'acc'"), std::string::npos) << Rep.Reason;
  EXPECT_NE(Rep.Reason.find("steps to"), std::string::npos) << Rep.Reason;
}

TEST(TvSeededBugsTest, SwappedOperandsCleanTwinProves) {
  tv::TvReport Rep =
      tv::validateTranslation(diffModel(), diffSpec(), diffTarget(false));
  EXPECT_TRUE(Rep.proved()) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Defect 3: dropped store (the loop computes but never writes back).
//===----------------------------------------------------------------------===//

SourceFn incrModel() {
  // In-place map: every byte incremented (mod 256).
  FnBuilder FB("incr", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("s", mkMap("s", "b", w2b(addw(b2w(v("b")), cw(1)))));
  return std::move(FB).done(std::move(B).ret({"s"}));
}

sep::FnSpec incrSpec() {
  sep::FnSpec Spec("incr");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");
  return Spec;
}

Function incrTarget(bool DropStore) {
  Function F;
  F.Name = "incr";
  F.Args = {"s", "len"};
  bedrock::ExprPtr Addr = add(var("s"), var("i"));
  bedrock::CmdPtr Write = DropStore
                     ? set("dead", add(load(AccessSize::Byte, Addr), lit(1)))
                     : store(AccessSize::Byte, Addr,
                             add(load(AccessSize::Byte, Addr), lit(1)));
  F.Body = seqAll({set("i", lit(0)),
                   whileLoop(bin(BinOp::LtU, var("i"), var("len")),
                             seqAll({Write, set("i", add(var("i"), lit(1)))}))});
  return F;
}

TEST(TvSeededBugsTest, DroppedStoreRefuted) {
  tv::TvReport Rep =
      tv::validateTranslation(incrModel(), incrSpec(), incrTarget(true));
  ASSERT_TRUE(Rep.refuted()) << Rep.str();
  // The report names the model binding whose region writes are missing.
  EXPECT_NE(Rep.Reason.find("'s'"), std::string::npos) << Rep.Reason;
  EXPECT_NE(Rep.Reason.find("body."), std::string::npos) << Rep.Reason;
}

TEST(TvSeededBugsTest, DroppedStoreCleanTwinProves) {
  tv::TvReport Rep =
      tv::validateTranslation(incrModel(), incrSpec(), incrTarget(false));
  EXPECT_TRUE(Rep.proved()) << Rep.str();
  // The in-place array is the proved output channel.
  ASSERT_EQ(Rep.Outputs.size(), 1u);
  EXPECT_EQ(Rep.Outputs[0].Kind, "array");
}

//===----------------------------------------------------------------------===//
// The pipeline rejects a tampered compilation via the TV layer.
//===----------------------------------------------------------------------===//

TEST(TvSeededBugsTest, ValidatePipelineRejectsTamperedTarget) {
  programs::ProgramDef Def;
  Def.Name = "axpb";
  FnBuilder FB("axpb", Monad::Pure);
  FB.wordParam("x").wordParam("y");
  ProgBuilder B;
  B.let("r", addw(v("x"), v("y")));
  Def.Model = std::move(FB).done(std::move(B).ret({"r"}));
  Def.Spec = sep::FnSpec("axpb");
  Def.Spec.scalarArg("x").scalarArg("y").retScalar("r");

  // Tamper with the *code* only: the witness still replays, the static
  // analyzer still sees safe straight-line code — but the function now
  // computes x - y. Only the equivalence layers can see that.
  pipeline::TamperHook Tamper = [](const programs::ProgramDef &,
                                   core::CompileResult &R) {
    R.Fn.Body = set("r", sub(var("x"), var("y")));
  };
  std::vector<pipeline::ProgramOutcome> Bad =
      pipeline::certifyPrograms({&Def}, {}, nullptr, Tamper);
  ASSERT_TRUE(Bad[0].CompileOk) << Bad[0].CompileError;
  ASSERT_FALSE(Bad[0].ok());
  EXPECT_NE(Bad[0].ValidationError.find("translation validation"),
            std::string::npos)
      << Bad[0].ValidationError;

  // The untampered result passes the full pipeline.
  std::vector<pipeline::ProgramOutcome> Good =
      pipeline::certifyPrograms({&Def}, {});
  EXPECT_TRUE(Good[0].ok()) << Good[0].ValidationError;
}

} // namespace
