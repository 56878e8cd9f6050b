//===- tests/ir/InterpTest.cpp - FunLang reference semantics ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"
#include "ir/Interp.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace relc;
using namespace relc::ir;

namespace {

std::vector<Value> run(const SourceFn &Fn, std::vector<Value> Args,
                       EffectCtx &Ctx) {
  Result<std::vector<Value>> R = evalFn(Fn, Args, Ctx);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  return R ? R.take() : std::vector<Value>{};
}

TEST(InterpTest, LetChainThreadsBindings) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("y", addw(v("x"), cw(1))).let("z", mulw(v("y"), v("y")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"z", "y"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {Value::word(4)}, Ctx);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].asWord(), 25u);
  EXPECT_EQ(Out[1].asWord(), 5u);
}

TEST(InterpTest, ShadowingRebindsName) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("x", addw(v("x"), cw(1))).let("x", addw(v("x"), cw(1)));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  EffectCtx Ctx;
  EXPECT_EQ(run(Fn, {Value::word(0)}, Ctx)[0].asWord(), 2u);
}

TEST(InterpTest, ListMapIsFunctional) {
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("t", mkMap("s", "b", w2b(addw(b2w(v("b")), cw(1)))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"t", "s"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {Value::byteList({1, 2, 3})}, Ctx);
  EXPECT_EQ(Out[0].asBytes(), (std::vector<uint8_t>{2, 3, 4}));
  // The original list is unchanged: map is pure at the source level.
  EXPECT_EQ(Out[1].asBytes(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(InterpTest, ListFoldAccumulates) {
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("sum", mkFold("s", "sum", "b", cw(0), addw(v("sum"), b2w(v("b")))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"sum"}));
  EffectCtx Ctx;
  EXPECT_EQ(run(Fn, {Value::byteList({10, 20, 30})}, Ctx)[0].asWord(), 60u);
}

TEST(InterpTest, FoldBreakStopsEarly) {
  // Sum bytes until the accumulator reaches 100.
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("sum", mkFoldBreak("s", "sum", "b", cw(0),
                           addw(v("sum"), b2w(v("b"))),
                           ltu(cw(99), v("sum"))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"sum"}));
  EffectCtx Ctx;
  // 60 + 60 = 120 >= 100: the third element is never consumed.
  EXPECT_EQ(run(Fn, {Value::byteList({60, 60, 60})}, Ctx)[0].asWord(), 120u);
  EffectCtx Ctx2;
  // Never breaks: plain fold.
  EXPECT_EQ(run(Fn, {Value::byteList({1, 2, 3})}, Ctx2)[0].asWord(), 6u);
  EffectCtx Ctx3;
  EXPECT_EQ(run(Fn, {Value::byteList({})}, Ctx3)[0].asWord(), 0u);
}

TEST(InterpTest, ArrayPutUpdatesOneSlot) {
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("s", mkPut("s", cw(1), cb(99)));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  EffectCtx Ctx;
  EXPECT_EQ(run(Fn, {Value::byteList({1, 2, 3})}, Ctx)[0].asBytes(),
            (std::vector<uint8_t>{1, 99, 3}));
}

TEST(InterpTest, RangeFoldThreadsMultipleAccs) {
  // (sum, prod) over i in [1, 6).
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder Body;
  Body.let("sum", addw(v("sum"), v("i"))).let("prod", mulw(v("prod"), v("i")));
  ProgBuilder B;
  B.letMulti({"sum", "prod"},
             mkRange("i", cw(1), cw(6), {acc("sum", cw(0)), acc("prod", cw(1))},
                     std::move(Body).ret({"sum", "prod"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"sum", "prod"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {}, Ctx);
  EXPECT_EQ(Out[0].asWord(), 15u);
  EXPECT_EQ(Out[1].asWord(), 120u);
}

TEST(InterpTest, RangeFoldEmptyWhenLoGeHi) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("n");
  ProgBuilder Body;
  Body.let("c", addw(v("c"), cw(1)));
  ProgBuilder B;
  B.letMulti({"c"}, mkRange("i", v("n"), cw(3), {acc("c", cw(0))},
                            std::move(Body).ret({"c"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"c"}));
  EffectCtx Ctx;
  EXPECT_EQ(run(Fn, {Value::word(10)}, Ctx)[0].asWord(), 0u);
}

TEST(InterpTest, WhileRunsUntilCondFalse) {
  // Collatz-free: halve until zero, counting steps; measure is x itself.
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x0");
  ProgBuilder Body;
  Body.let("x", shrw(v("x"), cw(1))).let("n", addw(v("n"), cw(1)));
  ProgBuilder B;
  B.letMulti({"x", "n"},
             mkWhile({acc("x", v("x0")), acc("n", cw(0))},
                     nez(v("x")), std::move(Body).ret({"x", "n"}), v("x")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"n"}));
  EffectCtx Ctx;
  EXPECT_EQ(run(Fn, {Value::word(255)}, Ctx)[0].asWord(), 8u);
  EffectCtx Ctx2;
  EXPECT_EQ(run(Fn, {Value::word(0)}, Ctx2)[0].asWord(), 0u);
}

TEST(InterpTest, WhileMeasureViolationIsAnError) {
  // Body does not decrease the declared measure: totality check fires.
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder Body;
  Body.let("x", addw(v("x"), cw(1)));
  ProgBuilder B;
  B.letMulti({"x"}, mkWhile({acc("x", cw(1))}, nez(v("x")),
                            std::move(Body).ret({"x"}), v("x")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  EffectCtx Ctx;
  Result<std::vector<Value>> R = evalFn(Fn, {}, Ctx);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().str(),
            "while measure did not strictly decrease (1 -> 2)\n"
            "  note: in let/n x := while (x <>? 0) {x := 1} {measure x}");
}

TEST(InterpTest, IfBoundSelectsBranchProgram) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder Then;
  Then.let("r", cw(1));
  ProgBuilder Else;
  Else.let("r", cw(0));
  ProgBuilder B;
  B.letMulti({"r"}, mkIf(ltu(v("x"), cw(10)), std::move(Then).ret({"r"}),
                         std::move(Else).ret({"r"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  EffectCtx C1, C2;
  EXPECT_EQ(run(Fn, {Value::word(5)}, C1)[0].asWord(), 1u);
  EXPECT_EQ(run(Fn, {Value::word(50)}, C2)[0].asWord(), 0u);
}

TEST(InterpTest, StackInitHasGivenContents) {
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder B;
  B.let("buf", mkStack({9, 8, 7})).let("x", b2w(aget("buf", cw(2))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  EffectCtx Ctx;
  EXPECT_EQ(run(Fn, {}, Ctx)[0].asWord(), 7u);
}

TEST(InterpTest, StackUninitDrawsFromOracle) {
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder B;
  B.let("buf", mkStackUninit(4)).let("x", b2w(aget("buf", cw(0))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  EffectCtx A, B2;
  A.Nondet = Rng(1);
  B2.Nondet = Rng(2);
  // Different oracles give (almost surely) different junk — the property
  // the determinism check of validation rests on.
  uint64_t VA = run(Fn, {}, A)[0].asWord();
  uint64_t VB = run(Fn, {}, B2)[0].asWord();
  EXPECT_NE(VA, VB);
}

TEST(InterpTest, IoMonadReadsTapeAndLogs) {
  FnBuilder FB("f", Monad::Io);
  ProgBuilder B;
  B.let("a", mkIoRead())
      .let("b", mkIoRead())
      .let("_", mkIoWrite(addw(v("a"), v("b"))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"a"}));
  EffectCtx Ctx;
  Ctx.InputTape = {10, 32};
  run(Fn, {}, Ctx);
  EXPECT_EQ(Ctx.Output, (std::vector<uint64_t>{42}));
  ASSERT_EQ(Ctx.IoLog.size(), 3u);
  EXPECT_EQ(Ctx.IoLog[0], (std::pair<char, uint64_t>{'r', 10}));
  EXPECT_EQ(Ctx.IoLog[1], (std::pair<char, uint64_t>{'r', 32}));
  EXPECT_EQ(Ctx.IoLog[2], (std::pair<char, uint64_t>{'w', 42}));
}

TEST(InterpTest, ReadingPastTheTapeYieldsZero) {
  FnBuilder FB("f", Monad::Io);
  ProgBuilder B;
  B.let("a", mkIoRead());
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"a"}));
  EffectCtx Ctx; // Empty tape.
  EXPECT_EQ(run(Fn, {}, Ctx)[0].asWord(), 0u);
}

TEST(InterpTest, WriterAccumulatesInOrder) {
  FnBuilder FB("f", Monad::Writer);
  FB.wordParam("k");
  ProgBuilder B;
  B.let("_1", mkTell(v("k"))).let("_2", mkTell(mulw(v("k"), cw(2))));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"k"}));
  EffectCtx Ctx;
  run(Fn, {Value::word(21)}, Ctx);
  EXPECT_EQ(Ctx.Output, (std::vector<uint64_t>{21, 42}));
}

TEST(InterpTest, CellsGetPutIncr) {
  FnBuilder FB("f", Monad::Pure);
  FB.cellParam("c");
  ProgBuilder B;
  B.let("x", mkCellGet("c"))
      .let("c", mkCellIncr("c", cw(5)))
      .let("y", mkCellGet("c"))
      .let("c", mkCellPut("c", mulw(v("y"), cw(2))))
      .let("z", mkCellGet("c"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x", "z", "c"}));
  EffectCtx Ctx;
  std::vector<Value> Out =
      run(Fn, {Value::list(EltKind::U64, {Value::word(10)})}, Ctx);
  EXPECT_EQ(Out[0].asWord(), 10u);
  EXPECT_EQ(Out[1].asWord(), 30u);
  EXPECT_EQ(Out[2].elems()[0].asWord(), 30u);
}

TEST(InterpTest, NondetAllocLengthIsFixed) {
  FnBuilder FB("f", Monad::Nondet);
  ProgBuilder B;
  B.let("buf", mkNondetAlloc(16));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"buf"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {}, Ctx);
  EXPECT_EQ(Out[0].elems().size(), 16u); // λ l ⇒ length l = n.
}

TEST(InterpTest, ExternCallUsesRegisteredSemantics) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.letMulti({"y"}, mkCall("double", {v("x")}, 1))
      .let("r", addw(v("y"), cw(1)));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  EffectCtx Ctx;
  Ctx.ExternSem = [](const std::string &Name, const std::vector<Value> &As)
      -> Result<std::vector<Value>> {
    if (Name != "double")
      return Error("unknown");
    return std::vector<Value>{Value::word(As[0].asWord() * 2)};
  };
  EXPECT_EQ(run(Fn, {Value::word(20)}, Ctx)[0].asWord(), 41u);
}

TEST(InterpTest, FuelBoundsRunawayEvaluation) {
  // A while loop that keeps its measure decreasing for 2^63 steps would
  // exhaust any budget; fuel turns it into an error instead of a hang.
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder Body;
  Body.let("x", subw(v("x"), cw(1)));
  ProgBuilder B;
  B.letMulti({"x"}, mkWhile({acc("x", cw(uint64_t(1) << 40))}, nez(v("x")),
                            std::move(Body).ret({"x"}), v("x")));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"x"}));
  EffectCtx Ctx;
  EvalOptions Opts;
  Opts.Fuel = 10'000;
  Result<std::vector<Value>> R = evalFn(Fn, {}, Ctx, Opts);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().str(), "out of fuel\n"
            "  note: in let/n x := while (x <>? 0) {x := 0x10000000000} "
            "{measure x}");
}

TEST(InterpTest, UnboundVariableInRangedForBodyIsNamed) {
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder Body;
  Body.let("c", addw(v("c"), v("ghost")));
  ProgBuilder B;
  B.letMulti({"c"}, mkRange("i", cw(0), cw(3), {acc("c", cw(0))},
                            std::move(Body).ret({"c"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"c"}));
  EffectCtx Ctx;
  Result<std::vector<Value>> R = evalFn(Fn, {}, Ctx);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().str(), "unbound variable 'ghost'\n"
            "  note: in let/n c := (c + ghost)\n"
            "  note: in let/n c := ranged_for 0 3 (fun i => ...) {c := 0}");
}

TEST(InterpTest, UnboundReturnInIfBranchIsNamed) {
  // The then-branch returns a name it never binds; nothing outside binds
  // it either, and the else-branch's binding must not leak into the then.
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder Then;
  Then.let("q", cw(1));
  ProgBuilder Else;
  Else.let("r", cw(0));
  ProgBuilder B;
  B.letMulti({"r"}, mkIf(ltu(v("x"), cw(10)), std::move(Then).ret({"r"}),
                         std::move(Else).ret({"r"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  EffectCtx C1, C2;
  EXPECT_EQ(run(Fn, {Value::word(50)}, C1)[0].asWord(), 0u);
  Result<std::vector<Value>> R = evalFn(Fn, {Value::word(5)}, C2);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().str(), "returned variable 'r' is unbound\n"
            "  note: in let/n r := if (x <? 10) then (...) else (...)");
}

TEST(InterpTest, LoopBodySeesOuterBindingEveryIteration) {
  // The body reads x before rebinding it: every iteration sees the outer
  // x, never the previous iteration's, and the outer x survives the loop.
  FnBuilder FB("f", Monad::Pure);
  ProgBuilder Body;
  Body.let("h", addw(v("h"), v("x"))).let("x", addw(v("x"), cw(1)));
  ProgBuilder B;
  B.let("x", cw(10)).letMulti(
      {"h"}, mkRange("i", cw(0), cw(3), {acc("h", cw(0))},
                     std::move(Body).ret({"h"})));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"h", "x"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {}, Ctx);
  EXPECT_EQ(Out[0].asWord(), 30u);
  EXPECT_EQ(Out[1].asWord(), 10u);
}

TEST(InterpTest, FoldAndMapParamsMayShadowTheWalkedList) {
  // fold (fun s b => s + b) s 0 and map (fun s => s + 1) s: the
  // parameter bindings must not disturb the list being walked.
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("t", mkMap("s", "s", w2b(addw(b2w(v("s")), cw(1)))))
      .let("sum", mkFold("s", "s", "b", cw(0), addw(v("s"), b2w(v("b")))))
      .let("last", mkFold("s", "a", "s", cw(0), b2w(v("s"))));
  SourceFn Fn =
      std::move(FB).done(std::move(B).ret({"t", "sum", "last", "s"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {Value::byteList({1, 2, 3})}, Ctx);
  EXPECT_EQ(Out[0].asBytes(), (std::vector<uint8_t>{2, 3, 4}));
  EXPECT_EQ(Out[1].asWord(), 6u);
  EXPECT_EQ(Out[2].asWord(), 3u);
  EXPECT_EQ(Out[3].asBytes(), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(InterpTest, PutAfterCopyLeavesTheCopyUnchanged) {
  // c := copy s; s := put s 0 99; d := copy s; d := put d 1 77: each put
  // changes only the list it names.
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("c", mkCopy("s"))
      .let("s", mkPut("s", cw(0), cb(99)))
      .let("d", mkCopy("s"))
      .let("d", mkPut("d", cw(1), cb(77)));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s", "c", "d"}));
  EffectCtx Ctx;
  std::vector<Value> Out = run(Fn, {Value::byteList({1, 2, 3})}, Ctx);
  EXPECT_EQ(Out[0].asBytes(), (std::vector<uint8_t>{99, 2, 3}));
  EXPECT_EQ(Out[1].asBytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(Out[2].asBytes(), (std::vector<uint8_t>{99, 77, 3}));
}

TEST(InterpTest, PutOnAListArgumentLeavesTheCallersValueUnchanged) {
  FnBuilder FB("f", Monad::Pure);
  FB.listParam("s", EltKind::U8);
  ProgBuilder B;
  B.let("s", mkPut("s", cw(2), cb(99)));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"s"}));
  const std::vector<Value> Args = {Value::byteList({1, 2, 3})};
  EffectCtx Ctx;
  Result<std::vector<Value>> R = evalFn(Fn, Args, Ctx);
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_EQ((*R)[0].asBytes(), (std::vector<uint8_t>{1, 2, 99}));
  EXPECT_EQ(Args[0].asBytes(), (std::vector<uint8_t>{1, 2, 3}));
}

} // namespace
