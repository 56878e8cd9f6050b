//===- tests/bedrock/InterpTest.cpp - Target semantics ---------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "bedrock/Interp.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::bedrock;

namespace {

/// Builds a one-function module and calls it.
Result<RunResult> runIt(Function Fn, const std::vector<Word> &Args,
                        TapeEnv &Env,
                        std::function<Status(State &)> Setup = nullptr,
                        ExecOptions Opts = {}) {
  Module M;
  M.Functions.push_back(std::move(Fn));
  return runFunction(
      M, M.Functions[0].Name, Args, Env,
      [&](State &S, std::vector<Word> &) {
        return Setup ? Setup(S) : Status::success();
      },
      Opts);
}

TEST(BedrockInterpTest, StraightLineArithmetic) {
  Function F;
  F.Name = "f";
  F.Args = {"x"};
  F.Rets = {"r"};
  F.Body = seqAll({set("t", mul(var("x"), lit(3))),
                   set("r", add(var("t"), lit(4)))});
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {10}, Env);
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_EQ(R->Rets, (std::vector<Word>{34}));
}

TEST(BedrockInterpTest, BinOpSemantics) {
  EXPECT_EQ(evalBinOp(BinOp::DivU, 7, 0), ~Word(0));
  EXPECT_EQ(evalBinOp(BinOp::RemU, 7, 0), 7u);
  EXPECT_EQ(evalBinOp(BinOp::Shl, 1, 64), 1u); // Mod 64.
  EXPECT_EQ(evalBinOp(BinOp::AShr, ~Word(0), 8), ~Word(0));
  EXPECT_EQ(evalBinOp(BinOp::LtS, ~Word(0), 0), 1u);
  EXPECT_EQ(evalBinOp(BinOp::LtU, ~Word(0), 0), 0u);
}

TEST(BedrockInterpTest, WhileLoopSumsRange) {
  // r = 0; i = 0; while (i < n) { r += i; i += 1 }
  Function F;
  F.Name = "sum";
  F.Args = {"n"};
  F.Rets = {"r"};
  F.Body = seqAll(
      {set("r", lit(0)), set("i", lit(0)),
       whileLoop(bin(BinOp::LtU, var("i"), var("n")),
                 seqAll({set("r", add(var("r"), var("i"))),
                         set("i", add(var("i"), lit(1)))}))});
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {10}, Env);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Rets[0], 45u);
}

TEST(BedrockInterpTest, NonterminatingLoopRunsOutOfFuel) {
  Function F;
  F.Name = "spin";
  F.Rets = {};
  F.Body = whileLoop(lit(1), skip());
  TapeEnv Env;
  ExecOptions Opts;
  Opts.Fuel = 1000;
  Result<RunResult> R = runIt(F, {}, Env, nullptr, Opts);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("fuel"), std::string::npos);
}

TEST(BedrockInterpTest, LoadsAndStoresGoThroughMemory) {
  Function F;
  F.Name = "bump";
  F.Args = {"p"};
  F.Rets = {"old"};
  F.Body = seqAll({set("old", load(AccessSize::Byte, var("p"))),
                   store(AccessSize::Byte, var("p"),
                         add(var("old"), lit(1)))});
  Module M;
  M.Functions.push_back(F);
  State S;
  Word Base = S.Mem.alloc(1);
  ASSERT_TRUE(bool(S.Mem.fill(Base, {41})));
  TapeEnv Env;
  Interp I(M, Env);
  Result<std::vector<Word>> R = I.callFunction(S, "bump", {Base});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0], 41u);
  EXPECT_EQ(*S.Mem.loadByte(Base), 42);
}

TEST(BedrockInterpTest, WildStoreIsAnError) {
  Function F;
  F.Name = "wild";
  F.Rets = {};
  F.Body = store(AccessSize::Byte, lit(0x10), lit(1));
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {}, Env);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("out of bounds"), std::string::npos);
}

TEST(BedrockInterpTest, UndefinedLocalIsAnError) {
  Function F;
  F.Name = "f";
  F.Rets = {"r"};
  F.Body = set("r", var("ghost"));
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {}, Env);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("undefined local"), std::string::npos);
}

TEST(BedrockInterpTest, CallPassesArgsAndReturns) {
  Function Callee;
  Callee.Name = "sq";
  Callee.Args = {"x"};
  Callee.Rets = {"y"};
  Callee.Body = set("y", mul(var("x"), var("x")));
  Function Caller;
  Caller.Name = "main";
  Caller.Args = {"a"};
  Caller.Rets = {"r"};
  Caller.Body =
      seqAll({call({"t"}, "sq", {var("a")}), set("r", add(var("t"), lit(1)))});
  Module M;
  M.Functions = {Callee, Caller};
  State S;
  TapeEnv Env;
  Interp I(M, Env);
  Result<std::vector<Word>> R = I.callFunction(S, "main", {6});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0], 37u);
}

TEST(BedrockInterpTest, CalleeLocalsAreFunctionScoped) {
  Function Callee;
  Callee.Name = "clobber";
  Callee.Rets = {"x"};
  Callee.Body = set("x", lit(99)); // Same local name as the caller's.
  Function Caller;
  Caller.Name = "main";
  Caller.Rets = {"r"};
  Caller.Body = seqAll({set("x", lit(1)), call({"y"}, "clobber", {}),
                        set("r", var("x"))});
  Module M;
  M.Functions = {Callee, Caller};
  State S;
  TapeEnv Env;
  Interp I(M, Env);
  Result<std::vector<Word>> R = I.callFunction(S, "main", {});
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0], 1u); // Caller's x untouched.
}

TEST(BedrockInterpTest, MissingReturnLocalIsAnError) {
  Function F;
  F.Name = "f";
  F.Rets = {"never_set"};
  F.Body = skip();
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {}, Env);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("never_set"), std::string::npos);
}

TEST(BedrockInterpTest, StackallocScopesAndReclaims) {
  Function F;
  F.Name = "f";
  F.Rets = {"r"};
  F.Body = stackalloc(
      "p", 8,
      seqAll({store(AccessSize::Eight, var("p"), lit(777)),
              set("r", load(AccessSize::Eight, var("p")))}));
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {}, Env);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Rets[0], 777u);
  EXPECT_EQ(R->Final.Mem.liveAllocations(), 0u); // Reclaimed at scope end.
}

TEST(BedrockInterpTest, StackallocContentsAreNondeterministic) {
  Function F;
  F.Name = "peek";
  F.Rets = {"r"};
  F.Body = stackalloc("p", 8, set("r", load(AccessSize::Eight, var("p"))));
  Module M;
  M.Functions.push_back(F);
  TapeEnv Env;
  ExecOptions A, B;
  A.NondetSeed = 1;
  B.NondetSeed = 2;
  State S1, S2;
  Interp I1(M, Env, A), I2(M, Env, B);
  Result<std::vector<Word>> R1 = I1.callFunction(S1, "peek", {});
  Result<std::vector<Word>> R2 = I2.callFunction(S2, "peek", {});
  ASSERT_TRUE(bool(R1) && bool(R2));
  EXPECT_NE((*R1)[0], (*R2)[0]); // Depends on the oracle.
}

TEST(BedrockInterpTest, InteractRecordsTraceAndUsesEnv) {
  Function F;
  F.Name = "echo";
  F.Rets = {"x"};
  F.Body = seqAll({interact({"x"}, "read", {}),
                   interact({}, "write", {add(var("x"), lit(1))})});
  TapeEnv Env({41});
  Result<RunResult> R = runIt(F, {}, Env);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->Rets[0], 41u);
  ASSERT_EQ(R->Final.Tr.size(), 2u);
  EXPECT_EQ(R->Final.Tr[0].Action, "read");
  EXPECT_EQ(R->Final.Tr[0].Rets, (std::vector<Word>{41}));
  EXPECT_EQ(R->Final.Tr[1].Action, "write");
  EXPECT_EQ(R->Final.Tr[1].Args, (std::vector<Word>{42}));
  EXPECT_EQ(Env.output(), (std::vector<Word>{42}));
}

TEST(BedrockInterpTest, InlineTableReads) {
  Function F;
  F.Name = "lut";
  F.Args = {"i"};
  F.Rets = {"r"};
  F.Tables.push_back(InlineTable{"t", AccessSize::Four, {10, 20, 30}});
  F.Body = set("r", tableGet(AccessSize::Four, "t", var("i")));
  TapeEnv Env;
  Result<RunResult> Ok = runIt(F, {2}, Env);
  ASSERT_TRUE(bool(Ok));
  EXPECT_EQ(Ok->Rets[0], 30u);
  Result<RunResult> Oob = runIt(F, {3}, Env);
  EXPECT_FALSE(bool(Oob)); // Out-of-bounds table read is a runtime error.
}

TEST(BedrockInterpTest, RunawayRecursionIsCaught) {
  Function F;
  F.Name = "loop";
  F.Rets = {};
  F.Body = call({}, "loop", {});
  TapeEnv Env;
  Result<RunResult> R = runIt(F, {}, Env);
  EXPECT_FALSE(bool(R));
}

/// The full text (message and note chain) of a run of function \p Name of
/// \p M that must fail.
std::string failureText(const Module &M, const std::string &Name,
                        const std::vector<Word> &Args = {},
                        ExecOptions Opts = {}) {
  TapeEnv Env;
  Result<RunResult> R = runFunction(M, Name, Args, Env, nullptr, Opts);
  EXPECT_FALSE(bool(R));
  return R ? std::string() : R.error().str();
}

Module oneFunction(Function Fn) {
  Module M;
  M.Functions.push_back(std::move(Fn));
  return M;
}

TEST(BedrockInterpTest, UndefinedLocalTextIsPinned) {
  Function F;
  F.Name = "f";
  F.Rets = {"r"};
  F.Body = seqAll({set("t", lit(1)), set("r", add(var("t"), var("ghost")))});
  EXPECT_EQ(failureText(oneFunction(std::move(F)), "f"),
            "read of undefined local 'ghost'\n"
            "  note: in r = (t + ghost)\n"
            "  note: in function f");
}

TEST(BedrockInterpTest, ReadAfterUnsetTextIsPinned) {
  Function F;
  F.Name = "f";
  F.Args = {"a"};
  F.Rets = {"r"};
  F.Body = seqAll({set("x", var("a")), unset("x"), set("r", var("x"))});
  EXPECT_EQ(failureText(oneFunction(std::move(F)), "f", {5}),
            "read of undefined local 'x'\n"
            "  note: in r = x\n"
            "  note: in function f");
}

TEST(BedrockInterpTest, StackallocBinderIsUndefinedAfterItsScope) {
  Function F;
  F.Name = "f";
  F.Rets = {"r"};
  F.Body = seqAll({stackalloc("p", 8, store(AccessSize::Eight, var("p"),
                                            lit(3))),
                   set("r", var("p"))});
  EXPECT_EQ(failureText(oneFunction(std::move(F)), "f"),
            "read of undefined local 'p'\n"
            "  note: in r = p\n"
            "  note: in function f");
}

TEST(BedrockInterpTest, CalleeCannotReadItsCallersLocals) {
  Function Callee;
  Callee.Name = "peek";
  Callee.Rets = {"y"};
  Callee.Body = set("y", var("x"));
  Function Caller;
  Caller.Name = "main";
  Caller.Rets = {"r"};
  Caller.Body = seqAll({set("x", lit(1)), call({"r"}, "peek", {})});
  Module M;
  M.Functions = {Callee, Caller};
  EXPECT_EQ(failureText(M, "main"), "read of undefined local 'x'\n"
                                    "  note: in y = x\n"
                                    "  note: in function peek\n"
                                    "  note: in call to peek\n"
                                    "  note: in function main");
}

TEST(BedrockInterpTest, MissingReturnLocalTextIsPinned) {
  Function Callee;
  Callee.Name = "g";
  Callee.Args = {"a"};
  Callee.Rets = {"b", "never_set"};
  Callee.Body = set("b", var("a"));
  Function Caller;
  Caller.Name = "main";
  Caller.Rets = {"r"};
  Caller.Body = call({"r", "s"}, "g", {lit(2)});
  Module M;
  M.Functions = {Callee, Caller};
  EXPECT_EQ(failureText(M, "main"),
            "function g ended without setting return 'never_set'\n"
            "  note: in call to g\n"
            "  note: in function main");
  Function Top;
  Top.Name = "f";
  Top.Rets = {"never_set"};
  Top.Body = skip();
  EXPECT_EQ(failureText(oneFunction(std::move(Top)), "f"),
            "function f ended without setting return 'never_set'");
}

TEST(BedrockInterpTest, OutOfFuelTextsArePinned) {
  Function Spin;
  Spin.Name = "spin";
  Spin.Body = whileLoop(lit(1), skip());
  Module M = oneFunction(std::move(Spin));
  // The loop charges one step on entry and one per iteration, and its
  // body one more: odd fuel runs out in the body, even fuel at the loop.
  ExecOptions Opts;
  Opts.Fuel = 1000;
  EXPECT_EQ(failureText(M, "spin", {}, Opts),
            "out of fuel (nonterminating or excessively long run)\n"
            "  note: in function spin");
  Opts.Fuel = 1001;
  EXPECT_EQ(failureText(M, "spin", {}, Opts),
            "out of fuel in while loop\n"
            "  note: in function spin");
  Function Line;
  Line.Name = "line";
  Line.Rets = {"r"};
  Line.Body = seqAll({set("a", lit(1)), set("b", lit(2)),
                      set("r", add(var("a"), var("b")))});
  Opts.Fuel = 3;
  EXPECT_EQ(failureText(oneFunction(std::move(Line)), "line", {}, Opts),
            "out of fuel (nonterminating or excessively long run)\n"
            "  note: in function line");
}

TEST(BedrockInterpTest, LocalsSurviveACallAndFuelIsCounted) {
  // The caller's locals are back after the call, the callee's are gone,
  // and fuel counts every statement step of both.
  Function Callee;
  Callee.Name = "inc";
  Callee.Args = {"x"};
  Callee.Rets = {"y"};
  Callee.Body = seqAll({set("t", lit(1)), set("y", add(var("x"), var("t")))});
  Function Caller;
  Caller.Name = "main";
  Caller.Args = {"a"};
  Caller.Rets = {"r"};
  Caller.Body = seqAll({set("t", lit(40)), call({"u"}, "inc", {var("a")}),
                        set("r", add(var("t"), var("u")))});
  Module M;
  M.Functions = {Callee, Caller};
  TapeEnv Env;
  Result<RunResult> R = runFunction(M, "main", {1}, Env, nullptr);
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_EQ(R->Rets, (std::vector<Word>{42}));
  EXPECT_EQ(R->FuelUsed, 8u);
}

} // namespace
