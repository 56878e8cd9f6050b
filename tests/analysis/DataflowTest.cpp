//===- tests/analysis/DataflowTest.cpp - Domain + solver unit tests -------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Unit tests of the dataflow engine and the two abstract domains on
// hand-built bedrock functions: must-intersection joins for definedness,
// and the symbolic domain's edge pruning (the analyzer's one reachability
// decision) and phi discipline (minting at joins, trivial-phi collapse,
// fixpoint convergence on counted, unbounded, nested and chained loops).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Domains.h"
#include "support/Budget.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::analysis;
using namespace relc::bedrock;

namespace {

Function mkFn(CmdPtr Body, std::vector<std::string> Args = {},
              std::vector<std::string> Rets = {}) {
  Function F;
  F.Name = "f";
  F.Args = std::move(Args);
  F.Rets = std::move(Rets);
  F.Body = std::move(Body);
  return F;
}

/// ABI for `f(s, len)`: s points at a byte array of len elements, with the
/// usual entry facts (length nonnegative and ABI-bounded).
AbiInfo byteArrayAbi() {
  AbiInfo Abi;
  Region R;
  R.K = Region::Kind::Array;
  R.Name = "s";
  R.EltBytes = 1;
  R.Extent = solver::ls("len_s");
  R.ClauseStr = "array s len";
  Abi.Regions.push_back(R);
  Abi.ArgRegion["s"] = 0;
  Abi.ArgTerm["len"] = solver::ls("len_s");
  Abi.EntryFacts.addGe0(solver::ls("len_s"), "length nonnegative");
  Abi.EntryFacts.addGe0(solver::lc(int64_t(1) << 32) - solver::ls("len_s"),
                        "ABI length bound");
  return Abi;
}

unsigned exitBlock(const Cfg &G) {
  for (const BasicBlock &B : G.blocks())
    if (B.T == BasicBlock::Term::Exit)
      return B.Id;
  ADD_FAILURE() << "no exit block";
  return 0;
}

//===----------------------------------------------------------------------===//
// InitDomain.
//===----------------------------------------------------------------------===//

TEST(DataflowTest, InitJoinIsIntersection) {
  // x defined on one arm only, z on both: at the join z must survive and
  // x must not.
  Function F = mkFn(seqAll({ifThenElse(bin(BinOp::LtU, var("n"), lit(4)),
                                       seqAll({set("x", lit(1)),
                                               set("z", lit(1))}),
                                       set("z", lit(2))),
                            set("out", lit(0))}),
                    {"n"});
  Cfg G = Cfg::build(F);
  InitDomain D(F);
  DataflowResult<InitDomain> R = runForward(G, D);
  ASSERT_TRUE(R.Converged);

  const auto &In = R.In[exitBlock(G)];
  ASSERT_TRUE(In.has_value());
  EXPECT_TRUE(In->Defined.count("z"));
  EXPECT_TRUE(In->Defined.count("n")) << "arguments start defined";
  EXPECT_FALSE(In->Defined.count("x"));
}

TEST(DataflowTest, InitUnsetKillsDefinedness) {
  Function F = mkFn(seqAll({set("x", lit(1)), unset("x")}));
  Cfg G = Cfg::build(F);
  InitDomain D(F);
  InitDomain::State S = D.entry();
  for (const CfgStmt &St : G.block(G.entry()).Stmts)
    D.transfer(G, G.block(G.entry()), St, S);
  EXPECT_FALSE(S.Defined.count("x"));
}

//===----------------------------------------------------------------------===//
// SymbolicDomain.
//===----------------------------------------------------------------------===//

TEST(DataflowTest, SymbolicJoinMintsAndCollapsesPhis) {
  Function F = mkFn(skip());
  Cfg G = Cfg::build(F);
  AbiInfo Abi;
  SymbolicDomain D(G, F, Abi);

  SymState A, B;
  A.Env["i"] = AbsVal::scalar(solver::lc(0));
  B.Env["i"] = AbsVal::scalar(solver::ls("k"));

  // Differing values merge into a block-keyed phi, and the phi comes with
  // its word fact (phi >= 0).
  SymState Into = A;
  EXPECT_TRUE(D.join(0, Into, B));
  auto It = Into.Env.find("i");
  ASSERT_NE(It, Into.Env.end());
  EXPECT_NE(It->second.T.str().find("phi$b0$i"), std::string::npos);
  solver::FactDb Db = D.materialize(Into);
  EXPECT_TRUE(Db.proveLe(solver::lc(0), It->second.T));

  // Trivial-phi collapse, phi(x, self) = x: a side that carries this
  // block's own phi contributes nothing new, so the merge resolves to the
  // other side instead of minting phi-of-phi.
  SymState Plain;
  Plain.Env["i"] = AbsVal::scalar(solver::lc(0));
  SymState HasPhi = Into;
  EXPECT_FALSE(D.join(0, Plain, HasPhi)); // 0 join self-phi stays 0.
  EXPECT_EQ(Plain.Env["i"].T.str(), solver::lc(0).str());
  EXPECT_TRUE(D.join(0, HasPhi, Plain)); // self-phi join 0 becomes 0.
  EXPECT_EQ(HasPhi.Env["i"].T.str(), solver::lc(0).str());

  // Equal states join without change.
  SymState C1 = A, C2 = A;
  EXPECT_FALSE(D.join(0, C1, C2));
}

TEST(DataflowTest, SymbolicConvergesOnCountedLoop) {
  Function F = mkFn(
      seqAll({set("i", lit(0)),
              whileLoop(bin(BinOp::LtU, var("i"), var("len")),
                        seqAll({store(AccessSize::Byte,
                                      add(var("s"), var("i")), lit(0)),
                                set("i", add(var("i"), lit(1)))}))}),
      {"s", "len"});
  Cfg G = Cfg::build(F);
  AbiInfo Abi = byteArrayAbi();
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  ASSERT_TRUE(R.Converged);
  EXPECT_LE(R.Iterations, 8u * unsigned(G.blocks().size()));

  // At the loop exit, i still carries its phi fact (i >= 0): the state
  // materializes into a database where that is provable.
  unsigned Exit = exitBlock(G);
  ASSERT_TRUE(R.In[Exit].has_value());
  auto It = R.In[Exit]->Env.find("i");
  ASSERT_NE(It, R.In[Exit]->Env.end());
  solver::FactDb Db = D.materialize(*R.In[Exit]);
  EXPECT_TRUE(Db.proveLe(solver::lc(0), It->second.T));
}

TEST(DataflowTest, SymbolicConvergesOnNestedLoops) {
  // Regression for the loop-restart path: an inner loop whose entry state
  // changes as the outer loop stabilizes must be re-seeded, not joined
  // against its stale back edge.
  Function F = mkFn(
      seqAll({set("i", lit(0)),
              whileLoop(
                  bin(BinOp::LtU, var("i"), var("len")),
                  seqAll({set("j", lit(0)),
                          whileLoop(bin(BinOp::LtU, var("j"), lit(4)),
                                    set("j", add(var("j"), lit(1)))),
                          set("i", add(var("i"), lit(1)))}))}),
      {"s", "len"});
  Cfg G = Cfg::build(F);
  AbiInfo Abi = byteArrayAbi();
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  EXPECT_TRUE(R.Converged);
}

TEST(DataflowTest, SymbolicPrunesConstantBranch) {
  // 7 <u 3 is statically false: the then-arm gets no input state at all,
  // so after the join x can only be 2.
  Function F = mkFn(seqAll({ifThenElse(bin(BinOp::LtU, lit(7), lit(3)),
                                       set("x", lit(1)),
                                       set("x", lit(2))),
                            set("out", var("x"))}));
  Cfg G = Cfg::build(F);
  AbiInfo Abi;
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  ASSERT_TRUE(R.Converged);

  const BasicBlock &E = G.block(G.entry());
  ASSERT_EQ(E.T, BasicBlock::Term::Branch);
  EXPECT_FALSE(R.In[E.TrueSucc].has_value()) << "infeasible arm reached";
  ASSERT_TRUE(R.In[E.FalseSucc].has_value());

  const auto &In = R.In[exitBlock(G)];
  ASSERT_TRUE(In.has_value());
  auto It = In->Env.find("x");
  ASSERT_NE(It, In->Env.end());
  EXPECT_EQ(It->second.T.str(), solver::lc(2).str());
}

TEST(DataflowTest, SymbolicPrunesMaskedIndexElseArm) {
  // (x & 255) <u 256 always holds: the `x & y <= y` fact bounds the mask
  // by 255, so the else-arm's refinement (mask >= 256) is inconsistent.
  Function F = mkFn(
      seqAll({ifThenElse(bin(BinOp::LtU,
                             bin(BinOp::And, var("x"), lit(255)), lit(256)),
                         set("y", lit(1)), set("y", lit(2))),
              set("out", var("y"))}),
      {"x"});
  Cfg G = Cfg::build(F);
  AbiInfo Abi;
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  ASSERT_TRUE(R.Converged);

  const BasicBlock &E = G.block(G.entry());
  ASSERT_EQ(E.T, BasicBlock::Term::Branch);
  EXPECT_TRUE(R.In[E.TrueSucc].has_value());
  EXPECT_FALSE(R.In[E.FalseSucc].has_value()) << "infeasible arm reached";

  const auto &In = R.In[exitBlock(G)];
  ASSERT_TRUE(In.has_value());
  auto It = In->Env.find("y");
  ASSERT_NE(It, In->Env.end());
  EXPECT_EQ(It->second.T.str(), solver::lc(1).str());
}

TEST(DataflowTest, SymbolicConvergesOnUnboundedCounter) {
  // A counter with no usable bound: i + 1 cannot be proved not to wrap, so
  // the body yields an opaque site-keyed symbol. The header's phi must
  // absorb it instead of growing a new value on every visit.
  Function F = mkFn(seqAll({set("i", lit(0)),
                            whileLoop(bin(BinOp::Ne, var("i"), var("n")),
                                      set("i", add(var("i"), lit(1))))}),
                    {"n"});
  Cfg G = Cfg::build(F);
  AbiInfo Abi;
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  EXPECT_TRUE(R.Converged);
  EXPECT_LE(R.Iterations, 16u * unsigned(G.blocks().size()));
}

TEST(DataflowTest, SymbolicConvergesOnLoopChain) {
  // Regression: a changed loop entry restarts the loop, and each loop's
  // exit state is the next loop's entry; the restarts must not cascade
  // into visits that multiply along the chain. Five counted loops in a
  // row converge comfortably under the cap.
  std::vector<CmdPtr> Cmds;
  for (int L = 0; L < 5; ++L) {
    std::string I = "i" + std::to_string(L);
    Cmds.push_back(set(I, lit(0)));
    Cmds.push_back(whileLoop(bin(BinOp::LtU, var(I), var("len")),
                             set(I, add(var(I), lit(1)))));
  }
  Function F = mkFn(seqAll(std::move(Cmds)), {"s", "len"});
  Cfg G = Cfg::build(F);
  AbiInfo Abi = byteArrayAbi();
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  EXPECT_TRUE(R.Converged);
  EXPECT_LE(R.Iterations, 8u * unsigned(G.blocks().size()));
  EXPECT_TRUE(R.In[exitBlock(G)].has_value());
}

TEST(DataflowTest, SymbolicEdgeRefinementProvesGuard) {
  // Inside `while (i <u len)`, the guard fact makes i+1 <= len provable —
  // exactly the obligation of a byte store at s+i.
  Function F = mkFn(
      seqAll({set("i", lit(0)),
              whileLoop(bin(BinOp::LtU, var("i"), var("len")),
                        set("i", add(var("i"), lit(1))))}),
      {"s", "len"});
  Cfg G = Cfg::build(F);
  AbiInfo Abi = byteArrayAbi();
  SymbolicDomain D(G, F, Abi);
  DataflowResult<SymbolicDomain> R = runForward(G, D);
  ASSERT_TRUE(R.Converged);

  const BasicBlock *Header = nullptr;
  for (const BasicBlock &B : G.blocks())
    if (B.IsLoopHeader)
      Header = &B;
  ASSERT_NE(Header, nullptr);
  unsigned BodyId = Header->TrueSucc;
  ASSERT_TRUE(R.In[BodyId].has_value());
  const SymState &S = *R.In[BodyId];
  solver::FactDb Db = D.materialize(S);
  auto It = S.Env.find("i");
  ASSERT_NE(It, S.Env.end());
  EXPECT_TRUE(Db.proveLe(It->second.T + solver::lc(1), solver::ls("len_s")))
      << "guard refinement must bound i by the array length";
}

TEST(DataflowTest, MaterializedFactsChargeTheEntryBudget) {
  // z <= x follows from x >= y >= z only by elimination: no fact bounds a
  // single symbol by a constant, so the interval fast path cannot see it.
  // A database materialized from a state must charge the budget the entry
  // facts carry, and so answer "cannot refute" once it has run out.
  Function F = mkFn(skip());
  Cfg G = Cfg::build(F);
  AbiInfo Abi;
  guard::Budget B(/*DeadlineMs=*/0, /*StepLimit=*/1000);
  Abi.EntryFacts.setBudget(&B);
  SymbolicDomain D(G, F, Abi);
  SymState S;
  S.addFact(solver::ls("x") - solver::ls("y"), "x >= y");
  S.addFact(solver::ls("y") - solver::ls("z"), "y >= z");
  EXPECT_TRUE(D.materialize(S).entailsLe(solver::ls("z"), solver::ls("x")));
  EXPECT_GT(B.stepsUsed(), 0u) << "the query must charge the budget";

  while (B.step()) {
  }
  ASSERT_TRUE(B.exhausted());
  EXPECT_FALSE(D.materialize(S).entailsLe(solver::ls("z"), solver::ls("x")))
      << "an exhausted budget must make the query answer 'cannot refute'";
}

} // namespace
