//===- analysis/TargetFacts.cpp - Shared target-side facts ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/TargetFacts.h"

namespace relc {
namespace analysis {

using namespace bedrock;
using solver::lc;
using Kind = ReplayFinding::Kind;

namespace {

/// Calls \p Fn for every variable whose value can flow into \p E's result.
/// Unlike bedrock::forEachVar, it does not descend into a Load's address
/// or a TableGet's index: those only select the word that is read, and a
/// loaded word is memory contents. For memory to hold a stackalloc
/// pointer, an earlier store must have written it, and that store is
/// flagged itself.
void forEachValueVar(const Expr &E,
                     const std::function<void(const std::string &)> &Fn) {
  if (const auto *V = dyn_cast<Var>(&E)) {
    Fn(V->name());
  } else if (const auto *B = dyn_cast<Bin>(&E)) {
    forEachValueVar(*B->lhs(), Fn);
    forEachValueVar(*B->rhs(), Fn);
  }
}

} // namespace

std::string ReplayFinding::text(const char *Template,
                                const AbiInfo &Abi) const {
  auto Value = [&](const std::string &Name) -> std::string {
    if (Name == "what")
      return Acc.K == SymbolicDomain::Access::Kind::Store ? "store" : "load";
    if (Name == "off")
      return Acc.Addr.T.str();
    if (Name == "bytes")
      return std::to_string(Acc.Bytes);
    if (Name == "size")
      return std::to_string(Acc.Table->Elements.size());
    if (Name == "table")
      return Acc.Table->Name;
    const Region &R = Abi.Regions[size_t(Acc.Addr.Region)];
    return Name == "region" ? R.Name : R.ClauseStr;
  };
  std::string Out;
  for (const char *P = Template; *P; ++P) {
    if (*P != '$') {
      Out += *P;
      continue;
    }
    const char *End = P + 1;
    while (*End >= 'a' && *End <= 'z')
      ++End;
    Out += Value(std::string(P + 1, End));
    P = End - 1;
  }
  return Out;
}

TargetFacts::TargetFacts(const Function &Fn, AbiInfo AbiIn,
                         const guard::Budget *Budget)
    : Fn(Fn), Budget(Budget), Abi(std::move(AbiIn)), G(Cfg::build(Fn)),
      Sym(G, Fn, Abi) {
  Abi.EntryFacts.setBudget(Budget);
  SymR = runForward(G, Sym, 64, Budget);
  if (!SymR.Converged)
    return;

  SymbolicDomain Replay(G, Fn, Abi);
  const CfgStmt *CurStmt = nullptr;
  const BasicBlock *CurBlock = nullptr;
  Replay.setSink([&](const SymbolicDomain::Access &Acc, SymState &St,
                     solver::FactDb &Db) {
    ++Accesses;
    // The seven checks, in order; the first one that fails is the finding.
    std::optional<Kind> K;
    Status Proof = Status::success();
    if (Acc.K == SymbolicDomain::Access::Kind::Table) {
      if (!Acc.Table)
        K = Kind::UnknownTable;
      else if (Acc.Addr.K != AbsVal::Kind::Scalar)
        K = Kind::TableIndexIsPointer;
      else if (!(Proof = Db.proveLt(Acc.Addr.T,
                                    lc(int64_t(Acc.Table->Elements.size())))))
        K = Kind::TableIndexOutOfRange;
    } else if (Acc.Addr.K != AbsVal::Kind::Ptr) {
      K = Kind::NotFramePointer;
    } else if (St.DeadRegions.count(Acc.Addr.Region)) {
      K = Kind::ExpiredRegion;
    } else if (!(Proof = Db.proveLe(lc(0), Acc.Addr.T))) {
      K = Kind::NegativeOffset;
    } else if (!(Proof = Db.proveLe(
                     Acc.Addr.T + lc(int64_t(Acc.Bytes)),
                     Abi.Regions[size_t(Acc.Addr.Region)].Extent))) {
      K = Kind::PastExtent;
    }
    if (K)
      Findings.push_back(
          {*K, Acc, CurStmt ? stmtStr(*CurStmt) : CurBlock->Cond->str(), "",
           Proof ? "" : Proof.error().str(), exhausted()});
  });
  // A scoped (stackalloc) pointer leaking out of its lexical frame, stored
  // to memory (by StoreStmt) or returned (StoreStmt null), is a
  // use-after-free in waiting even when the leaking access is in bounds.
  auto Escape = [&](const SymState &St, const std::string &V,
                    const CfgStmt *StoreStmt) {
    auto It = St.Env.find(V);
    if (It == St.Env.end() || It->second.K != AbsVal::Kind::Ptr ||
        It->second.Region < 0 || !Abi.Regions[size_t(It->second.Region)].Scoped)
      return;
    SymbolicDomain::Access At;
    At.Site = StoreStmt ? StoreStmt->Path : "";
    Findings.push_back({StoreStmt ? Kind::StoresScopedPtr
                                  : Kind::ReturnsScopedPtr,
                        std::move(At), StoreStmt ? stmtStr(*StoreStmt) : "",
                        V, "", false});
  };

  for (unsigned Id : G.rpo()) {
    if (!SymR.In[Id])
      continue;
    const BasicBlock &B = G.block(Id);
    CurBlock = &B;
    SymState S = *SymR.In[Id];
    for (const CfgStmt &St : B.Stmts) {
      CurStmt = &St;
      if (St.K == CfgStmt::Kind::Simple)
        if (const auto *Str = dyn_cast<Store>(St.C))
          forEachValueVar(*Str->value(), [&](const std::string &V) {
            Escape(S, V, &St);
          });
      Replay.transfer(G, B, St, S);
    }
    CurStmt = nullptr;
    // Branch conditions can contain loads/table reads too; evaluating
    // one edge visits every access in the condition.
    if (B.T == BasicBlock::Term::Branch)
      (void)Replay.edge(G, B, S, true);
    if (B.T == BasicBlock::Term::Exit)
      for (const std::string &Ret : Fn.Rets)
        Escape(S, Ret, nullptr);
  }
}

} // namespace analysis
} // namespace relc
