//===- analysis/Analysis.cpp - Static verifier for generated code ---------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include <algorithm>
#include <set>

namespace relc {
namespace analysis {

using namespace bedrock;
using solver::lc;

const char *checkerName(Diagnostic::Checker C) {
  switch (C) {
  case Diagnostic::Checker::Uninit:
    return "uninit";
  case Diagnostic::Checker::Bounds:
    return "bounds";
  case Diagnostic::Checker::DeadStore:
    return "dead-store";
  case Diagnostic::Checker::Unreachable:
    return "unreachable";
  case Diagnostic::Checker::Convergence:
    return "convergence";
  }
  return "?";
}

std::string Diagnostic::str() const {
  std::string Out = IsError ? "error" : "warning";
  Out += " [" + std::string(checkerName(C)) + "] " + Fn;
  if (!Path.empty())
    Out += " at " + Path;
  if (!Stmt.empty())
    Out += ": " + Stmt;
  Out += "\n  " + Message;
  return Out;
}

bool AnalysisReport::hasErrors() const {
  return std::any_of(Diags.begin(), Diags.end(),
                     [](const Diagnostic &D) { return D.IsError; });
}

unsigned AnalysisReport::numErrors() const {
  return unsigned(std::count_if(Diags.begin(), Diags.end(),
                                [](const Diagnostic &D) { return D.IsError; }));
}

unsigned AnalysisReport::numWarnings() const {
  return unsigned(Diags.size()) - numErrors();
}

std::string AnalysisReport::str() const {
  std::string Out = "analysis of " + Fn + ": " + std::to_string(NumBlocks) +
                    " blocks, " + std::to_string(NumStmts) + " statements, " +
                    std::to_string(SymIterations) +
                    " symbolic iterations\n";
  for (const Diagnostic &D : Diags)
    Out += D.str() + "\n";
  Out += std::to_string(numErrors()) + " error(s), " +
         std::to_string(numWarnings()) + " warning(s)\n";
  return Out;
}

namespace {

class Analyzer {
public:
  explicit Analyzer(const TargetFacts &T)
      : T(T), Fn(T.Fn), G(T.G), SymR(T.SymR) {}

  AnalysisReport run() {
    Report.Fn = Fn.Name;
    Report.NumBlocks = unsigned(G.blocks().size());
    Report.NumStmts = Fn.countStmts();
    Report.SymIterations = SymR.Iterations;

    runInit();
    checkUninit();
    checkBounds();
    checkDeadStores();
    checkUnreachable();
    // Whatever ran after the budget ran out is degraded (never cached),
    // errors or not.
    Report.BudgetExhausted = T.exhausted();
    return std::move(Report);
  }

private:
  const TargetFacts &T;
  const Function &Fn;
  const Cfg &G;
  const DataflowResult<SymbolicDomain> &SymR;
  AnalysisReport Report;

  DataflowResult<InitDomain> InitR;

  void diag(Diagnostic::Checker C, const std::string &Path,
            const std::string &Stmt, const std::string &Message,
            bool IsError) {
    Report.Diags.push_back({C, Fn.Name, Path, Stmt, Message, IsError});
  }

  /// The symbolic fixpoint is the one reachability decision: a block is
  /// reachable iff some feasible edge brought it a state.
  bool reachable(unsigned Id) const { return SymR.In[Id].has_value(); }

  /// Diagnostic tail for a non-converged fixpoint: names the exhausted
  /// budget when that is what stopped it, so degraded outcomes are
  /// distinguishable from a fixpoint that hit the iteration cap.
  template <typename Domain>
  void convergenceDiag(const DataflowResult<Domain> &R,
                       const std::string &What, const std::string &CapText) {
    if (R.Converged)
      return;
    diag(Diagnostic::Checker::Convergence, "", "",
         What + (R.BudgetExhausted ? " " + T.Budget->describe() : CapText),
         true);
  }

  /// Runs the definedness fixpoint, then reports it and the shared
  /// symbolic fixpoint if either stopped short.
  void runInit() {
    InitDomain D(Fn);
    InitR = runForward(G, D, 64, T.Budget);
    convergenceDiag(InitR, "initialized-locals analysis", " did not converge");
    convergenceDiag(SymR, "symbolic analysis",
                    " did not converge (abstract state kept changing past "
                    "the iteration cap)");
  }

  //===--------------------------------------------------------------------===//
  // Use of uninitialized locals.
  //===--------------------------------------------------------------------===//

  void checkUninit() {
    if (!InitR.Converged)
      return;
    std::set<std::pair<std::string, std::string>> Seen; // (path, var)
    auto CheckRead = [&](const std::string &Path, const std::string &Stmt,
                         const std::set<std::string> &Defined,
                         const std::string &V) {
      if (Defined.count(V) || !Seen.insert({Path, V}).second)
        return;
      diag(Diagnostic::Checker::Uninit, Path, Stmt,
           "local '" + V +
               "' may be read before it is assigned on some path",
           true);
    };
    for (unsigned Id : G.rpo()) {
      if (!InitR.In[Id])
        continue;
      std::set<std::string> Defined = InitR.In[Id]->Defined;
      const BasicBlock &B = G.block(Id);
      for (const CfgStmt &S : B.Stmts) {
        forEachReadVar(S, [&](const std::string &V) {
          CheckRead(S.Path, stmtStr(S), Defined, V);
        });
        InitDomain::apply(S, Defined);
      }
      if (B.T == BasicBlock::Term::Branch)
        forEachVar(*B.Cond, [&](const std::string &V) {
          CheckRead(B.CondPath, B.Cond->str(), Defined, V);
        });
    }
  }

  //===--------------------------------------------------------------------===//
  // Load/store/table bounds against the ABI frame.
  //===--------------------------------------------------------------------===//

  void checkBounds() {
    // Indexed by ReplayFinding::Kind; the solver's error follows checks 3,
    // 6 and 7.
    static const char *const Texts[] = {
        "access to unknown inline table",
        "table index is a pointer",
        "cannot prove table index < $size (table $table)",
        "$what address does not provably point into any clause of the ABI's "
        "separation-logic frame",
        "$what into expired stackalloc region '$region' (its lexical "
        "lifetime has ended)",
        "cannot prove $what offset is nonnegative within {$clause}",
        "cannot prove $bytes-byte $what at offset $off stays within "
        "{$clause}"};
    for (const ReplayFinding &F : T.Findings) {
      if (size_t(F.K) >= std::size(Texts))
        continue; // Frame escapes are codelint's.
      std::string Msg = F.text(Texts[size_t(F.K)], T.Abi);
      if (F.Exhausted)
        Msg += " (" + T.Budget->describe() + ")";
      else if (!F.SolverError.empty())
        Msg += ": " + F.SolverError;
      diag(Diagnostic::Checker::Bounds, F.Acc.Site, F.Where, Msg, true);
    }
  }

  //===--------------------------------------------------------------------===//
  // Dead stores (backward liveness over locals).
  //===--------------------------------------------------------------------===//

  /// Live set just before leaving \p B backward through its statements;
  /// returns the live-in set.
  std::set<std::string> liveThrough(const BasicBlock &B,
                                    std::set<std::string> Live) const {
    if (B.T == BasicBlock::Term::Branch)
      forEachVar(*B.Cond, [&](const std::string &V) { Live.insert(V); });
    for (auto It = B.Stmts.rbegin(); It != B.Stmts.rend(); ++It) {
      forEachDefVar(*It, [&](const std::string &V) { Live.erase(V); });
      forEachKillVar(*It, [&](const std::string &V) { Live.erase(V); });
      forEachReadVar(*It, [&](const std::string &V) { Live.insert(V); });
    }
    return Live;
  }

  void checkDeadStores() {
    const size_t N = G.blocks().size();
    std::vector<std::set<std::string>> LiveOut(N);
    for (const BasicBlock &B : G.blocks())
      if (B.T == BasicBlock::Term::Exit)
        LiveOut[B.Id].insert(Fn.Rets.begin(), Fn.Rets.end());

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto It = G.rpo().rbegin(); It != G.rpo().rend(); ++It) {
        const BasicBlock &B = G.block(*It);
        std::set<std::string> LiveIn = liveThrough(B, LiveOut[B.Id]);
        for (unsigned P : B.Preds)
          for (const std::string &V : LiveIn)
            Changed |= LiveOut[P].insert(V).second;
      }
    }

    for (unsigned Id : G.rpo()) {
      if (!reachable(Id)) // Unreachable code gets its own diagnostic.
        continue;
      const BasicBlock &B = G.block(Id);
      std::set<std::string> Live = LiveOut[Id];
      if (B.T == BasicBlock::Term::Branch)
        forEachVar(*B.Cond, [&](const std::string &V) { Live.insert(V); });
      // Walk backward, flagging Sets whose target is not live afterwards.
      for (auto It = B.Stmts.rbegin(); It != B.Stmts.rend(); ++It) {
        if (It->K == CfgStmt::Kind::Simple)
          if (const auto *C = dyn_cast<Set>(It->C))
            if (!Live.count(C->name()))
              diag(Diagnostic::Checker::DeadStore, It->Path, stmtStr(*It),
                   "value assigned to '" + C->name() +
                       "' is never read (dead store)",
                   false);
        forEachDefVar(*It, [&](const std::string &V) { Live.erase(V); });
        forEachKillVar(*It, [&](const std::string &V) { Live.erase(V); });
        forEachReadVar(*It, [&](const std::string &V) { Live.insert(V); });
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Unreachable code.
  //===--------------------------------------------------------------------===//

  void checkUnreachable() {
    if (!SymR.Converged)
      return;
    for (const BasicBlock &B : G.blocks()) {
      if (reachable(B.Id))
        continue;
      const CfgStmt *First = nullptr;
      for (const CfgStmt &S : B.Stmts)
        if (S.K != CfgStmt::Kind::StackExit) {
          First = &S;
          break;
        }
      if (!First)
        continue; // Join/exit scaffolding only.
      // Report only the frontier: blocks with a reachable predecessor.
      // Deeper blocks are implied by the frontier diagnostic.
      bool Frontier = false;
      for (unsigned P : B.Preds)
        Frontier |= reachable(P);
      if (!Frontier)
        continue;
      diag(Diagnostic::Checker::Unreachable, First->Path, stmtStr(*First),
           "no feasible path reaches this statement (the branch condition "
           "is statically decided)",
           false);
    }
  }
};

} // namespace

AnalysisReport analyzeFunction(const TargetFacts &T) {
  return Analyzer(T).run();
}

AnalysisReport analyzeFunction(const Function &Fn, const AbiInfo &Abi,
                               const guard::Budget *Budget) {
  return analyzeFunction(TargetFacts(Fn, Abi, Budget));
}

AnalysisReport analyzeProgram(const Function &Fn, const sep::FnSpec &Spec,
                              const ir::SourceFn &Src,
                              const EntryFactList &Hints,
                              const guard::Budget *Budget) {
  return analyzeFunction(Fn, makeAbiInfo(Fn, Spec, Src, Hints), Budget);
}

} // namespace analysis
} // namespace relc
