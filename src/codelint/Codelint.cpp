//===- codelint/Codelint.cpp - Target-side safety & resource lints --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "codelint/Codelint.h"

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace relc {
namespace codelint {

using namespace bedrock;
using analysis::AbiInfo;
using analysis::AbsVal;
using analysis::BasicBlock;
using analysis::Cfg;
using analysis::CfgStmt;
using analysis::SymbolicDomain;
using analysis::SymState;
using solver::lc;
using solver::LinTerm;

const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Safe:
    return "safe";
  case Verdict::Unknown:
    return "unknown";
  case Verdict::Unsafe:
    return "unsafe";
  }
  return "?";
}

std::optional<Verdict> verdictFromName(const std::string &Name) {
  if (Name == "safe")
    return Verdict::Safe;
  if (Name == "unknown")
    return Verdict::Unknown;
  if (Name == "unsafe")
    return Verdict::Unsafe;
  return std::nullopt;
}

std::string Finding::str() const {
  std::string Out = "[" + Reason + "]";
  if (!Path.empty())
    Out += " at " + Path;
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

Verdict Report::overall() const {
  if (Mem == Verdict::Unsafe || Stack == Verdict::Unsafe ||
      Steps == Verdict::Unsafe)
    return Verdict::Unsafe;
  if (Mem == Verdict::Unknown || Stack == Verdict::Unknown ||
      Steps == Verdict::Unknown)
    return Verdict::Unknown;
  return Verdict::Safe;
}

std::string Report::str() const {
  std::string Out = "codelint of " + Fn + ": " + verdictName(overall()) +
                    " (mem " + verdictName(Mem) + ", " +
                    std::to_string(Accesses) + " accesses; stack " +
                    verdictName(Stack) + ", " + std::to_string(LocalsBytes) +
                    "+" + std::to_string(ScratchBytes) + " bytes";
  if (OperandDepth)
    Out += ", operand depth " + std::to_string(OperandDepth);
  Out += "; steps " + std::string(verdictName(Steps));
  if (Steps == Verdict::Safe)
    Out += " <= " + std::to_string(StepBound);
  Out += ")";
  if (BudgetExhausted)
    Out += " [budget exhausted]";
  Out += "\n";
  for (const Finding &F : Findings)
    Out += "  " + F.str() + "\n";
  return Out;
}

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers.
//===----------------------------------------------------------------------===//

/// Prints one CFG statement on one line (same rendering as the analyzer's
/// diagnostics, so the two layers read alike).
std::string stmtStr(const CfgStmt &S) {
  std::string Out;
  switch (S.K) {
  case CfgStmt::Kind::Simple:
    Out = S.C->str(0);
    break;
  case CfgStmt::Kind::StackEnter:
    Out = "stackalloc " + cast<Stackalloc>(S.C)->name();
    break;
  case CfgStmt::Kind::StackExit:
    Out = "end of stackalloc " + cast<Stackalloc>(S.C)->name();
    break;
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == ' '))
    Out.pop_back();
  return Out;
}

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

uint64_t satAdd(uint64_t A, uint64_t B) {
  return A > ~uint64_t(0) - B ? ~uint64_t(0) : A + B;
}

uint64_t satMul(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > ~uint64_t(0) / B)
    return ~uint64_t(0);
  return A * B;
}

/// One definition of a local inside a loop body (or any subtree).
struct DefRec {
  const Set *S = nullptr; ///< Null for call/interact returns, stackallocs.
  bool Spine = false;     ///< Executed unconditionally (Seq/Stackalloc only).
  size_t Order = 0;       ///< Walk order, for before/after on the spine.
};

/// Collects every definition of every local in \p C, tagging each with
/// whether it sits on the unconditional spine (not nested under If/While).
void collectDefs(const Cmd *C, bool Spine, size_t &Order,
                 std::map<std::string, std::vector<DefRec>> &Out) {
  switch (C->kind()) {
  case Cmd::Kind::Set: {
    const auto *S = cast<Set>(C);
    Out[S->name()].push_back({S, Spine, Order++});
    return;
  }
  case Cmd::Kind::Seq:
    collectDefs(cast<Seq>(C)->first(), Spine, Order, Out);
    collectDefs(cast<Seq>(C)->second(), Spine, Order, Out);
    return;
  case Cmd::Kind::If:
    collectDefs(cast<If>(C)->thenCmd(), false, Order, Out);
    collectDefs(cast<If>(C)->elseCmd(), false, Order, Out);
    return;
  case Cmd::Kind::While:
    collectDefs(cast<While>(C)->body(), false, Order, Out);
    return;
  case Cmd::Kind::Stackalloc: {
    const auto *SA = cast<Stackalloc>(C);
    Out[SA->name()].push_back({nullptr, Spine, Order++});
    collectDefs(SA->body(), Spine, Order, Out);
    return;
  }
  case Cmd::Kind::Call:
    for (const std::string &R : cast<Call>(C)->rets())
      Out[R].push_back({nullptr, Spine, Order++});
    return;
  case Cmd::Kind::Interact:
    for (const std::string &R : cast<Interact>(C)->rets())
      Out[R].push_back({nullptr, Spine, Order++});
    return;
  case Cmd::Kind::Skip:
  case Cmd::Kind::Unset:
  case Cmd::Kind::Store:
    return;
  }
}

std::map<std::string, std::vector<DefRec>> defsIn(const Cmd *C) {
  std::map<std::string, std::vector<DefRec>> Out;
  size_t Order = 0;
  collectDefs(C, true, Order, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// The analyzer.
//===----------------------------------------------------------------------===//

class Linter {
public:
  Linter(const Function &Fn, const AbiInfo &AbiIn, const guard::Budget *Budget)
      : Fn(Fn), Abi(AbiIn), Budget(Budget), G(Cfg::build(Fn)),
        Sym(G, Fn, Abi) {
    // The copy carries the budget: every domain state clones EntryFacts,
    // and FactDb copies carry it along, so all solver queries are bounded.
    Abi.EntryFacts.setBudget(Budget);
  }

  Report run() {
    R.Fn = Fn.Name;
    SymR = analysis::runForward(G, Sym, 64, Budget);
    checkMemory();
    checkStack();
    checkSteps();
    if (Budget && Budget->exhausted())
      R.BudgetExhausted = true;
    return std::move(R);
  }

private:
  const Function &Fn;
  AbiInfo Abi; ///< Copy: its EntryFacts carry the budget (see ctor).
  const guard::Budget *Budget;
  Cfg G;
  SymbolicDomain Sym;
  analysis::DataflowResult<SymbolicDomain> SymR;
  Report R;

  void finding(const std::string &Reason, const std::string &Path,
               const std::string &Detail) {
    R.Findings.push_back({Reason, Path, Detail});
  }

  /// A proof just failed; was it a genuine refusal or budget starvation?
  /// Exhaustion latches, so every later query also fails — those failures
  /// must degrade to Unknown, never escalate to Unsafe.
  bool exhausted() const { return Budget && Budget->exhausted(); }

  //===--------------------------------------------------------------------===//
  // Memory safety: solver-checked access replay + frame-escape.
  //===--------------------------------------------------------------------===//

  void checkMemory() {
    if (!SymR.Converged) {
      R.Mem = Verdict::Unknown;
      finding("analysis-incomplete", "",
              SymR.BudgetExhausted
                  ? "symbolic fixpoint stopped: " + Budget->describe()
                  : "symbolic fixpoint did not converge");
      return;
    }

    bool Unsafe = false, Incomplete = false;
    SymbolicDomain Replay(G, Fn, Abi);
    const CfgStmt *CurStmt = nullptr;
    const BasicBlock *CurBlock = nullptr;

    Replay.setSink([&](const SymbolicDomain::Access &Acc, SymState &St,
                       solver::FactDb &Db) {
      ++R.Accesses;
      std::string Where = CurStmt ? stmtStr(*CurStmt) : CurBlock->Cond->str();
      auto Fail = [&](const std::string &Reason, const std::string &Detail) {
        if (exhausted()) {
          Incomplete = true;
          finding("analysis-incomplete", Acc.Site,
                  Detail + " (" + Budget->describe() + ")");
        } else {
          Unsafe = true;
          finding(Reason, Acc.Site, Detail + " in: " + Where);
        }
      };

      if (Acc.K == SymbolicDomain::Access::Kind::Table) {
        if (!Acc.Table) {
          Fail("oob-table", "access to unknown inline table");
          return;
        }
        if (Acc.Addr.K != AbsVal::Kind::Scalar) {
          Fail("unknown-address", "table index is a pointer");
          return;
        }
        if (!Db.entailsLt(Acc.Addr.T, lc(int64_t(Acc.Table->Elements.size()))))
          Fail("oob-table", "cannot prove index " + Acc.Addr.T.str() + " < " +
                                std::to_string(Acc.Table->Elements.size()) +
                                " (table " + Acc.Table->Name + ")");
        return;
      }

      const bool IsStore = Acc.K == SymbolicDomain::Access::Kind::Store;
      const char *What = IsStore ? "store" : "load";
      const char *OobReason = IsStore ? "oob-store" : "oob-load";
      if (Acc.Addr.K != AbsVal::Kind::Ptr) {
        Fail("unknown-address",
             std::string(What) +
                 " address does not provably point into any frame clause");
        return;
      }
      const analysis::Region &Reg = Abi.Regions[size_t(Acc.Addr.Region)];
      if (St.DeadRegions.count(Acc.Addr.Region)) {
        Fail("expired-region", std::string(What) +
                                   " into expired stackalloc region '" +
                                   Reg.Name + "'");
        return;
      }
      if (!Db.entailsLe(lc(0), Acc.Addr.T)) {
        Fail(OobReason, std::string(What) + " offset " + Acc.Addr.T.str() +
                            " not provably nonnegative in {" + Reg.ClauseStr +
                            "}");
        return;
      }
      if (!Db.entailsLe(Acc.Addr.T + lc(int64_t(Acc.Bytes)), Reg.Extent))
        Fail(OobReason, "cannot prove " + std::to_string(Acc.Bytes) +
                            "-byte " + What + " at offset " +
                            Acc.Addr.T.str() + " stays within {" +
                            Reg.ClauseStr + "}");
    });

    // A scoped (stackalloc) pointer leaking out of its lexical frame —
    // stored to memory or returned — is a use-after-free in waiting even
    // when the leaking access itself is in bounds.
    auto ScopedPtr = [&](const SymState &St, const std::string &V) -> bool {
      auto It = St.Env.find(V);
      return It != St.Env.end() && It->second.K == AbsVal::Kind::Ptr &&
             It->second.Region >= 0 &&
             Abi.Regions[size_t(It->second.Region)].Scoped;
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
              if (ScopedPtr(S, V)) {
                Unsafe = true;
                finding("frame-escape", St.Path,
                        "stackalloc pointer '" + V +
                            "' stored to memory in: " + stmtStr(St));
              }
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
          if (ScopedPtr(S, Ret)) {
            Unsafe = true;
            finding("frame-escape", "",
                    "return value '" + Ret +
                        "' is a pointer into a stackalloc frame");
          }
    }

    R.Mem = Unsafe      ? Verdict::Unsafe
            : Incomplete ? Verdict::Unknown
                         : Verdict::Safe;
  }

  //===--------------------------------------------------------------------===//
  // Stack/locals bound: structural, no fixpoint needed.
  //===--------------------------------------------------------------------===//

  /// Worst-case bytes of live stackalloc scratch under \p C. Lexical
  /// scoping means sequenced scopes never coexist (max), nested ones do
  /// (sum); a loop's per-iteration scope is freed before the next one.
  uint64_t scratchBytes(const Cmd *C) const {
    switch (C->kind()) {
    case Cmd::Kind::Stackalloc: {
      const auto *SA = cast<Stackalloc>(C);
      return satAdd(SA->numBytes(), scratchBytes(SA->body()));
    }
    case Cmd::Kind::Seq:
      return std::max(scratchBytes(cast<Seq>(C)->first()),
                      scratchBytes(cast<Seq>(C)->second()));
    case Cmd::Kind::If:
      return std::max(scratchBytes(cast<If>(C)->thenCmd()),
                      scratchBytes(cast<If>(C)->elseCmd()));
    case Cmd::Kind::While:
      return scratchBytes(cast<While>(C)->body());
    default:
      return 0;
    }
  }

  void checkStack() {
    std::set<std::string> Locals(Fn.Args.begin(), Fn.Args.end());
    Locals.insert(Fn.Rets.begin(), Fn.Rets.end());
    for (const auto &[Name, Defs] : defsIn(Fn.Body.get())) {
      (void)Defs;
      Locals.insert(Name);
    }
    R.LocalsBytes = satMul(8, Locals.size());
    R.ScratchBytes = scratchBytes(Fn.Body.get());

    // Calls: a self-call cannot bound its own frame (unbounded stack); any
    // other callee is outside this single-function analysis.
    Verdict V = Verdict::Safe;
    std::function<void(const Cmd *)> Walk = [&](const Cmd *C) {
      switch (C->kind()) {
      case Cmd::Kind::Call: {
        const auto *Cl = cast<Call>(C);
        if (Cl->callee() == Fn.Name) {
          V = Verdict::Unsafe;
          finding("unbounded-stack", "",
                  "recursive call to '" + Cl->callee() +
                      "' has no bounded stack frame");
        } else if (V == Verdict::Safe) {
          V = Verdict::Unknown;
          finding("unknown-callee", "",
                  "cannot bound the frame of callee '" + Cl->callee() + "'");
        }
        return;
      }
      case Cmd::Kind::Seq:
        Walk(cast<Seq>(C)->first());
        Walk(cast<Seq>(C)->second());
        return;
      case Cmd::Kind::If:
        Walk(cast<If>(C)->thenCmd());
        Walk(cast<If>(C)->elseCmd());
        return;
      case Cmd::Kind::While:
        Walk(cast<While>(C)->body());
        return;
      case Cmd::Kind::Stackalloc:
        Walk(cast<Stackalloc>(C)->body());
        return;
      default:
        return;
      }
    };
    Walk(Fn.Body.get());
    R.Stack = V;
  }

  //===--------------------------------------------------------------------===//
  // Step bound: per-iteration cost x trip-count envelope.
  //===--------------------------------------------------------------------===//

  /// Upper bound of \p T under the facts at a loop header. Tries the cheap
  /// per-symbol interval cache first, then binary-searches the full linear
  /// entailment (Fourier–Motzkin handles scaled facts like 2·hi ≤ len that
  /// the cache cannot see).
  std::optional<uint64_t> upperBound(const solver::FactDb &Db,
                                     const LinTerm &T) const {
    if (auto Ub = Db.intervalUpperBound(T))
      return *Ub >= 0 ? std::optional<uint64_t>(uint64_t(*Ub))
                      : std::optional<uint64_t>(0);
    const int64_t Cap = int64_t(1) << 40;
    if (!Db.entailsLe(T, lc(Cap)))
      return std::nullopt;
    int64_t Lo = 0, Hi = Cap;
    while (Lo < Hi) {
      int64_t Mid = Lo + (Hi - Lo) / 2;
      if (Db.entailsLe(T, lc(Mid)))
        Hi = Mid;
      else
        Lo = Mid + 1;
    }
    return uint64_t(Lo);
  }

  /// The loop header block owning \p Cond (by node identity).
  const BasicBlock *headerFor(const Expr *Cond) const {
    for (const BasicBlock &B : G.blocks())
      if (B.IsLoopHeader && B.T == BasicBlock::Term::Branch &&
          B.Cond == Cond)
        return &B;
    return nullptr;
  }

  /// Is \p D an increment that is provably >= 1 (and bounded) each
  /// iteration? Returns its max value, or nullopt.
  ///   - Literal c with c >= 1.
  ///   - (t + (t == 0)) where t's unique def in the body is an earlier
  ///     unconditional 1-byte table/load read (so 1 <= delta <= 256); this
  ///     is the branchless-UTF-8 advance-by-decoded-length shape.
  std::optional<uint64_t>
  incAtLeastOne(const Expr *D, const DefRec &Inc,
                const std::map<std::string, std::vector<DefRec>> &Defs) const {
    if (const auto *L = dyn_cast<Literal>(D))
      return L->value() >= 1 && L->value() <= (uint64_t(1) << 32)
                 ? std::optional<uint64_t>(L->value())
                 : std::nullopt;
    const auto *B = dyn_cast<Bin>(D);
    if (!B || B->op() != BinOp::Add)
      return std::nullopt;
    const auto *T = dyn_cast<Var>(B->lhs());
    const auto *EqE = dyn_cast<Bin>(B->rhs());
    if (!T || !EqE || EqE->op() != BinOp::Eq)
      return std::nullopt;
    const auto *T2 = dyn_cast<Var>(EqE->lhs());
    const auto *Z = dyn_cast<Literal>(EqE->rhs());
    if (!T2 || !Z || Z->value() != 0 || T2->name() != T->name())
      return std::nullopt;
    auto It = Defs.find(T->name());
    if (It == Defs.end() || It->second.size() != 1)
      return std::nullopt;
    const DefRec &TD = It->second.front();
    if (!TD.S || !TD.Spine || TD.Order >= Inc.Order)
      return std::nullopt;
    // The byte bound: a 1-byte table or load read is <= 255.
    if (const auto *TG = dyn_cast<TableGet>(TD.S->value()))
      return sizeBytes(TG->size()) == 1 ? std::optional<uint64_t>(256)
                                        : std::nullopt;
    if (const auto *Ld = dyn_cast<Load>(TD.S->value()))
      return sizeBytes(Ld->size()) == 1 ? std::optional<uint64_t>(256)
                                        : std::nullopt;
    return std::nullopt;
  }

  /// Trip-count bound for \p W from the termination-pattern library:
  ///
  ///   (a) Counting-up: while (v <u B) { ...; v = v + delta; ... } with
  ///       delta >= 1 each iteration, v assigned nowhere else, B loop-
  ///       invariant with a solver upper bound at the header. Since v is
  ///       strictly increasing while v < B and cannot wrap (ub(B) + max
  ///       delta < 2^63), trips <= ub(B).
  ///
  ///   (b) Shift-fold: while ((x >>u k) != 0) { x = (x & (2^k - 1)) +
  ///       (x >>u k); } — each fold shortens x by ~k bits; 64/k + 2
  ///       iterations suffice from any 64-bit start.
  std::optional<uint64_t> tripBound(const While *W) {
    const BasicBlock *H = headerFor(W->cond());
    if (!H || !SymR.Converged)
      return std::nullopt;
    if (!SymR.In[H->Id])
      return 0; // Unreachable loop: never iterates.
    auto Defs = defsIn(W->body());

    // (b) Shift-fold.
    if (const auto *Ne = dyn_cast<Bin>(W->cond()))
      if (Ne->op() == BinOp::Ne)
        if (const auto *Shift = dyn_cast<Bin>(Ne->lhs()))
          if (const auto *Zero = dyn_cast<Literal>(Ne->rhs());
              Zero && Zero->value() == 0 && Shift->op() == BinOp::LShr)
            if (const auto *X = dyn_cast<Var>(Shift->lhs()))
              if (const auto *K = dyn_cast<Literal>(Shift->rhs());
                  K && K->value() >= 1 && K->value() <= 63) {
                auto It = Defs.find(X->name());
                if (It != Defs.end() && It->second.size() == 1 &&
                    It->second.front().S && It->second.front().Spine &&
                    isShiftFold(It->second.front().S->value(), X->name(),
                                K->value()))
                  return 64 / K->value() + 2;
              }

    // (a) Counting-up.
    const auto *Lt = dyn_cast<Bin>(W->cond());
    if (!Lt || Lt->op() != BinOp::LtU)
      return std::nullopt;
    const auto *V = dyn_cast<Var>(Lt->lhs());
    if (!V)
      return std::nullopt;
    auto It = Defs.find(V->name());
    if (It == Defs.end() || It->second.size() != 1)
      return std::nullopt;
    const DefRec &Inc = It->second.front();
    if (!Inc.S || !Inc.Spine)
      return std::nullopt;
    const auto *Add = dyn_cast<Bin>(Inc.S->value());
    if (!Add || Add->op() != BinOp::Add)
      return std::nullopt;
    const Expr *Delta = nullptr;
    if (const auto *L = dyn_cast<Var>(Add->lhs()); L && L->name() == V->name())
      Delta = Add->rhs();
    else if (const auto *Rv = dyn_cast<Var>(Add->rhs());
             Rv && Rv->name() == V->name())
      Delta = Add->lhs();
    if (!Delta)
      return std::nullopt;
    auto DeltaMax = incAtLeastOne(Delta, Inc, Defs);
    if (!DeltaMax)
      return std::nullopt;

    // The bound: a literal, or a loop-invariant variable with a solver
    // upper bound under the header's facts.
    std::optional<uint64_t> Ub;
    if (const auto *L = dyn_cast<Literal>(Lt->rhs())) {
      if (L->value() <= (uint64_t(1) << 40))
        Ub = L->value();
    } else if (const auto *Bv = dyn_cast<Var>(Lt->rhs())) {
      if (Defs.count(Bv->name()))
        return std::nullopt; // Bound mutated in the body.
      const SymState &St = *SymR.In[H->Id];
      auto EnvIt = St.Env.find(Bv->name());
      if (EnvIt == St.Env.end() || EnvIt->second.K != AbsVal::Kind::Scalar)
        return std::nullopt;
      solver::FactDb Db = Sym.materialize(St);
      Ub = upperBound(Db, EnvIt->second.T);
    }
    if (!Ub || satAdd(*Ub, *DeltaMax) > (uint64_t(1) << 62))
      return std::nullopt;
    return *Ub;
  }

  /// x = (x & (2^k - 1)) + (x >>u k), either operand order.
  static bool isShiftFold(const Expr *E, const std::string &X, uint64_t K) {
    const auto *Add = dyn_cast<Bin>(E);
    if (!Add || Add->op() != BinOp::Add)
      return false;
    auto IsMask = [&](const Expr *Op) {
      const auto *And = dyn_cast<Bin>(Op);
      if (!And || And->op() != BinOp::And)
        return false;
      const auto *Xv = dyn_cast<Var>(And->lhs());
      const auto *M = dyn_cast<Literal>(And->rhs());
      return Xv && M && Xv->name() == X &&
             M->value() == (uint64_t(1) << K) - 1;
    };
    auto IsShift = [&](const Expr *Op) {
      const auto *Sh = dyn_cast<Bin>(Op);
      if (!Sh || Sh->op() != BinOp::LShr)
        return false;
      const auto *Xv = dyn_cast<Var>(Sh->lhs());
      const auto *Kv = dyn_cast<Literal>(Sh->rhs());
      return Xv && Kv && Xv->name() == X && Kv->value() == K;
    };
    return (IsMask(Add->lhs()) && IsShift(Add->rhs())) ||
           (IsShift(Add->lhs()) && IsMask(Add->rhs()));
  }

  /// Step cost of \p C, dominating the Bedrock2 interpreter's fuel: one
  /// unit per command node entered plus one per while-iteration check
  /// (including the final failing one). Saturating; nullopt = unbounded.
  std::optional<uint64_t> cost(const Cmd *C) {
    switch (C->kind()) {
    case Cmd::Kind::Skip:
    case Cmd::Kind::Set:
    case Cmd::Kind::Unset:
    case Cmd::Kind::Store:
    case Cmd::Kind::Interact:
      return 1;
    case Cmd::Kind::Seq: {
      auto A = cost(cast<Seq>(C)->first());
      auto B = cost(cast<Seq>(C)->second());
      if (!A || !B)
        return std::nullopt;
      return satAdd(1, satAdd(*A, *B));
    }
    case Cmd::Kind::If: {
      auto A = cost(cast<If>(C)->thenCmd());
      auto B = cost(cast<If>(C)->elseCmd());
      if (!A || !B)
        return std::nullopt;
      return satAdd(1, std::max(*A, *B));
    }
    case Cmd::Kind::Stackalloc: {
      auto B = cost(cast<Stackalloc>(C)->body());
      if (!B)
        return std::nullopt;
      return satAdd(1, *B);
    }
    case Cmd::Kind::While: {
      const auto *W = cast<While>(C);
      auto Body = cost(W->body());
      auto Trips = tripBound(W);
      if (!Body || !Trips) {
        if (Body && !Trips)
          finding("unknown-step-bound", "",
                  "no trip-count bound for loop condition " +
                      W->cond()->str());
        return std::nullopt;
      }
      // Node entry + (trips + 1) iteration checks + trips bodies.
      return satAdd(satAdd(2, *Trips), satMul(*Trips, *Body));
    }
    case Cmd::Kind::Call:
      finding("unknown-step-bound", "",
              "cannot bound steps of call to '" +
                  cast<Call>(C)->callee() + "'");
      return std::nullopt;
    }
    return std::nullopt;
  }

  void checkSteps() {
    auto Total = cost(Fn.Body.get());
    if (Total) {
      R.Steps = Verdict::Safe;
      R.StepBound = *Total;
    } else {
      R.Steps = Verdict::Unknown;
      if (exhausted())
        finding("analysis-incomplete",
                "", "step-bound search stopped: " + Budget->describe());
    }
  }
};

} // namespace

Report analyzeFunction(const Function &Fn, const sep::FnSpec &Spec,
                       const ir::SourceFn &Src,
                       const analysis::EntryFactList &Hints,
                       const guard::Budget *Budget) {
  return Linter(Fn, analysis::makeAbiInfo(Fn, Spec, Src, Hints), Budget)
      .run();
}

Report analyzeStackProgram(const stackm::TProgram &P) {
  Report R;
  R.Fn = "stackm";
  R.Mem = Verdict::Safe; // No memory in language T.
  uint64_t Depth = 0, MaxDepth = 0;
  bool Underflow = false;
  for (size_t I = 0; I < P.size(); ++I) {
    const stackm::TOp &Op = P[I];
    if (Op.TheKind == stackm::TOp::Kind::Push) {
      ++Depth;
      MaxDepth = std::max(MaxDepth, Depth);
    } else if (Depth >= 2) {
      --Depth;
    } else {
      // The interpreter's total semantics make this a no-op, but no
      // well-formed compilation of an expression ever emits it.
      Underflow = true;
      R.Findings.push_back({"stack-underflow", "op#" + std::to_string(I),
                            Op.str() + " with operand depth " +
                                std::to_string(Depth)});
    }
  }
  R.OperandDepth = MaxDepth;
  R.Stack = Underflow ? Verdict::Unsafe : Verdict::Safe;
  R.Steps = Verdict::Safe;
  R.StepBound = P.size(); // One step per op, exactly.
  return R;
}

} // namespace codelint
} // namespace relc
