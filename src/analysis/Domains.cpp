//===- analysis/Domains.cpp - Abstract domains for bedrock code -----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Domains.h"

#include "ir/Value.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>

namespace relc {
namespace analysis {

using namespace bedrock;
using solver::lc;
using solver::LinTerm;
using solver::ls;

//===----------------------------------------------------------------------===//
// ABI digest.
//===----------------------------------------------------------------------===//

AbiInfo makeAbiInfo(const Function &Fn, const sep::FnSpec &Spec,
                    const ir::SourceFn &Src, const EntryFactList &Hints) {
  AbiInfo Info;

  // Mirror the compiler's setupInitialState so entry hints (written against
  // sep::CompState) see the same locals, heap clauses and base facts.
  sep::CompState St;
  for (const sep::ArgSpec &A : Spec.Args) {
    const ir::Param *P = Src.findParam(A.SourceName);
    switch (A.TheKind) {
    case sep::ArgSpec::Kind::Scalar:
      St.Locals[A.TargetName] =
          sep::TargetSlot::scalar(sep::SymVal::sym(A.SourceName), ir::Ty::Word);
      St.Facts.addGe0(ls(A.SourceName), "word parameter is nonnegative");
      Info.ArgTerm[A.TargetName] = ls(A.SourceName);
      break;
    case sep::ArgSpec::Kind::ArrayLen:
      St.Locals[A.TargetName] = sep::TargetSlot::scalar(
          sep::SymVal::sym("len_" + A.OfArray), ir::Ty::Word);
      Info.ArgTerm[A.TargetName] = ls("len_" + A.OfArray);
      break;
    case sep::ArgSpec::Kind::ArrayPtr: {
      std::string LenSym = "len_" + A.SourceName;
      unsigned EltB = P ? ir::eltSize(P->Elt) : 1;
      Region R;
      R.K = Region::Kind::Array;
      R.Name = A.SourceName;
      R.EltBytes = EltB;
      R.Extent = ls(LenSym).scaled(int64_t(EltB));
      R.ClauseStr = "array ptr_" + A.SourceName + " " + A.SourceName + " (" +
                    LenSym + " x " + std::to_string(EltB) + "B)";
      Info.Regions.push_back(R);
      Info.ArgRegion[A.TargetName] = int(Info.Regions.size()) - 1;

      sep::HeapClause C;
      C.TheKind = sep::HeapClause::Kind::Array;
      C.Ptr = "ptr_" + A.SourceName;
      C.Payload = A.SourceName;
      C.Elt = P ? P->Elt : ir::EltKind::U8;
      C.Len = ls(LenSym);
      St.Heap.push_back(C);
      St.Locals[A.TargetName] = sep::TargetSlot::ptr(
          sep::SymVal::sym(C.Ptr), int(St.Heap.size()) - 1);
      St.Facts.addGe0(ls(LenSym), "length is nonnegative");
      St.Facts.addLe(ls(LenSym), lc(int64_t(1) << 32),
                     "ABI bounds array lengths by 2^32");
      break;
    }
    case sep::ArgSpec::Kind::CellPtr: {
      Region R;
      R.K = Region::Kind::Cell;
      R.Name = A.SourceName;
      R.EltBytes = 8;
      R.Extent = lc(8);
      R.ClauseStr = "cell ptr_" + A.SourceName + " " + A.SourceName;
      Info.Regions.push_back(R);
      Info.ArgRegion[A.TargetName] = int(Info.Regions.size()) - 1;

      sep::HeapClause C;
      C.TheKind = sep::HeapClause::Kind::Cell;
      C.Ptr = "ptr_" + A.SourceName;
      C.Payload = A.SourceName;
      C.Elt = ir::EltKind::U64;
      C.Len = lc(1);
      St.Heap.push_back(C);
      St.Locals[A.TargetName] = sep::TargetSlot::ptr(
          sep::SymVal::sym(C.Ptr), int(St.Heap.size()) - 1);
      break;
    }
    }
  }
  for (const auto &H : Hints)
    H(St);
  Info.EntryFacts = St.Facts;

  // Pre-register a Scratch region per stackalloc site in the body.
  if (Fn.Body)
    forEachCmd(*Fn.Body, [&](const Cmd &C) {
      const auto *SA = dyn_cast<Stackalloc>(&C);
      if (!SA)
        return;
      Region R;
      R.K = Region::Kind::Scratch;
      R.Name = SA->name();
      R.EltBytes = 1;
      uint64_t N = SA->numBytes();
      R.Extent = lc(N > uint64_t(INT64_MAX) ? INT64_MAX : int64_t(N));
      R.Scoped = true;
      R.ClauseStr =
          "scratch " + SA->name() + "[" + std::to_string(N) + "B]";
      Info.Regions.push_back(R);
      Info.StackRegion[SA] = int(Info.Regions.size()) - 1;
    });

  return Info;
}

//===----------------------------------------------------------------------===//
// Read/write sets.
//===----------------------------------------------------------------------===//

void forEachReadVar(const CfgStmt &S,
                    const std::function<void(const std::string &)> &Fn) {
  if (S.K != CfgStmt::Kind::Simple)
    return;
  switch (S.C->kind()) {
  case Cmd::Kind::Set:
    forEachVar(*cast<Set>(S.C)->value(), Fn);
    break;
  case Cmd::Kind::Store:
    forEachVar(*cast<Store>(S.C)->addr(), Fn);
    forEachVar(*cast<Store>(S.C)->value(), Fn);
    break;
  case Cmd::Kind::Call:
    for (const ExprPtr &A : cast<Call>(S.C)->args())
      forEachVar(*A, Fn);
    break;
  case Cmd::Kind::Interact:
    for (const ExprPtr &A : cast<Interact>(S.C)->args())
      forEachVar(*A, Fn);
    break;
  default:
    break;
  }
}

void forEachDefVar(const CfgStmt &S,
                   const std::function<void(const std::string &)> &Fn) {
  switch (S.K) {
  case CfgStmt::Kind::StackEnter:
    Fn(cast<Stackalloc>(S.C)->name());
    return;
  case CfgStmt::Kind::StackExit:
    return;
  case CfgStmt::Kind::Simple:
    break;
  }
  switch (S.C->kind()) {
  case Cmd::Kind::Set:
    Fn(cast<Set>(S.C)->name());
    break;
  case Cmd::Kind::Call:
    for (const std::string &R : cast<Call>(S.C)->rets())
      Fn(R);
    break;
  case Cmd::Kind::Interact:
    for (const std::string &R : cast<Interact>(S.C)->rets())
      Fn(R);
    break;
  default:
    break;
  }
}

void forEachKillVar(const CfgStmt &S,
                    const std::function<void(const std::string &)> &Fn) {
  if (S.K == CfgStmt::Kind::StackExit) {
    Fn(cast<Stackalloc>(S.C)->name());
    return;
  }
  if (S.K == CfgStmt::Kind::Simple && isa<Unset>(S.C))
    Fn(cast<Unset>(S.C)->name());
}

//===----------------------------------------------------------------------===//
// InitDomain.
//===----------------------------------------------------------------------===//

InitDomain::State InitDomain::entry() const {
  State S;
  S.Defined.insert(Fn.Args.begin(), Fn.Args.end());
  return S;
}

void InitDomain::apply(const CfgStmt &S, std::set<std::string> &Defined) {
  forEachDefVar(S, [&](const std::string &V) { Defined.insert(V); });
  forEachKillVar(S, [&](const std::string &V) { Defined.erase(V); });
}

void InitDomain::transfer(const Cfg &, const BasicBlock &, const CfgStmt &S,
                          State &St) const {
  apply(S, St.Defined);
}

std::optional<InitDomain::State> InitDomain::edge(const Cfg &,
                                                  const BasicBlock &,
                                                  const State &St,
                                                  bool) const {
  return St;
}

bool InitDomain::join(unsigned, State &Into, const State &From) const {
  bool Changed = false;
  for (auto It = Into.Defined.begin(); It != Into.Defined.end();) {
    if (From.Defined.count(*It)) {
      ++It;
    } else {
      It = Into.Defined.erase(It);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// SymbolicDomain.
//===----------------------------------------------------------------------===//

void SymState::addFact(const LinTerm &T, const std::string &Reason) {
  if (T.known()) // An overflowed term says nothing; FactDb would drop it.
    Facts.emplace(T.str(), std::make_pair(T, Reason));
}

solver::FactDb SymbolicDomain::materialize(const State &St) const {
  solver::FactDb Db;
  Db.setBudget(Abi.EntryFacts.budget());
  for (const auto &[Key, Row] : St.Facts)
    Db.addGe0(Row.first, Row.second);
  return Db;
}

void SymbolicDomain::addFact(SymState &St, solver::FactDb &Db,
                             const LinTerm &T, const std::string &Reason) {
  St.addFact(T, Reason);
  Db.addGe0(T, Reason);
}

AbsVal SymbolicDomain::opaque(SymState &St, solver::FactDb &Db, EvalCtx &Ctx,
                              const std::string &Reason) const {
  LinTerm T = ls(Ctx.fresh());
  addFact(St, Db, T, Reason + " (word is nonnegative)");
  return AbsVal::scalar(std::move(T));
}

SymbolicDomain::State SymbolicDomain::entry() const {
  State S;
  for (const std::string &A : Fn.Args) {
    auto R = Abi.ArgRegion.find(A);
    if (R != Abi.ArgRegion.end()) {
      S.Env[A] = AbsVal::ptr(R->second, lc(0));
      continue;
    }
    auto T = Abi.ArgTerm.find(A);
    S.Env[A] =
        AbsVal::scalar(T != Abi.ArgTerm.end() ? T->second : ls(A));
  }
  Abi.EntryFacts.forEachFact([&](const LinTerm &T, const std::string &R) {
    S.addFact(T, R);
  });
  return S;
}

AbsVal SymbolicDomain::eval(SymState &St, solver::FactDb &Db, const Expr &E,
                            EvalCtx &Ctx) const {
  switch (E.kind()) {
  case Expr::Kind::Literal: {
    Word V = cast<Literal>(&E)->value();
    if (V <= Word(INT64_MAX))
      return AbsVal::scalar(lc(int64_t(V)));
    // Constants above int64 range become named opaque symbols; the name is
    // keyed by the value so repeated uses compare equal.
    LinTerm T = ls("k$" + hexStr(V));
    St.addFact(T, "literal constant is nonnegative");
    Db.addGe0(T, "literal constant is nonnegative");
    return AbsVal::scalar(std::move(T));
  }
  case Expr::Kind::Var: {
    auto It = St.Env.find(cast<Var>(&E)->name());
    if (It != St.Env.end())
      return It->second;
    // Possibly-undefined local (the init checker reports it); model it as
    // an arbitrary word so analysis of the rest stays sound.
    return opaque(St, Db, Ctx, "read of unbound local");
  }
  case Expr::Kind::Load: {
    const auto *L = cast<Load>(&E);
    AbsVal A = eval(St, Db, *L->addr(), Ctx);
    unsigned Bytes = sizeBytes(L->size());
    if (Sink)
      Sink(Access{Access::Kind::Load, Ctx.Site, &E, A, Bytes, nullptr}, St,
           Db);
    AbsVal V = opaque(St, Db, Ctx, "loaded value");
    if (Bytes < 8)
      addFact(St, Db, lc(int64_t((uint64_t(1) << (8 * Bytes)) - 1)) - V.T,
              "load" + std::to_string(Bytes) + " is zero-extended");
    return V;
  }
  case Expr::Kind::TableGet: {
    const auto *T = cast<TableGet>(&E);
    AbsVal I = eval(St, Db, *T->index(), Ctx);
    const InlineTable *Tab = Fn.findTable(T->table());
    if (Sink)
      Sink(Access{Access::Kind::Table, Ctx.Site, &E, I,
                  sizeBytes(T->size()), Tab},
           St, Db);
    AbsVal V = opaque(St, Db, Ctx, "table element");
    if (Tab) {
      uint64_t Hi = 0;
      for (Word W : Tab->Elements)
        Hi = std::max(Hi, uint64_t(W));
      if (Hi <= uint64_t(INT64_MAX))
        addFact(St, Db, lc(int64_t(Hi)) - V.T,
                "max element of table " + Tab->Name);
    }
    return V;
  }
  case Expr::Kind::Bin:
    return evalBin(St, Db, *cast<Bin>(&E), Ctx);
  }
  return opaque(St, Db, Ctx, "unknown expression");
}

AbsVal SymbolicDomain::evalBin(SymState &St, solver::FactDb &Db, const Bin &E,
                               EvalCtx &Ctx) const {
  AbsVal A = eval(St, Db, *E.lhs(), Ctx);
  AbsVal B = eval(St, Db, *E.rhs(), Ctx);
  const int64_t Cap = int64_t(1) << 62; // No-wraparound envelope.
  bool APtr = A.K == AbsVal::Kind::Ptr, BPtr = B.K == AbsVal::Kind::Ptr;

  // Pointer arithmetic: offsets stay exact (and nonnegative — subtraction
  // is only tracked when provably within the region's prefix).
  if (E.op() == BinOp::Add && APtr != BPtr) {
    const AbsVal &P = APtr ? A : B;
    const AbsVal &S = APtr ? B : A;
    return AbsVal::ptr(P.Region, P.T + S.T);
  }
  if (E.op() == BinOp::Sub && APtr && !BPtr) {
    if (Db.entailsLe(B.T, A.T))
      return AbsVal::ptr(A.Region, A.T - B.T);
    return opaque(St, Db, Ctx, "pointer minus unbounded offset");
  }
  if (APtr || BPtr)
    return opaque(St, Db, Ctx, "non-additive pointer arithmetic");

  switch (E.op()) {
  case BinOp::Add:
    if (Db.probeLe(A.T + B.T, lc(Cap)))
      return AbsVal::scalar(A.T + B.T);
    {
      AbsVal V = opaque(St, Db, Ctx, "possibly wrapping add");
      addFact(St, Db, A.T + B.T - V.T, "(x + y) mod 2^64 <= x + y");
      return V;
    }
  case BinOp::Sub:
    if (Db.entailsLe(B.T, A.T))
      return AbsVal::scalar(A.T - B.T);
    return opaque(St, Db, Ctx, "possibly wrapping sub");
  case BinOp::Mul: {
    const LinTerm *V = nullptr;
    int64_t C = 0;
    if (A.T.isConstant()) {
      C = A.T.constPart();
      V = &B.T;
    } else if (B.T.isConstant()) {
      C = B.T.constPart();
      V = &A.T;
    }
    if (V && C == 0)
      return AbsVal::scalar(lc(0));
    if (V && C > 0 && C <= (int64_t(1) << 20)) {
      LinTerm S = V->scaled(C);
      if (Db.probeLe(S, lc(Cap)))
        return AbsVal::scalar(std::move(S));
    }
    return opaque(St, Db, Ctx, "nonlinear or possibly wrapping multiply");
  }
  case BinOp::Shl:
  case BinOp::DivU:
  case BinOp::LShr: {
    if (!B.T.isConstant())
      return opaque(St, Db, Ctx, "shift/div by non-constant");
    int64_t C = B.T.constPart();
    int64_t F;
    if (E.op() == BinOp::DivU) {
      if (C <= 0)
        return opaque(St, Db, Ctx, "division by zero or huge constant");
      F = C;
    } else {
      unsigned Sh = unsigned(uint64_t(C) & 63);
      if (Sh == 0)
        return A;
      if (Sh > 61)
        return opaque(St, Db, Ctx, "shift by large constant");
      F = int64_t(1) << Sh;
    }
    if (E.op() == BinOp::Shl) {
      if (F <= (int64_t(1) << 20)) {
        LinTerm S = A.T.scaled(F);
        if (Db.probeLe(S, lc(Cap)))
          return AbsVal::scalar(std::move(S));
      }
      return opaque(St, Db, Ctx, "possibly wrapping shift");
    }
    if (F > (int64_t(1) << 32))
      return opaque(St, Db, Ctx, "divisor too large to track");
    // t = a / F exactly: F·t ≤ a ≤ F·t + (F − 1).
    AbsVal V = opaque(St, Db, Ctx, "truncating division");
    addFact(St, Db, A.T - V.T.scaled(F), "F * (a / F) <= a");
    addFact(St, Db, V.T.scaled(F) + lc(F - 1) - A.T, "a <= F * (a/F) + F-1");
    return V;
  }
  case BinOp::RemU: {
    if (B.T.isConstant() && B.T.constPart() > 0) {
      int64_t C = B.T.constPart();
      AbsVal V = opaque(St, Db, Ctx, "remainder");
      addFact(St, Db, lc(C - 1) - V.T, "x % c <= c - 1");
      addFact(St, Db, A.T - V.T, "x % c <= x");
      return V;
    }
    return opaque(St, Db, Ctx, "remainder by non-constant");
  }
  case BinOp::And: {
    AbsVal V = opaque(St, Db, Ctx, "bitwise and");
    addFact(St, Db, A.T - V.T, "x & y <= x");
    addFact(St, Db, B.T - V.T, "x & y <= y");
    return V;
  }
  case BinOp::Or: {
    AbsVal V = opaque(St, Db, Ctx, "bitwise or");
    addFact(St, Db, A.T + B.T - V.T, "x | y <= x + y");
    addFact(St, Db, V.T - A.T, "x <= x | y");
    addFact(St, Db, V.T - B.T, "y <= x | y");
    return V;
  }
  case BinOp::Xor: {
    AbsVal V = opaque(St, Db, Ctx, "bitwise xor");
    addFact(St, Db, A.T + B.T - V.T, "x ^ y <= x + y");
    return V;
  }
  case BinOp::AShr:
    return opaque(St, Db, Ctx, "arithmetic shift");
  case BinOp::LtU:
    if (Db.entailsLt(A.T, B.T))
      return AbsVal::scalar(lc(1));
    if (Db.entailsLe(B.T, A.T))
      return AbsVal::scalar(lc(0));
    break;
  case BinOp::Eq:
    if (Db.entailsLe(A.T, B.T) && Db.entailsLe(B.T, A.T))
      return AbsVal::scalar(lc(1));
    if (Db.entailsLt(A.T, B.T) || Db.entailsLt(B.T, A.T))
      return AbsVal::scalar(lc(0));
    break;
  case BinOp::Ne:
    if (Db.entailsLt(A.T, B.T) || Db.entailsLt(B.T, A.T))
      return AbsVal::scalar(lc(1));
    if (Db.entailsLe(A.T, B.T) && Db.entailsLe(B.T, A.T))
      return AbsVal::scalar(lc(0));
    break;
  case BinOp::LtS:
    break;
  }
  // Comparison with unknown outcome: a 0/1 word.
  AbsVal V = opaque(St, Db, Ctx, "comparison result");
  addFact(St, Db, lc(1) - V.T, "comparisons yield 0 or 1");
  return V;
}

void SymbolicDomain::transfer(const Cfg &, const BasicBlock &,
                              const CfgStmt &S, State &St) const {
  switch (S.K) {
  case CfgStmt::Kind::StackEnter: {
    const auto *SA = cast<Stackalloc>(S.C);
    int R = Abi.StackRegion.at(S.C);
    St.DeadRegions.erase(R); // Re-entered on each loop iteration.
    St.Env[SA->name()] = AbsVal::ptr(R, lc(0));
    return;
  }
  case CfgStmt::Kind::StackExit: {
    const auto *SA = cast<Stackalloc>(S.C);
    St.DeadRegions.insert(Abi.StackRegion.at(S.C));
    St.Env.erase(SA->name());
    return;
  }
  case CfgStmt::Kind::Simple:
    break;
  }

  solver::FactDb Db = materialize(St);
  EvalCtx Ctx{S.Path, 0};
  switch (S.C->kind()) {
  case Cmd::Kind::Set: {
    const auto *C = cast<Set>(S.C);
    St.Env[C->name()] = eval(St, Db, *C->value(), Ctx);
    return;
  }
  case Cmd::Kind::Unset:
    St.Env.erase(cast<Unset>(S.C)->name());
    return;
  case Cmd::Kind::Store: {
    const auto *C = cast<Store>(S.C);
    AbsVal A = eval(St, Db, *C->addr(), Ctx);
    eval(St, Db, *C->value(), Ctx);
    if (Sink)
      Sink(Access{Access::Kind::Store, S.Path, nullptr, A,
                  sizeBytes(C->size()), nullptr},
           St, Db);
    // Memory contents are not modeled, so no state update is needed.
    return;
  }
  case Cmd::Kind::Call: {
    const auto *C = cast<Call>(S.C);
    for (const ExprPtr &A : C->args())
      eval(St, Db, *A, Ctx);
    for (const std::string &R : C->rets())
      St.Env[R] = opaque(St, Db, Ctx, "result of call to " + C->callee());
    return;
  }
  case Cmd::Kind::Interact: {
    const auto *C = cast<Interact>(S.C);
    for (const ExprPtr &A : C->args())
      eval(St, Db, *A, Ctx);
    for (const std::string &R : C->rets())
      St.Env[R] = opaque(St, Db, Ctx, "environment-chosen result");
    return;
  }
  default:
    assert(false && "structured command in CFG statement list");
    return;
  }
}

/// Syntactic booleans: comparisons and conjunctions thereof. On a taken
/// And-of-booleans each conjunct must itself be true (the compiler emits
/// `(i <u len) & (brk == 0)` for early-exit folds).
static bool isBoolish(const Expr &E) {
  const auto *B = dyn_cast<Bin>(&E);
  if (!B)
    return false;
  switch (B->op()) {
  case BinOp::LtU:
  case BinOp::LtS:
  case BinOp::Eq:
  case BinOp::Ne:
    return true;
  case BinOp::And:
    return isBoolish(*B->lhs()) && isBoolish(*B->rhs());
  default:
    return false;
  }
}

void SymbolicDomain::refine(SymState &St, solver::FactDb &Db,
                            const Expr &Cond, bool Taken,
                            EvalCtx &Ctx) const {
  if (const auto *B = dyn_cast<Bin>(&Cond)) {
    switch (B->op()) {
    case BinOp::LtU: {
      AbsVal L = eval(St, Db, *B->lhs(), Ctx);
      AbsVal R = eval(St, Db, *B->rhs(), Ctx);
      if (L.K != AbsVal::Kind::Scalar || R.K != AbsVal::Kind::Scalar)
        return;
      if (Taken)
        addFact(St, Db, R.T - L.T - lc(1), "branch: a <u b");
      else
        addFact(St, Db, L.T - R.T, "branch: !(a <u b)");
      return;
    }
    case BinOp::Eq:
    case BinOp::Ne: {
      AbsVal L = eval(St, Db, *B->lhs(), Ctx);
      AbsVal R = eval(St, Db, *B->rhs(), Ctx);
      if (L.K != AbsVal::Kind::Scalar || R.K != AbsVal::Kind::Scalar)
        return;
      bool WantEq = (B->op() == BinOp::Eq) == Taken;
      if (WantEq) {
        addFact(St, Db, L.T - R.T, "branch: a = b");
        addFact(St, Db, R.T - L.T, "branch: a = b");
      } else {
        // a ≠ b is not affine, but with one side zero and the other a
        // nonnegative word it tightens to ≥ 1.
        if (R.T.isConstant() && R.T.constPart() == 0)
          addFact(St, Db, L.T - lc(1), "branch: a != 0");
        else if (L.T.isConstant() && L.T.constPart() == 0)
          addFact(St, Db, R.T - lc(1), "branch: b != 0");
      }
      return;
    }
    case BinOp::And:
      if (Taken && isBoolish(*B->lhs()) && isBoolish(*B->rhs())) {
        refine(St, Db, *B->lhs(), true, Ctx);
        refine(St, Db, *B->rhs(), true, Ctx);
        return;
      }
      break;
    default:
      break;
    }
  }
  // Generic truthiness: a taken condition is a word ≥ 1, a fallen-through
  // one is exactly 0.
  AbsVal V = eval(St, Db, Cond, Ctx);
  if (V.K != AbsVal::Kind::Scalar)
    return;
  if (Taken)
    addFact(St, Db, V.T - lc(1), "branch: condition is nonzero");
  else
    addFact(St, Db, lc(0) - V.T, "branch: condition is zero");
}

std::optional<SymbolicDomain::State>
SymbolicDomain::edge(const Cfg &, const BasicBlock &B, const State &St,
                     bool Taken) const {
  if (B.T != BasicBlock::Term::Branch)
    return St;
  State Out = St;
  solver::FactDb Db = materialize(Out);
  EvalCtx Ctx{B.CondPath, 0};
  refine(Out, Db, *B.Cond, Taken, Ctx);
  if (Db.inconsistent())
    return std::nullopt;
  return Out;
}

/// Structural equality of abstract states: same variables bound to the
/// same terms, same fact keys, same dead regions. Fact reasons are
/// ignored — they are commentary, not meaning.
static bool SymStatesEqual(const SymState &X, const SymState &Y) {
  if (X.Env.size() != Y.Env.size() || X.Facts.size() != Y.Facts.size() ||
      X.DeadRegions != Y.DeadRegions)
    return false;
  for (auto XI = X.Env.begin(), YI = Y.Env.begin(); XI != X.Env.end();
       ++XI, ++YI)
    if (XI->first != YI->first || !XI->second.sameAs(YI->second))
      return false;
  for (auto XI = X.Facts.begin(), YI = Y.Facts.begin(); XI != X.Facts.end();
       ++XI, ++YI)
    if (XI->first != YI->first)
      return false;
  return true;
}

bool SymbolicDomain::join(unsigned BlockId, State &Into,
                          const State &From) const {
  // Change detection is by comparison against a snapshot, not by tracking
  // the individual merge steps: the fact intersection below always deletes
  // this block's own phi facts (the incoming state talks about *its*
  // symbols, never about phi$b<BlockId>$...) and the re-add step restores
  // them, a net no-op that incremental tracking would misreport as a
  // change on every visit — and the fixpoint loop would never terminate.
  const State Before = Into;

  for (auto It = Into.Env.begin(); It != Into.Env.end();) {
    auto F = From.Env.find(It->first);
    if (F == From.Env.end()) {
      It = Into.Env.erase(It);
      continue;
    }
    const AbsVal &A = It->second;
    const AbsVal &B = F->second;
    if (!A.sameAs(B)) {
      // Deterministic phi naming keyed by (block, variable): re-joining
      // reproduces the same symbol, so iteration reaches a fixpoint.
      std::string Phi = "phi$b" + std::to_string(BlockId) + "$" + It->first;
      auto IsThisPhi = [&Phi](const solver::LinTerm &T) {
        const auto &Cs = T.coeffs();
        return T.constPart() == 0 && Cs.size() == 1 &&
               Cs.begin()->second == 1 && Cs.begin()->first == Phi;
      };
      // Trivial-phi collapse (phi(x, self) = x): a side carrying exactly
      // this block's own phi symbol went around a loop without touching
      // the variable — its value *is* whatever the other side brings in.
      // Without this, one transiently-minted phi at a loop header keeps
      // the two sides unequal on every subsequent visit.
      if (IsThisPhi(B.T)) {
        ++It;
        continue;
      }
      if (IsThisPhi(A.T)) {
        It->second = B;
        ++It;
        continue;
      }
      It->second = (A.K == AbsVal::Kind::Ptr && B.K == AbsVal::Kind::Ptr &&
                    A.Region == B.Region)
                       ? AbsVal::ptr(A.Region, ls(Phi))
                       : AbsVal::scalar(ls(Phi));
    }
    ++It;
  }

  // Keep only facts established on both incoming paths.
  for (auto It = Into.Facts.begin(); It != Into.Facts.end();) {
    if (From.Facts.count(It->first))
      ++It;
    else
      It = Into.Facts.erase(It);
  }

  // Every phi of this block denotes some word value (scalars) or some
  // by-construction-nonnegative byte offset (pointers): ≥ 0 holds either
  // way. Re-added after the intersection so it survives one-sided joins.
  std::string Prefix = "phi$b" + std::to_string(BlockId) + "$";
  for (const auto &[Name, V] : Into.Env) {
    const auto &Coeffs = V.T.coeffs();
    if (Coeffs.size() == 1 && V.T.constPart() == 0 &&
        Coeffs.begin()->second == 1 &&
        Coeffs.begin()->first == Prefix + Name)
      Into.addFact(V.T, "merged value is a word / in-bounds offset");
  }

  for (int R : From.DeadRegions)
    Into.DeadRegions.insert(R);

  return !SymStatesEqual(Into, Before);
}

bool SymbolicDomain::same(const State &X, const State &Y) const {
  return SymStatesEqual(X, Y);
}

} // namespace analysis
} // namespace relc
