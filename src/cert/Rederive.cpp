//===- cert/Rederive.cpp - Independent certificate re-derivation -----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The deterministic replayer behind relc-check. Structurally this mirrors
// the two symbolic evaluators in tv/Tv.cpp — the checker must re-derive
// the same term graph the producer built, so the evaluation rules are the
// same by construction — but with the one asymmetry that makes the whole
// subsystem worth having: where the validator *searches* for a loop match
// (a backtracking bijection over carried locals), the checker *replays*
// the certificate's recorded witness and verifies the match equations
// directly. Every divergence rejects with a named reason; nothing here
// ever "fixes up" a certificate to make it pass.
//
//===----------------------------------------------------------------------===//

#include "cert/Rederive.h"
#include "support/Hash.h"

#include "analysis/Domains.h"
#include "bedrock/Ast.h"
#include "codelint/Codelint.h"
#include "support/Casting.h"
#include "support/StringExtras.h"
#include "tv/Term.h"

#include <algorithm>
#include <map>
#include <set>

namespace relc {
namespace cert {

namespace {

using tv::AffineView;
using tv::FoldInfo;
using tv::FoldRef;
using tv::FoldRegion;
using tv::NoTerm;
using tv::TermGraph;
using tv::TermId;

//===----------------------------------------------------------------------===//
// Small utilities (mirroring tv/Tv.cpp's, which live in its anonymous
// namespace and are deliberately not exported).
//===----------------------------------------------------------------------===//

/// Internal rejection escape; caught at the Rederive::check boundary.
struct CheckFail {
  Reject Why;
  std::string Detail;
};

[[noreturn]] void fail(Reject Why, const std::string &Detail) {
  throw CheckFail{Why, Detail};
}

bedrock::BinOp lowerOp(ir::WordOp Op) {
  switch (Op) {
  case ir::WordOp::Add:
    return bedrock::BinOp::Add;
  case ir::WordOp::Sub:
    return bedrock::BinOp::Sub;
  case ir::WordOp::Mul:
    return bedrock::BinOp::Mul;
  case ir::WordOp::DivU:
    return bedrock::BinOp::DivU;
  case ir::WordOp::RemU:
    return bedrock::BinOp::RemU;
  case ir::WordOp::And:
    return bedrock::BinOp::And;
  case ir::WordOp::Or:
    return bedrock::BinOp::Or;
  case ir::WordOp::Xor:
    return bedrock::BinOp::Xor;
  case ir::WordOp::Shl:
    return bedrock::BinOp::Shl;
  case ir::WordOp::LShr:
    return bedrock::BinOp::LShr;
  case ir::WordOp::AShr:
    return bedrock::BinOp::AShr;
  case ir::WordOp::LtU:
    return bedrock::BinOp::LtU;
  case ir::WordOp::LtS:
    return bedrock::BinOp::LtS;
  case ir::WordOp::Eq:
    return bedrock::BinOp::Eq;
  case ir::WordOp::Ne:
    return bedrock::BinOp::Ne;
  }
  fail(Reject::RederivationFailed, "unknown word operator");
}

std::string joinNames(const std::vector<std::string> &Names) {
  std::string Out;
  for (const std::string &N : Names) {
    if (!Out.empty())
      Out += ",";
    Out += N;
  }
  return Out;
}

std::string joinSet(const std::set<std::string> &S) {
  std::string Out;
  for (const std::string &N : S) {
    if (!Out.empty())
      Out += ",";
    Out += N;
  }
  return Out;
}

std::string clip(const std::string &S, size_t Max = 96) {
  if (S.size() <= Max)
    return S;
  return S.substr(0, Max) + "...";
}

uint64_t tableMax(const std::vector<uint64_t> &Elements) {
  uint64_t M = 0;
  for (uint64_t E : Elements)
    M = std::max(M, E);
  return M;
}

bool isLoopForm(const ir::BoundForm &B) {
  switch (B.kind()) {
  case ir::BoundForm::Kind::ListMap:
  case ir::BoundForm::Kind::ListFold:
  case ir::BoundForm::Kind::FoldBreak:
  case ir::BoundForm::Kind::RangeFold:
  case ir::BoundForm::Kind::WhileComb:
    return true;
  default:
    return false;
  }
}

bool progHasLoop(const ir::Prog &P) {
  for (const ir::Binding &B : P.bindings()) {
    if (isLoopForm(*B.Bound))
      return true;
    if (const auto *IB = dyn_cast<ir::IfBound>(B.Bound.get()))
      if (progHasLoop(*IB->thenProg()) || progHasLoop(*IB->elseProg()))
        return true;
  }
  return false;
}

void collectProgWrites(const ir::Prog &P, std::set<std::string> &Out) {
  for (const ir::Binding &B : P.bindings()) {
    if (const auto *AP = dyn_cast<ir::ArrayPut>(B.Bound.get()))
      Out.insert(AP->array());
    else if (const auto *CP = dyn_cast<ir::CellPut>(B.Bound.get()))
      Out.insert(CP->cell());
    else if (const auto *CI = dyn_cast<ir::CellIncr>(B.Bound.get()))
      Out.insert(CI->cell());
    else if (const auto *IB = dyn_cast<ir::IfBound>(B.Bound.get())) {
      collectProgWrites(*IB->thenProg(), Out);
      collectProgWrites(*IB->elseProg(), Out);
    }
  }
}

//===----------------------------------------------------------------------===//
// Symbolic states (same shape as the producer's).
//===----------------------------------------------------------------------===//

struct SrcArr {
  std::string Region;
  TermId Len = NoTerm;
  unsigned EltBytes = 1;
};

struct SrcState {
  std::map<std::string, TermId> Scal;
  std::map<std::string, SrcArr> Arr;
  std::set<std::string> Cells;
  std::map<std::string, TermId> Region;
};

struct TgtState {
  std::map<std::string, TermId> Locals;
  std::map<std::string, TermId> Region;
  std::map<std::string, std::string> LocalDef;
  std::map<std::string, std::string> RegionDef;
};

struct SrcLoopRec {
  TermId Fold = NoTerm;
  std::string BindingName;
  std::string Path;
};

//===----------------------------------------------------------------------===//
// The replayer.
//===----------------------------------------------------------------------===//

class Replayer {
public:
  Replayer(const Certificate &Cert, const ir::SourceFn &Src,
           const sep::FnSpec &Spec, const bedrock::Function &Fn,
           const analysis::EntryFactList &Hints)
      : Cert(Cert), Src(Src), Spec(Spec), Fn(Fn),
        Abi(analysis::makeAbiInfo(Fn, Spec, Src, Hints)) {
    G.setEntryFacts(&Abi.EntryFacts);
  }

  CheckResult run() {
    if (Src.TheMonad != ir::Monad::Pure)
      fail(Reject::RederivationFailed,
           std::string("model is in the ") + ir::monadName(Src.TheMonad) +
               " monad; a proved certificate is impossible");
    checkTables();
    setupRegions();
    SrcState SS = sourceEntry();
    evalSrcProg(*Src.Body, SS, "");
    TgtState TT = targetEntry();
    execBlock(Fn.Body.get(), TT, "body");
    return compareTrace(SS, TT);
  }

private:
  const Certificate &Cert;
  const ir::SourceFn &Src;
  const sep::FnSpec &Spec;
  const bedrock::Function &Fn;
  analysis::AbiInfo Abi;
  TermGraph G;

  std::vector<BindingRec> DerivedBindings;
  std::vector<LoopRec> DerivedLoops;

  std::map<std::string, unsigned> RegionWidth;
  std::map<TermId, std::string> PtrRegion;
  std::vector<SrcLoopRec> SrcLoops;
  unsigned TgtCursor = 0;
  std::map<std::string, std::string> LastSrcBind;
  std::set<std::string> *CurStores = nullptr;

  std::string canonSym(unsigned Loop, unsigned Pos) const {
    return "%L" + std::to_string(Loop) + ".c" + std::to_string(Pos);
  }
  std::string canonRegionSym(unsigned Loop, const std::string &R) const {
    return "%L" + std::to_string(Loop) + ".r." + R;
  }

  //===--------------------------------------------------------------------===//
  // Entry states.
  //===--------------------------------------------------------------------===//

  void checkTables() {
    for (const bedrock::InlineTable &T : Fn.Tables) {
      const ir::TableDef *D = Src.findTable(T.Name);
      if (!D)
        fail(Reject::RederivationFailed,
             "inline table '" + T.Name + "' has no counterpart in the model");
      if (bedrock::sizeBytes(T.EltSize) != ir::eltSize(D->Elt))
        fail(Reject::RederivationFailed,
             "inline table '" + T.Name +
                 "' element width differs from the model's");
      if (T.Elements != D->Elements)
        fail(Reject::RederivationFailed,
             "inline table '" + T.Name + "' contents differ from the model");
    }
  }

  void setupRegions() {
    for (const ir::Param &P : Src.Params) {
      if (P.TheKind == ir::Param::Kind::List)
        RegionWidth[P.Name] = ir::eltSize(P.Elt);
      else if (P.TheKind == ir::Param::Kind::Cell)
        RegionWidth[P.Name] = 8;
    }
  }

  SrcState sourceEntry() {
    std::map<std::string, std::string> CanonScalar;
    for (const sep::ArgSpec &A : Spec.Args)
      if (A.TheKind == sep::ArgSpec::Kind::ArrayLen)
        CanonScalar[A.SourceName] = "len_" + A.OfArray;

    SrcState S;
    for (const ir::Param &P : Src.Params) {
      switch (P.TheKind) {
      case ir::Param::Kind::ScalarWord: {
        auto It = CanonScalar.find(P.Name);
        S.Scal[P.Name] = G.sym(It != CanonScalar.end() ? It->second : P.Name);
        break;
      }
      case ir::Param::Kind::List: {
        unsigned W = ir::eltSize(P.Elt);
        S.Arr[P.Name] = {P.Name, G.sym("len_" + P.Name), W};
        S.Region[P.Name] = G.arrInit(P.Name, W);
        break;
      }
      case ir::Param::Kind::Cell:
        S.Cells.insert(P.Name);
        S.Region[P.Name] = G.arrInit(P.Name, 8);
        break;
      }
    }
    return S;
  }

  TgtState targetEntry() {
    TgtState T;
    for (const sep::ArgSpec &A : Spec.Args) {
      switch (A.TheKind) {
      case sep::ArgSpec::Kind::Scalar:
        T.Locals[A.TargetName] = G.sym(A.SourceName);
        break;
      case sep::ArgSpec::Kind::ArrayLen:
        T.Locals[A.TargetName] = G.sym("len_" + A.OfArray);
        break;
      case sep::ArgSpec::Kind::ArrayPtr:
      case sep::ArgSpec::Kind::CellPtr: {
        TermId P = G.sym("ptr_" + A.SourceName);
        T.Locals[A.TargetName] = P;
        PtrRegion[P] = A.SourceName;
        break;
      }
      }
      T.LocalDef[A.TargetName] = "entry";
    }
    for (const auto &[R, W] : RegionWidth) {
      T.Region[R] = G.arrInit(R, W);
      T.RegionDef[R] = "entry";
    }
    return T;
  }

  //===--------------------------------------------------------------------===//
  // Source evaluation.
  //===--------------------------------------------------------------------===//

  TermId evalSrcExpr(const ir::Expr &E, const SrcState &S) {
    switch (E.kind()) {
    case ir::Expr::Kind::Const:
      return G.constant(cast<ir::Const>(&E)->value().scalar());
    case ir::Expr::Kind::VarRef: {
      const std::string &N = cast<ir::VarRef>(&E)->name();
      auto It = S.Scal.find(N);
      if (It == S.Scal.end())
        fail(Reject::RederivationFailed,
             "model references '" + N + "' where no scalar value is tracked");
      return It->second;
    }
    case ir::Expr::Kind::Bin: {
      const auto *B = cast<ir::Bin>(&E);
      TermId L = evalSrcExpr(*B->lhs(), S);
      TermId R = evalSrcExpr(*B->rhs(), S);
      return G.bin(lowerOp(B->op()), L, R);
    }
    case ir::Expr::Kind::Select: {
      const auto *Sel = cast<ir::Select>(&E);
      TermId C = evalSrcExpr(*Sel->cond(), S);
      TermId T = evalSrcExpr(*Sel->thenExpr(), S);
      TermId F = evalSrcExpr(*Sel->elseExpr(), S);
      return G.select(C, T, F);
    }
    case ir::Expr::Kind::Cast: {
      const auto *C = cast<ir::Cast>(&E);
      TermId Op = evalSrcExpr(*C->operand(), S);
      switch (C->castKind()) {
      case ir::CastKind::ByteToWord:
      case ir::CastKind::BoolToWord:
        return Op;
      case ir::CastKind::WordToByte:
        return G.bin(bedrock::BinOp::And, Op, G.constant(0xff));
      }
      fail(Reject::RederivationFailed, "unknown cast");
    }
    case ir::Expr::Kind::ArrayGet: {
      const auto *AG = cast<ir::ArrayGet>(&E);
      auto It = S.Arr.find(AG->array());
      if (It == S.Arr.end())
        fail(Reject::RederivationFailed,
             "model reads array '" + AG->array() + "' which is not tracked");
      TermId Idx = evalSrcExpr(*AG->index(), S);
      return G.elt(S.Region.at(It->second.Region), Idx);
    }
    case ir::Expr::Kind::TableGet: {
      const auto *TG = cast<ir::TableGet>(&E);
      const ir::TableDef *D = Src.findTable(TG->table());
      if (!D)
        fail(Reject::RederivationFailed,
             "model reads unknown table '" + TG->table() + "'");
      TermId Idx = evalSrcExpr(*TG->index(), S);
      return G.tableElt(D->Name, ir::eltSize(D->Elt), tableMax(D->Elements),
                        Idx);
    }
    }
    fail(Reject::RederivationFailed, "unknown expression kind");
  }

  uint64_t srcValueHash(const SrcState &S, const std::string &Name) const {
    auto SIt = S.Scal.find(Name);
    if (SIt != S.Scal.end())
      return G.hashOf(SIt->second);
    auto AIt = S.Arr.find(Name);
    if (AIt != S.Arr.end())
      return G.hashOf(S.Region.at(AIt->second.Region));
    if (S.Cells.count(Name))
      return G.hashOf(S.Region.at(Name));
    return 0;
  }

  void recordBinding(const ir::Binding &B, const SrcState &S,
                     const std::string &Path) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (const std::string &N : B.Names) {
      H = hash::fnv1a64Word(srcValueHash(S, N), H);
      LastSrcBind[N] = Path + ": let " + joinNames(B.Names) + " := " +
                       clip(B.Bound->str());
    }
    DerivedBindings.push_back({Path, joinNames(B.Names), H});
  }

  void evalSrcProg(const ir::Prog &P, SrcState &S, const std::string &Prefix) {
    const std::vector<ir::Binding> &Bs = P.bindings();
    for (size_t I = 0; I < Bs.size(); ++I)
      evalSrcBinding(Bs[I], S, Prefix + std::to_string(I));
  }

  void evalSrcBinding(const ir::Binding &B, SrcState &S,
                      const std::string &Path) {
    using K = ir::BoundForm::Kind;
    switch (B.Bound->kind()) {
    case K::PureVal: {
      if (B.Names.size() != 1)
        fail(Reject::RederivationFailed, "multi-name pure binding");
      S.Scal[B.Names[0]] =
          evalSrcExpr(*cast<ir::PureVal>(B.Bound.get())->expr(), S);
      break;
    }
    case K::ArrayPut: {
      const auto *AP = cast<ir::ArrayPut>(B.Bound.get());
      if (B.Names.size() != 1 || B.Names[0] != AP->array())
        fail(Reject::RederivationFailed,
             "array put must rebind the array's own name");
      auto It = S.Arr.find(AP->array());
      if (It == S.Arr.end())
        fail(Reject::RederivationFailed,
             "put into untracked array '" + AP->array() + "'");
      TermId Idx = evalSrcExpr(*AP->index(), S);
      TermId Val = evalSrcExpr(*AP->val(), S);
      const std::string &R = It->second.Region;
      S.Region[R] = G.arrStore(S.Region.at(R), Idx, Val);
      break;
    }
    case K::CellGet: {
      const auto *CG = cast<ir::CellGet>(B.Bound.get());
      if (!S.Cells.count(CG->cell()))
        fail(Reject::RederivationFailed,
             "get from untracked cell '" + CG->cell() + "'");
      S.Scal[B.Names[0]] = G.elt(S.Region.at(CG->cell()), G.constant(0));
      break;
    }
    case K::CellPut: {
      const auto *CP = cast<ir::CellPut>(B.Bound.get());
      if (B.Names.size() != 1 || B.Names[0] != CP->cell() ||
          !S.Cells.count(CP->cell()))
        fail(Reject::RederivationFailed,
             "cell put must rebind the cell's own name");
      TermId V = evalSrcExpr(*CP->expr(), S);
      S.Region[CP->cell()] =
          G.arrStore(S.Region.at(CP->cell()), G.constant(0), V);
      break;
    }
    case K::CellIncr: {
      const auto *CI = cast<ir::CellIncr>(B.Bound.get());
      if (B.Names.size() != 1 || B.Names[0] != CI->cell() ||
          !S.Cells.count(CI->cell()))
        fail(Reject::RederivationFailed,
             "cell incr must rebind the cell's own name");
      TermId Cur = G.elt(S.Region.at(CI->cell()), G.constant(0));
      TermId V = G.bin(bedrock::BinOp::Add, Cur, evalSrcExpr(*CI->expr(), S));
      S.Region[CI->cell()] =
          G.arrStore(S.Region.at(CI->cell()), G.constant(0), V);
      break;
    }
    case K::IfBound:
      evalSrcIf(B, S, Path);
      break;
    case K::ListMap:
    case K::ListFold:
    case K::FoldBreak:
    case K::RangeFold:
    case K::WhileComb:
      evalSrcLoop(B, S, Path);
      break;
    default:
      fail(Reject::RederivationFailed,
           "binding form '" + clip(B.Bound->str(), 48) +
               "' is outside the modeled fragment");
    }
    recordBinding(B, S, Path);
  }

  void evalSrcIf(const ir::Binding &B, SrcState &S, const std::string &Path) {
    const auto *IB = cast<ir::IfBound>(B.Bound.get());
    TermId C = evalSrcExpr(*IB->cond(), S);
    SrcState TS = S, ES = S;
    evalSrcProg(*IB->thenProg(), TS, Path + ".then.");
    evalSrcProg(*IB->elseProg(), ES, Path + ".else.");
    const std::vector<std::string> &TR = IB->thenProg()->returns();
    const std::vector<std::string> &ER = IB->elseProg()->returns();
    if (TR.size() != B.Names.size() || ER.size() != B.Names.size())
      fail(Reject::RederivationFailed, "conditional binding arity mismatch");
    for (auto &[R, Contents] : S.Region)
      Contents = G.arrSelect(C, TS.Region.at(R), ES.Region.at(R));
    for (size_t J = 0; J < B.Names.size(); ++J) {
      bool ThenArr = TS.Arr.count(TR[J]) != 0;
      bool ElseArr = ES.Arr.count(ER[J]) != 0;
      if (ThenArr != ElseArr)
        fail(Reject::RederivationFailed,
             "conditional branches return values of different kinds");
      if (ThenArr) {
        const SrcArr &A1 = TS.Arr.at(TR[J]);
        const SrcArr &A2 = ES.Arr.at(ER[J]);
        if (A1.Region != A2.Region)
          fail(Reject::RederivationFailed,
               "conditional branches return different arrays");
        S.Arr[B.Names[J]] = A1;
        continue;
      }
      auto TI = TS.Scal.find(TR[J]);
      auto EI = ES.Scal.find(ER[J]);
      if (TI == TS.Scal.end() || EI == ES.Scal.end())
        fail(Reject::RederivationFailed,
             "conditional branch result '" + TR[J] +
                 "' is not a tracked scalar");
      S.Scal[B.Names[J]] = G.select(C, TI->second, EI->second);
    }
  }

  void evalSrcLoop(const ir::Binding &B, SrcState &S, const std::string &Path) {
    unsigned K = unsigned(SrcLoops.size());
    FoldInfo FI;
    TermId F = NoTerm;

    auto Carried = [&](unsigned Pos) { return G.sym(canonSym(K, Pos)); };

    switch (B.Bound->kind()) {
    case ir::BoundForm::Kind::ListMap: {
      const auto *M = cast<ir::ListMap>(B.Bound.get());
      if (B.Names.size() != 1 || B.Names[0] != M->array())
        fail(Reject::RederivationFailed, "map must rebind its array in place");
      auto It = S.Arr.find(M->array());
      if (It == S.Arr.end())
        fail(Reject::RederivationFailed,
             "map over untracked array '" + M->array() + "'");
      const std::string R = It->second.Region;
      unsigned W = It->second.EltBytes;
      TermId Entry = S.Region.at(R);
      TermId I = Carried(0);
      TermId Hav = G.arrHavoc(canonRegionSym(K, R), W);
      SrcState BS = S;
      BS.Region[R] = Hav;
      BS.Scal[M->param()] = G.elt(Hav, I);
      TermId V = evalSrcExpr(*M->body(), BS);
      FI.NumCarried = 1;
      FI.Guard = G.bin(bedrock::BinOp::LtU, I, It->second.Len);
      FI.Inits = {G.constant(0)};
      FI.Nexts = {G.bin(bedrock::BinOp::Add, I, G.constant(1))};
      FI.Regions = {{R, Entry, G.arrStore(Hav, I, V)}};
      F = G.fold(FI);
      S.Region[R] = G.foldOutArr(F, R);
      break;
    }
    case ir::BoundForm::Kind::ListFold:
    case ir::BoundForm::Kind::FoldBreak: {
      std::string ArrName, AccP, EltP;
      const ir::Expr *InitE, *BodyE, *BreakE = nullptr;
      if (const auto *FL = dyn_cast<ir::ListFold>(B.Bound.get())) {
        ArrName = FL->array();
        AccP = FL->accParam();
        EltP = FL->eltParam();
        InitE = FL->init();
        BodyE = FL->body();
      } else {
        const auto *FB = cast<ir::FoldBreak>(B.Bound.get());
        ArrName = FB->array();
        AccP = FB->accParam();
        EltP = FB->eltParam();
        InitE = FB->init();
        BodyE = FB->body();
        BreakE = FB->breakCond();
      }
      if (B.Names.size() != 1)
        fail(Reject::RederivationFailed, "fold must bind exactly one name");
      auto It = S.Arr.find(ArrName);
      if (It == S.Arr.end())
        fail(Reject::RederivationFailed,
             "fold over untracked array '" + ArrName + "'");
      const std::string R = It->second.Region;
      TermId I = Carried(0), A = Carried(1);
      TermId InitT = evalSrcExpr(*InitE, S);
      SrcState BS = S;
      BS.Scal[AccP] = A;
      BS.Scal[EltP] = G.elt(S.Region.at(R), I);
      TermId Next = evalSrcExpr(*BodyE, BS);
      FI.NumCarried = 2;
      FI.Guard = G.bin(bedrock::BinOp::LtU, I, It->second.Len);
      if (BreakE) {
        SrcState GS = S;
        GS.Scal[AccP] = A;
        TermId Brk = evalSrcExpr(*BreakE, GS);
        FI.Guard = G.bin(bedrock::BinOp::And, FI.Guard,
                         G.bin(bedrock::BinOp::Eq, Brk, G.constant(0)));
      }
      FI.Inits = {G.constant(0), InitT};
      FI.Nexts = {G.bin(bedrock::BinOp::Add, I, G.constant(1)), Next};
      F = G.fold(FI);
      S.Scal[B.Names[0]] = G.foldOut(F, 1);
      break;
    }
    case ir::BoundForm::Kind::RangeFold:
    case ir::BoundForm::Kind::WhileComb: {
      const auto *RF = dyn_cast<ir::RangeFold>(B.Bound.get());
      const auto *WC = dyn_cast<ir::WhileComb>(B.Bound.get());
      const std::vector<ir::AccInit> &Accs = RF ? RF->accs() : WC->accs();
      const ir::Prog &Body = RF ? *RF->body() : *WC->body();
      if (progHasLoop(Body))
        fail(Reject::RederivationFailed, "nested loops are not summarized");
      if (Accs.size() != B.Names.size())
        fail(Reject::RederivationFailed, "loop accumulator arity mismatch");
      for (size_t J = 0; J < Accs.size(); ++J)
        if (Accs[J].Name != B.Names[J])
          fail(Reject::RederivationFailed,
               "loop accumulators must be bound under their names");

      struct ScalAcc {
        std::string Name;
        unsigned Pos;
        TermId Init;
      };
      std::vector<ScalAcc> Scals;
      std::vector<std::string> ArrAccs;
      unsigned NextPos = RF ? 1 : 0;
      for (const ir::AccInit &A : Accs) {
        const auto *V = dyn_cast<ir::VarRef>(A.Init.get());
        if (V && S.Arr.count(V->name())) {
          if (V->name() != A.Name)
            fail(Reject::RederivationFailed,
                 "array accumulator must be initialized by itself");
          ArrAccs.push_back(A.Name);
          continue;
        }
        Scals.push_back({A.Name, NextPos++, evalSrcExpr(*A.Init, S)});
      }

      std::set<std::string> Writes;
      collectProgWrites(Body, Writes);
      std::map<std::string, TermId> Entries;

      SrcState BS = S;
      TermId I = NoTerm;
      TermId Lo = NoTerm, Hi = NoTerm;
      if (RF) {
        Lo = evalSrcExpr(*RF->lo(), S);
        Hi = evalSrcExpr(*RF->hi(), S);
        I = Carried(0);
        BS.Scal[RF->idxName()] = I;
      }
      for (const ScalAcc &A : Scals)
        BS.Scal[A.Name] = Carried(A.Pos);
      for (const std::string &WName : Writes) {
        std::string R;
        if (auto It = S.Arr.find(WName); It != S.Arr.end())
          R = It->second.Region;
        else if (S.Cells.count(WName))
          R = WName;
        else
          fail(Reject::RederivationFailed,
               "loop body writes untracked '" + WName + "'");
        Entries[R] = S.Region.at(R);
        BS.Region[R] = G.arrHavoc(canonRegionSym(K, R), RegionWidth.at(R));
      }

      if (RF)
        FI.Guard = G.bin(bedrock::BinOp::LtU, I, Hi);
      else
        FI.Guard = evalSrcExpr(*WC->cond(), BS);

      evalSrcProg(Body, BS, Path + ".body.");
      const std::vector<std::string> &Rets = Body.returns();
      if (Rets.size() != Accs.size())
        fail(Reject::RederivationFailed, "loop body return arity mismatch");

      FI.NumCarried = (RF ? 1 : 0) + unsigned(Scals.size());
      FI.Inits.resize(FI.NumCarried);
      FI.Nexts.resize(FI.NumCarried);
      if (RF) {
        FI.Inits[0] = Lo;
        FI.Nexts[0] = G.bin(bedrock::BinOp::Add, I, G.constant(1));
      }
      for (const ScalAcc &A : Scals) {
        size_t AccIdx = 0;
        for (; AccIdx < Accs.size(); ++AccIdx)
          if (Accs[AccIdx].Name == A.Name)
            break;
        auto It = BS.Scal.find(Rets[AccIdx]);
        if (It == BS.Scal.end())
          fail(Reject::RederivationFailed,
               "loop body result '" + Rets[AccIdx] +
                   "' is not a tracked scalar");
        FI.Inits[A.Pos] = A.Init;
        FI.Nexts[A.Pos] = It->second;
      }
      for (const std::string &AName : ArrAccs) {
        size_t AccIdx = 0;
        for (; AccIdx < Accs.size(); ++AccIdx)
          if (Accs[AccIdx].Name == AName)
            break;
        if (Rets[AccIdx] != AName)
          fail(Reject::RederivationFailed,
               "array accumulator must be returned under its name");
      }
      for (const auto &[R, Entry] : Entries)
        FI.Regions.push_back({R, Entry, BS.Region.at(R)});

      F = G.fold(FI);
      for (const ScalAcc &A : Scals)
        S.Scal[A.Name] = G.foldOut(F, A.Pos);
      for (const auto &[R, Entry] : Entries)
        S.Region[R] = G.foldOutArr(F, R);
      break;
    }
    default:
      fail(Reject::RederivationFailed, "not a loop binding");
    }

    SrcLoops.push_back({F, joinNames(B.Names), Path});
    LoopRec DL;
    DL.Ordinal = K;
    DL.Binding = joinNames(B.Names);
    DL.Path = Path;
    DL.FoldHash = G.hashOf(F);
    DL.Carried = FI.NumCarried;
    DL.Regions = unsigned(FI.Regions.size());
    DerivedLoops.push_back(std::move(DL));
  }

  //===--------------------------------------------------------------------===//
  // Target execution.
  //===--------------------------------------------------------------------===//

  TermId evalTgtExpr(const bedrock::Expr &E, const TgtState &T) {
    switch (E.kind()) {
    case bedrock::Expr::Kind::Literal:
      return G.constant(cast<bedrock::Literal>(&E)->value());
    case bedrock::Expr::Kind::Var: {
      const std::string &N = cast<bedrock::Var>(&E)->name();
      auto It = T.Locals.find(N);
      if (It == T.Locals.end())
        fail(Reject::RederivationFailed,
             "target reads local '" + N + "' with no tracked value");
      return It->second;
    }
    case bedrock::Expr::Kind::Bin: {
      const auto *B = cast<bedrock::Bin>(&E);
      TermId L = evalTgtExpr(*B->lhs(), T);
      TermId R = evalTgtExpr(*B->rhs(), T);
      return G.bin(B->op(), L, R);
    }
    case bedrock::Expr::Kind::Load: {
      const auto *L = cast<bedrock::Load>(&E);
      TermId Addr = evalTgtExpr(*L->addr(), T);
      auto [R, Idx] = resolveAddr(Addr, bedrock::sizeBytes(L->size()));
      return G.elt(T.Region.at(R), Idx);
    }
    case bedrock::Expr::Kind::TableGet: {
      const auto *TG = cast<bedrock::TableGet>(&E);
      const ir::TableDef *D = Src.findTable(TG->table());
      if (!D)
        fail(Reject::RederivationFailed,
             "table read from unknown table '" + TG->table() + "'");
      if (bedrock::sizeBytes(TG->size()) != ir::eltSize(D->Elt))
        fail(Reject::RederivationFailed,
             "table read width differs from the model table");
      TermId Idx = evalTgtExpr(*TG->index(), T);
      return G.tableElt(D->Name, ir::eltSize(D->Elt), tableMax(D->Elements),
                        Idx);
    }
    }
    fail(Reject::RederivationFailed, "unknown target expression");
  }

  std::pair<std::string, TermId> resolveAddr(TermId Addr, unsigned Bytes) {
    AffineView V = G.affine(Addr);
    TermId PtrAtom = NoTerm;
    std::string Reg;
    for (const auto &[Atom, C] : V.Coeffs) {
      auto It = PtrRegion.find(Atom);
      if (It == PtrRegion.end())
        continue;
      if (PtrAtom != NoTerm)
        fail(Reject::RederivationFailed, "address combines two region pointers");
      if (C != 1)
        fail(Reject::RederivationFailed, "address scales a region pointer");
      PtrAtom = Atom;
      Reg = It->second;
    }
    if (PtrAtom == NoTerm)
      fail(Reject::RederivationFailed,
           "memory access with no resolvable region pointer");
    unsigned W = RegionWidth.at(Reg);
    if (W != Bytes)
      fail(Reject::RederivationFailed,
           "access width differs from region '" + Reg + "' element width");
    AffineView IdxV;
    for (const auto &[Atom, C] : V.Coeffs) {
      if (Atom == PtrAtom)
        continue;
      if (int64_t(C) % int64_t(W) != 0)
        fail(Reject::RederivationFailed, "address offset is not element-aligned");
      IdxV.Coeffs[Atom] = uint64_t(int64_t(C) / int64_t(W));
    }
    if (int64_t(V.K) % int64_t(W) != 0)
      fail(Reject::RederivationFailed, "address constant is not element-aligned");
    IdxV.K = uint64_t(int64_t(V.K) / int64_t(W));
    return {Reg, G.fromAffine(IdxV)};
  }

  static void flatten(const bedrock::Cmd *C,
                      std::vector<const bedrock::Cmd *> &Out) {
    if (const auto *S = dyn_cast<bedrock::Seq>(C)) {
      flatten(S->first(), Out);
      flatten(S->second(), Out);
      return;
    }
    if (isa<bedrock::Skip>(C))
      return;
    Out.push_back(C);
  }

  void execBlock(const bedrock::Cmd *C, TgtState &T, const std::string &Path) {
    std::vector<const bedrock::Cmd *> Stmts;
    flatten(C, Stmts);
    for (size_t I = 0; I < Stmts.size(); ++I)
      execStmt(*Stmts[I], T, Path + "." + std::to_string(I));
  }

  void execStmt(const bedrock::Cmd &C, TgtState &T, const std::string &Path) {
    switch (C.kind()) {
    case bedrock::Cmd::Kind::Skip:
      return;
    case bedrock::Cmd::Kind::Set: {
      const auto *S = cast<bedrock::Set>(&C);
      T.Locals[S->name()] = evalTgtExpr(*S->value(), T);
      T.LocalDef[S->name()] = Path;
      return;
    }
    case bedrock::Cmd::Kind::Unset: {
      const auto *U = cast<bedrock::Unset>(&C);
      T.Locals.erase(U->name());
      T.LocalDef.erase(U->name());
      return;
    }
    case bedrock::Cmd::Kind::Store: {
      const auto *S = cast<bedrock::Store>(&C);
      TermId Addr = evalTgtExpr(*S->addr(), T);
      TermId Val = evalTgtExpr(*S->value(), T);
      auto [R, Idx] = resolveAddr(Addr, bedrock::sizeBytes(S->size()));
      T.Region[R] = G.arrStore(T.Region.at(R), Idx, Val);
      T.RegionDef[R] = Path;
      if (CurStores)
        CurStores->insert(R);
      return;
    }
    case bedrock::Cmd::Kind::If: {
      const auto *I = cast<bedrock::If>(&C);
      TermId Cond = evalTgtExpr(*I->cond(), T);
      TgtState A = T, B = T;
      execBlock(I->thenCmd(), A, Path + ".then");
      execBlock(I->elseCmd(), B, Path + ".else");
      joinStates(Cond, T, A, B, Path);
      return;
    }
    case bedrock::Cmd::Kind::While:
      checkLoop(*cast<bedrock::While>(&C), T, Path);
      return;
    case bedrock::Cmd::Kind::Seq:
      execBlock(&C, T, Path);
      return;
    case bedrock::Cmd::Kind::Call:
      fail(Reject::RederivationFailed,
           "target calls '" + cast<bedrock::Call>(&C)->callee() +
               "'; calls are outside the modeled fragment");
    case bedrock::Cmd::Kind::Stackalloc:
      fail(Reject::RederivationFailed,
           "stackalloc is outside the modeled fragment");
    case bedrock::Cmd::Kind::Interact:
      fail(Reject::RederivationFailed,
           "environment interaction is outside the modeled fragment");
    }
  }

  void joinStates(TermId Cond, TgtState &T, const TgtState &A,
                  const TgtState &B, const std::string &Path) {
    std::map<std::string, TermId> L;
    std::map<std::string, std::string> LD;
    for (const auto &[N, VA] : A.Locals) {
      auto It = B.Locals.find(N);
      if (It == B.Locals.end())
        continue;
      L[N] = VA == It->second ? VA : G.select(Cond, VA, It->second);
      if (VA == It->second) {
        auto DIt = A.LocalDef.find(N);
        LD[N] = DIt != A.LocalDef.end() ? DIt->second : Path;
      } else {
        LD[N] = Path;
      }
    }
    T.Locals = std::move(L);
    T.LocalDef = std::move(LD);
    for (auto &[R, Contents] : T.Region) {
      TermId VA = A.Region.at(R), VB = B.Region.at(R);
      if (VA == VB) {
        Contents = VA;
        T.RegionDef[R] = A.RegionDef.at(R);
      } else {
        Contents = G.arrSelect(Cond, VA, VB);
        T.RegionDef[R] = Path;
      }
    }
  }

  void scanLoopBody(const bedrock::Cmd *C, std::set<std::string> &Assigned) {
    switch (C->kind()) {
    case bedrock::Cmd::Kind::Skip:
    case bedrock::Cmd::Kind::Store:
      return;
    case bedrock::Cmd::Kind::Set:
      Assigned.insert(cast<bedrock::Set>(C)->name());
      return;
    case bedrock::Cmd::Kind::Seq: {
      const auto *S = cast<bedrock::Seq>(C);
      scanLoopBody(S->first(), Assigned);
      scanLoopBody(S->second(), Assigned);
      return;
    }
    case bedrock::Cmd::Kind::If: {
      const auto *I = cast<bedrock::If>(C);
      scanLoopBody(I->thenCmd(), Assigned);
      scanLoopBody(I->elseCmd(), Assigned);
      return;
    }
    case bedrock::Cmd::Kind::While:
      fail(Reject::RederivationFailed, "nested target loops are not summarized");
    case bedrock::Cmd::Kind::Unset:
      fail(Reject::RederivationFailed, "unset inside a loop body");
    default:
      fail(Reject::RederivationFailed,
           "unsupported statement inside a loop body");
    }
  }

  /// The producer's matchLoop, with the search replaced by witness replay:
  /// the certificate says which target local implements each carried
  /// position and which regions the loop stores to, and this function
  /// verifies the resulting renaming satisfies the guard, step, and region
  /// equations — deterministically, in one pass.
  void checkLoop(const bedrock::While &W, TgtState &T, const std::string &Path) {
    unsigned K = TgtCursor++;
    if (K >= SrcLoops.size())
      fail(Reject::RederivationFailed,
           "target loop at " + Path + " has no corresponding loop in the model");
    if (K >= Cert.Loops.size())
      fail(Reject::TruncatedTrace,
           "target loop #" + std::to_string(K) +
               " has no loop record in the certificate");
    const LoopRec &CL = Cert.Loops[K];
    const SrcLoopRec &SL = SrcLoops[K];
    FoldRef FI = G.foldInfo(SL.Fold);

    std::set<std::string> Assigned;
    scanLoopBody(W.body(), Assigned);

    // Discovery pass: havoc everything, record which regions the body
    // stores to (addresses never depend on contents, so the store set is
    // the same in the precise pass).
    std::set<std::string> Stored;
    {
      TgtState A = T;
      for (const std::string &V : Assigned)
        A.Locals[V] = G.sym("%TA" + std::to_string(K) + "." + V);
      for (auto &[R, Contents] : A.Region)
        Contents = G.arrHavoc("%TA" + std::to_string(K) + ".R." + R,
                              RegionWidth.at(R));
      CurStores = &Stored;
      execBlock(W.body(), A, Path + ".body");
      CurStores = nullptr;
    }

    // Precise pass: havoc only the assigned locals and the stored regions.
    TgtState B = T;
    std::map<std::string, TermId> HavocOf;
    for (const std::string &V : Assigned) {
      HavocOf[V] = G.sym("%T" + std::to_string(K) + "." + V);
      B.Locals[V] = HavocOf[V];
    }
    std::map<std::string, TermId> RegionHavoc;
    for (const std::string &R : Stored) {
      RegionHavoc[R] =
          G.arrHavoc("%T" + std::to_string(K) + ".R." + R, RegionWidth.at(R));
      B.Region[R] = RegionHavoc[R];
    }
    TermId GuardT = evalTgtExpr(*W.cond(), B);
    {
      std::set<std::string> Stored2;
      CurStores = &Stored2;
      execBlock(W.body(), B, Path + ".body");
      CurStores = nullptr;
      if (Stored2 != Stored)
        fail(Reject::RederivationFailed,
             "loop store set depends on memory contents");
    }

    std::set<std::string> SrcRegs;
    for (unsigned RI = 0, RE = FI.numRegions(); RI < RE; ++RI)
      SrcRegs.insert(FI.regionName(RI));
    if (SrcRegs != Stored)
      fail(Reject::RederivationFailed,
           "loop at " + Path + " writes regions {" + joinSet(Stored) +
               "} but model binding '" + SL.BindingName + "' (" + SL.Path +
               ") writes {" + joinSet(SrcRegs) + "}");

    // The witness must name this While, the derived store set, and exactly
    // one assigned local per carried position.
    if (CL.TargetPath != Path)
      fail(Reject::LoopWitnessMismatch,
           "loop #" + std::to_string(K) + " witness names the While at '" +
               CL.TargetPath + "' but it executes at '" + Path + "'");
    std::set<std::string> WitRegs(CL.WitnessRegions.begin(),
                                  CL.WitnessRegions.end());
    if (WitRegs != Stored)
      fail(Reject::LoopWitnessMismatch,
           "loop #" + std::to_string(K) + " witness region set {" +
               joinSet(WitRegs) + "} differs from the derived store set {" +
               joinSet(Stored) + "}");
    if (CL.WitnessLocals.size() != FI.numCarried())
      fail(Reject::LoopWitnessMismatch,
           "loop #" + std::to_string(K) + " witness maps " +
               std::to_string(CL.WitnessLocals.size()) +
               " locals but the model carries " +
               std::to_string(FI.numCarried()) + " values");

    // Replay: build the recorded renaming and verify the match equations.
    std::map<TermId, TermId> Ren;
    for (const std::string &R : Stored)
      Ren[RegionHavoc[R]] =
          G.arrHavoc(canonRegionSym(K, R), RegionWidth.at(R));

    struct Picked {
      std::string Name;
      TermId Next;
    };
    std::vector<Picked> Picks;
    std::set<std::string> SeenLocals;
    for (unsigned J = 0; J < FI.numCarried(); ++J) {
      const std::string &V = CL.WitnessLocals[J];
      if (!SeenLocals.insert(V).second)
        fail(Reject::LoopWitnessMismatch,
             "witness maps local '" + V + "' to two carried positions");
      if (!Assigned.count(V))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' is not assigned by the loop body");
      auto InitIt = T.Locals.find(V);
      auto NextIt = B.Locals.find(V);
      if (InitIt == T.Locals.end() || NextIt == B.Locals.end())
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' has no loop-carried value");
      if (InitIt->second != FI.init(J))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' is initialized to '" +
                 clip(G.str(InitIt->second)) +
                 "' but the model's carried value " + std::to_string(J) +
                 " starts at '" + clip(G.str(FI.init(J))) + "'");
      Ren[HavocOf.at(V)] = G.sym(canonSym(K, J));
      Picks.push_back({V, NextIt->second});
    }

    if (G.substitute(GuardT, Ren) != FI.guard())
      fail(Reject::LoopWitnessMismatch,
           "under the recorded witness the loop guard computes '" +
               clip(G.str(GuardT)) + "' but the model's is '" +
               clip(G.str(FI.guard())) + "'");
    for (unsigned J = 0; J < FI.numCarried(); ++J)
      if (G.substitute(Picks[J].Next, Ren) != FI.next(J))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + Picks[J].Name + "' steps to '" +
                 clip(G.str(Picks[J].Next)) +
                 "' but the model's carried value " + std::to_string(J) +
                 " steps to '" + clip(G.str(FI.next(J))) + "'");
    for (unsigned RI = 0, RE = FI.numRegions(); RI < RE; ++RI) {
      const std::string RName = FI.regionName(RI);
      if (T.Region.at(RName) != FI.regionEntry(RI))
        fail(Reject::LoopWitnessMismatch,
             "region '" + RName + "' enters the loop as '" +
                 clip(G.str(T.Region.at(RName))) + "' but the model has '" +
                 clip(G.str(FI.regionEntry(RI))) + "'");
      if (G.substitute(B.Region.at(RName), Ren) != FI.regionNext(RI))
        fail(Reject::LoopWitnessMismatch,
             "region '" + RName + "' is rewritten as '" +
                 clip(G.str(B.Region.at(RName))) +
                 "' per iteration but the model rewrites it as '" +
                 clip(G.str(FI.regionNext(RI))) + "'");
    }

    // Commit exactly as the producer does.
    for (const std::string &V : Assigned) {
      T.Locals.erase(V);
      T.LocalDef.erase(V);
    }
    for (unsigned J = 0; J < FI.numCarried(); ++J) {
      T.Locals[Picks[J].Name] = G.foldOut(SL.Fold, J);
      T.LocalDef[Picks[J].Name] = Path;
    }
    for (const std::string &R : Stored) {
      T.Region[R] = G.foldOutArr(SL.Fold, R);
      T.RegionDef[R] = Path;
    }

    // Record the verified witness on the derived loop (the summary fields
    // were filled during source evaluation).
    DerivedLoops[K].WitnessLocals = CL.WitnessLocals;
    DerivedLoops[K].WitnessRegions = CL.WitnessRegions;
    DerivedLoops[K].TargetPath = Path;
  }

  //===--------------------------------------------------------------------===//
  // Trace comparison.
  //===--------------------------------------------------------------------===//

  CheckResult compareTrace(const SrcState &SS, const TgtState &TT) {
    if (TgtCursor < SrcLoops.size())
      fail(Reject::RederivationFailed,
           "model loop binding '" + SrcLoops[TgtCursor].BindingName + "' (" +
               SrcLoops[TgtCursor].Path +
               ") has no corresponding loop in the target");
    if (Spec.ScalarRets.size() != Fn.Rets.size())
      fail(Reject::RederivationFailed,
           "target returns " + std::to_string(Fn.Rets.size()) +
               " words but the ABI promises " +
               std::to_string(Spec.ScalarRets.size()));

    // Re-derive the output channels in the producer's order.
    std::vector<OutputRec> Derived;
    for (size_t I = 0; I < Spec.ScalarRets.size(); ++I) {
      const std::string &SN = Spec.ScalarRets[I];
      const std::string &TN = Fn.Rets[I];
      auto SIt = SS.Scal.find(SN);
      if (SIt == SS.Scal.end())
        fail(Reject::RederivationFailed,
             "model result '" + SN + "' is not a tracked scalar");
      auto TIt = TT.Locals.find(TN);
      if (TIt == TT.Locals.end())
        fail(Reject::RederivationFailed,
             "target never defines return local '" + TN + "'");
      OutputRec O;
      O.Name = SN;
      O.Kind = "scalar";
      O.SrcHash = G.hashOf(SIt->second);
      O.TgtHash = G.hashOf(TIt->second);
      O.Matched = SIt->second == TIt->second;
      if (auto BIt = LastSrcBind.find(SN); BIt != LastSrcBind.end())
        O.SourceBinding = BIt->second;
      if (auto DIt = TT.LocalDef.find(TN); DIt != TT.LocalDef.end())
        O.TargetPath = DIt->second;
      Derived.push_back(std::move(O));
    }
    for (const auto &[R, SrcContents] : SS.Region) {
      OutputRec O;
      O.Name = R;
      bool InPlaceArr =
          std::find(Spec.InPlaceArrays.begin(), Spec.InPlaceArrays.end(), R) !=
          Spec.InPlaceArrays.end();
      bool InPlaceCell =
          std::find(Spec.InPlaceCells.begin(), Spec.InPlaceCells.end(), R) !=
          Spec.InPlaceCells.end();
      O.Kind = InPlaceArr ? "array" : InPlaceCell ? "cell" : "frame";
      TermId Tgt = TT.Region.at(R);
      O.SrcHash = G.hashOf(SrcContents);
      O.TgtHash = G.hashOf(Tgt);
      O.Matched = SrcContents == Tgt;
      if (auto BIt = LastSrcBind.find(R); BIt != LastSrcBind.end())
        O.SourceBinding = BIt->second;
      if (auto DIt = TT.RegionDef.find(R); DIt != TT.RegionDef.end())
        O.TargetPath = DIt->second;
      Derived.push_back(std::move(O));
    }

    // The proved claim itself: every channel must re-derive equal.
    for (const OutputRec &O : Derived)
      if (!O.Matched)
        return CheckResult::reject(
            Reject::OutputMismatch,
            "output '" + O.Name + "' [" + O.Kind +
                "] does not re-derive as equal between model and target");

    // Binding trace: same length, same records, in order.
    if (Cert.Bindings.size() != DerivedBindings.size())
      return CheckResult::reject(
          Reject::TruncatedTrace,
          "certificate records " + std::to_string(Cert.Bindings.size()) +
              " bindings but re-derivation produces " +
              std::to_string(DerivedBindings.size()));
    for (size_t I = 0; I < DerivedBindings.size(); ++I) {
      const BindingRec &C = Cert.Bindings[I], &D = DerivedBindings[I];
      if (C.Path != D.Path || C.Name != D.Name || C.Hash != D.Hash)
        return CheckResult::reject(
            Reject::BindingTraceMismatch,
            "binding #" + std::to_string(I) + " records (" + C.Path + ", " +
                C.Name + ") but re-derivation gives (" + D.Path + ", " +
                D.Name + ") with a " +
                (C.Hash != D.Hash ? std::string("different")
                                  : std::string("matching")) +
                " hash");
    }

    // Loop summaries (witnesses were verified during execution).
    if (Cert.Loops.size() != DerivedLoops.size())
      return CheckResult::reject(
          Reject::TruncatedTrace,
          "certificate records " + std::to_string(Cert.Loops.size()) +
              " loops but re-derivation produces " +
              std::to_string(DerivedLoops.size()));
    for (size_t I = 0; I < DerivedLoops.size(); ++I) {
      const LoopRec &C = Cert.Loops[I], &D = DerivedLoops[I];
      if (C.Ordinal != D.Ordinal || C.Binding != D.Binding ||
          C.Path != D.Path || C.FoldHash != D.FoldHash ||
          C.Carried != D.Carried || C.Regions != D.Regions)
        return CheckResult::reject(
            Reject::LoopSummaryMismatch,
            "loop #" + std::to_string(I) +
                " summary differs from the re-derived one (binding '" +
                D.Binding + "' at " + D.Path + ")");
    }

    // Output channels.
    if (Cert.Outputs.size() != Derived.size())
      return CheckResult::reject(
          Reject::OutputMismatch,
          "certificate records " + std::to_string(Cert.Outputs.size()) +
              " outputs but re-derivation produces " +
              std::to_string(Derived.size()));
    for (size_t I = 0; I < Derived.size(); ++I) {
      const OutputRec &C = Cert.Outputs[I], &D = Derived[I];
      if (C.Name != D.Name || C.Kind != D.Kind || C.SrcHash != D.SrcHash ||
          C.TgtHash != D.TgtHash || C.Matched != D.Matched ||
          C.SourceBinding != D.SourceBinding || C.TargetPath != D.TargetPath)
        return CheckResult::reject(
            Reject::OutputMismatch,
            "output '" + D.Name + "' [" + D.Kind +
                "] record differs from the re-derived one");
    }

    return CheckResult::accept();
  }
};

} // namespace

CheckResult Rederive::check(const Certificate &C, const ir::SourceFn &Model,
                            const EntryFacts &Hints, const sep::FnSpec &Spec,
                            const bedrock::Function &Code) {
  if (C.SchemaVersion != kSchemaVersion)
    return CheckResult::reject(Reject::UnknownSchemaVersion,
                               "schema_version " +
                                   std::to_string(C.SchemaVersion) +
                                   " is not checkable by this build");
  if (C.Function != Code.Name)
    return CheckResult::reject(Reject::FunctionMismatch,
                               "certificate is about '" + C.Function +
                                   "' but the suite compiles '" + Code.Name +
                                   "'");

  ContentKey Fresh = contentKey(Model, Hints, Spec, Code);
  if (Fresh.ModelHash != C.Key.ModelHash)
    return CheckResult::reject(
        Reject::StaleModel,
        "certificate model hash does not match the current model+hints");
  if (Fresh.SpecHash != C.Key.SpecHash)
    return CheckResult::reject(
        Reject::StaleSpec,
        "certificate fnspec hash does not match the current fnspec");
  if (Fresh.CodeHash != C.Key.CodeHash)
    return CheckResult::reject(
        Reject::StaleCode,
        "certificate code hash does not match the freshly compiled code");

  if (!C.proved())
    return CheckResult::reject(Reject::VerdictNotProved,
                               "certificate verdict is '" + C.Verdict +
                                   "'; only proved certificates are "
                                   "acceptable");

  CheckResult R = CheckResult::accept();
  try {
    R = Replayer(C, Model, Spec, Code, Hints).run();
  } catch (const CheckFail &F) {
    return CheckResult::reject(F.Why, F.Detail);
  }
  if (!R.Accepted || !C.Codelint)
    return R;

  // The optional codelint section re-derives the same way everything else
  // does: run the analyzer core (unbudgeted — the producer only embeds the
  // section when its own budgeted run finished) and compare field-for-field.
  codelint::Report Rep = codelint::analyzeFunction(Code, Spec, Model, Hints);
  CodelintRec Fresh2 = codelintRecOf(Rep);
  if (!(Fresh2 == *C.Codelint))
    return CheckResult::reject(
        Reject::CodelintMismatch,
        "codelint section does not re-derive: certificate claims (" +
            C.Codelint->Mem + "/" + C.Codelint->Stack + "/" +
            C.Codelint->Steps + ", v" + std::to_string(C.Codelint->Version) +
            ") but the analyzer derives (" + Fresh2.Mem + "/" + Fresh2.Stack +
            "/" + Fresh2.Steps + ", v" + std::to_string(Fresh2.Version) + ")");
  return R;
}

} // namespace cert
} // namespace relc
