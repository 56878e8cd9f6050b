//===- tv/SymEval.cpp - The shared symbolic evaluator ---------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Implementation of the evaluator declared in SymEval.h. Soundness of a
// Proved verdict (and of a checker accept) rests on the TermGraph's
// normalization rules, each a word-level identity, and on the two
// evaluators below adhering to their language semantics. Incompleteness is
// deliberate and safe: anything outside the fragment is refused, never
// proved.
//
//===----------------------------------------------------------------------===//

#include "tv/SymEval.h"

#include "support/Casting.h"
#include "support/Hash.h"
#include "support/StringExtras.h"

#include <algorithm>

namespace relc {
namespace tv {

void outsideFragment(const std::string &Why) {
  throw Refusal{RefusalKind::OutsideFragment, Why};
}

void mismatch(const std::string &Why) {
  throw Refusal{RefusalKind::Mismatch, Why};
}

std::string clip(const std::string &S, size_t Max) {
  if (S.size() <= Max)
    return S;
  return S.substr(0, Max) + "...";
}

std::string joinSet(const std::set<std::string> &S) {
  return join(std::vector<std::string>(S.begin(), S.end()), ",");
}

namespace {

//===----------------------------------------------------------------------===//
// Small utilities.
//===----------------------------------------------------------------------===//

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
  outsideFragment("unknown word operator");
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

/// Arrays and cells a loop-body sub-program writes (by source name).
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

std::string canonSym(unsigned Loop, unsigned Pos) {
  return "%L" + std::to_string(Loop) + ".c" + std::to_string(Pos);
}

std::string canonRegionSym(unsigned Loop, const std::string &R) {
  return "%L" + std::to_string(Loop) + ".r." + R;
}

void flatten(const bedrock::Cmd *C, std::vector<const bedrock::Cmd *> &Out) {
  if (const auto *S = dyn_cast<bedrock::Seq>(C)) {
    flatten(S->first(), Out);
    flatten(S->second(), Out);
    return;
  }
  if (isa<bedrock::Skip>(C))
    return;
  Out.push_back(C);
}

} // namespace

SymEval::SymEval(const ir::SourceFn &Src, const sep::FnSpec &Spec,
                 const bedrock::Function &Fn,
                 const analysis::EntryFactList &Hints,
                 const guard::Budget *Budget)
    : Src(Src), Spec(Spec), Fn(Fn),
      Abi(analysis::makeAbiInfo(Fn, Spec, Src, Hints)) {
  G.setEntryFacts(&Abi.EntryFacts);
  G.setBudget(Budget);
  Abi.EntryFacts.setBudget(Budget);
}

SymEval::~SymEval() = default;

void SymEval::run() {
  if (Src.TheMonad != ir::Monad::Pure)
    outsideFragment(std::string("model is in the ") +
                    ir::monadName(Src.TheMonad) +
                    " monad; only pure programs are validated statically");
  checkTables();
  setupRegions();
  SrcState SS = sourceEntry();
  evalSrcProg(*Src.Body, SS, "");
  TgtState TT = targetEntry();
  execBlock(Fn.Body.get(), TT, "body");
  deriveOutputs(SS, TT);
}

TermId SymEval::carriedSym(unsigned Loop, unsigned Pos) {
  return G.sym(canonSym(Loop, Pos));
}

//===----------------------------------------------------------------------===//
// Entry states.
//===----------------------------------------------------------------------===//

void SymEval::checkTables() {
  for (const bedrock::InlineTable &T : Fn.Tables) {
    const ir::TableDef *D = Src.findTable(T.Name);
    if (!D)
      mismatch("inline table '" + T.Name + "' has no counterpart in the model");
    if (bedrock::sizeBytes(T.EltSize) != ir::eltSize(D->Elt))
      mismatch("inline table '" + T.Name +
               "' element width differs from the model's");
    if (T.Elements != D->Elements)
      mismatch("inline table '" + T.Name + "' contents differ from the model");
  }
}

void SymEval::setupRegions() {
  for (const ir::Param &P : Src.Params) {
    if (P.TheKind == ir::Param::Kind::List)
      RegionWidth[P.Name] = ir::eltSize(P.Elt);
    else if (P.TheKind == ir::Param::Kind::Cell)
      RegionWidth[P.Name] = 8;
  }
}

SrcState SymEval::sourceEntry() {
  // A scalar parameter the ABI declares as an array's length is the same
  // word as the canonical "len_<array>" symbol (the requires clause ties
  // them), so both sides must intern it identically.
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

TgtState SymEval::targetEntry() {
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
    T.Region[R] = G.arrInit(R, W); // Same node as the source entry.
    T.RegionDef[R] = "entry";
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Source evaluation.
//===----------------------------------------------------------------------===//

TermId SymEval::evalSrcExpr(const ir::Expr &E, const SrcState &S) {
  switch (E.kind()) {
  case ir::Expr::Kind::Const:
    return G.constant(cast<ir::Const>(&E)->value().scalar());
  case ir::Expr::Kind::VarRef: {
    const std::string &N = cast<ir::VarRef>(&E)->name();
    auto It = S.Scal.find(N);
    if (It == S.Scal.end())
      outsideFragment("model references '" + N +
                      "' where no scalar value is tracked");
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
      return Op; // Zero-extension is the identity on word terms.
    case ir::CastKind::WordToByte:
      return G.bin(bedrock::BinOp::And, Op, G.constant(0xff));
    }
    outsideFragment("unknown cast");
  }
  case ir::Expr::Kind::ArrayGet: {
    const auto *AG = cast<ir::ArrayGet>(&E);
    auto It = S.Arr.find(AG->array());
    if (It == S.Arr.end())
      outsideFragment("model reads array '" + AG->array() +
                      "' which is not tracked");
    TermId Idx = evalSrcExpr(*AG->index(), S);
    return G.elt(S.Region.at(It->second.Region), Idx);
  }
  case ir::Expr::Kind::TableGet: {
    const auto *TG = cast<ir::TableGet>(&E);
    const ir::TableDef *D = Src.findTable(TG->table());
    if (!D)
      outsideFragment("model reads unknown table '" + TG->table() + "'");
    TermId Idx = evalSrcExpr(*TG->index(), S);
    return G.tableElt(D->Name, ir::eltSize(D->Elt), tableMax(D->Elements),
                      Idx);
  }
  }
  outsideFragment("unknown expression kind");
}

uint64_t SymEval::srcValueHash(const SrcState &S,
                               const std::string &Name) const {
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

void SymEval::recordBinding(const ir::Binding &B, const SrcState &S,
                            const std::string &Path) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const std::string &N : B.Names) {
    H = hash::fnv1a64Word(srcValueHash(S, N), H);
    LastSrcBind[N] = Path + ": let " + join(B.Names, ",") + " := " +
                     clip(B.Bound->str());
  }
  Bindings.push_back({Path, join(B.Names, ","), H});
}

void SymEval::evalSrcProg(const ir::Prog &P, SrcState &S,
                          const std::string &Prefix) {
  const std::vector<ir::Binding> &Bs = P.bindings();
  for (size_t I = 0; I < Bs.size(); ++I)
    evalSrcBinding(Bs[I], S, Prefix + std::to_string(I));
}

void SymEval::evalSrcBinding(const ir::Binding &B, SrcState &S,
                             const std::string &Path) {
  using K = ir::BoundForm::Kind;
  switch (B.Bound->kind()) {
  case K::PureVal: {
    if (B.Names.size() != 1)
      outsideFragment("multi-name pure binding");
    S.Scal[B.Names[0]] =
        evalSrcExpr(*cast<ir::PureVal>(B.Bound.get())->expr(), S);
    break;
  }
  case K::ArrayPut: {
    const auto *AP = cast<ir::ArrayPut>(B.Bound.get());
    if (B.Names.size() != 1 || B.Names[0] != AP->array())
      outsideFragment("array put must rebind the array's own name");
    auto It = S.Arr.find(AP->array());
    if (It == S.Arr.end())
      outsideFragment("put into untracked array '" + AP->array() + "'");
    TermId Idx = evalSrcExpr(*AP->index(), S);
    TermId Val = evalSrcExpr(*AP->val(), S);
    const std::string &R = It->second.Region;
    S.Region[R] = G.arrStore(S.Region.at(R), Idx, Val);
    break;
  }
  case K::CellGet: {
    const auto *CG = cast<ir::CellGet>(B.Bound.get());
    if (!S.Cells.count(CG->cell()))
      outsideFragment("get from untracked cell '" + CG->cell() + "'");
    S.Scal[B.Names[0]] = G.elt(S.Region.at(CG->cell()), G.constant(0));
    break;
  }
  case K::CellPut: {
    const auto *CP = cast<ir::CellPut>(B.Bound.get());
    if (B.Names.size() != 1 || B.Names[0] != CP->cell() ||
        !S.Cells.count(CP->cell()))
      outsideFragment("cell put must rebind the cell's own name");
    TermId V = evalSrcExpr(*CP->expr(), S);
    S.Region[CP->cell()] =
        G.arrStore(S.Region.at(CP->cell()), G.constant(0), V);
    break;
  }
  case K::CellIncr: {
    const auto *CI = cast<ir::CellIncr>(B.Bound.get());
    if (B.Names.size() != 1 || B.Names[0] != CI->cell() ||
        !S.Cells.count(CI->cell()))
      outsideFragment("cell incr must rebind the cell's own name");
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
    outsideFragment("binding form '" + clip(B.Bound->str(), 48) +
                    "' is outside the statically validated fragment");
  }
  recordBinding(B, S, Path);
}

void SymEval::evalSrcIf(const ir::Binding &B, SrcState &S,
                        const std::string &Path) {
  const auto *IB = cast<ir::IfBound>(B.Bound.get());
  TermId C = evalSrcExpr(*IB->cond(), S);
  SrcState TS = S, ES = S;
  evalSrcProg(*IB->thenProg(), TS, Path + ".then.");
  evalSrcProg(*IB->elseProg(), ES, Path + ".else.");
  const std::vector<std::string> &TR = IB->thenProg()->returns();
  const std::vector<std::string> &ER = IB->elseProg()->returns();
  if (TR.size() != B.Names.size() || ER.size() != B.Names.size())
    outsideFragment("conditional binding arity mismatch");
  for (auto &[R, Contents] : S.Region)
    Contents = G.arrSelect(C, TS.Region.at(R), ES.Region.at(R));
  for (size_t J = 0; J < B.Names.size(); ++J) {
    bool ThenArr = TS.Arr.count(TR[J]) != 0;
    bool ElseArr = ES.Arr.count(ER[J]) != 0;
    if (ThenArr != ElseArr)
      outsideFragment("conditional branches return values of different kinds");
    if (ThenArr) {
      const SrcArr &A1 = TS.Arr.at(TR[J]);
      const SrcArr &A2 = ES.Arr.at(ER[J]);
      if (A1.Region != A2.Region)
        outsideFragment("conditional branches return different arrays");
      S.Arr[B.Names[J]] = A1;
      continue;
    }
    auto TI = TS.Scal.find(TR[J]);
    auto EI = ES.Scal.find(ER[J]);
    if (TI == TS.Scal.end() || EI == ES.Scal.end())
      outsideFragment("conditional branch result '" + TR[J] +
                      "' is not a tracked scalar");
    S.Scal[B.Names[J]] = G.select(C, TI->second, EI->second);
  }
}

/// Resolves the carried structure of a loop binding and interns its Fold.
void SymEval::evalSrcLoop(const ir::Binding &B, SrcState &S,
                          const std::string &Path) {
  unsigned K = unsigned(SrcFolds.size());
  FoldInfo FI;
  TermId F = NoTerm;

  auto Carried = [&](unsigned Pos) { return carriedSym(K, Pos); };

  switch (B.Bound->kind()) {
  case ir::BoundForm::Kind::ListMap: {
    const auto *M = cast<ir::ListMap>(B.Bound.get());
    if (B.Names.size() != 1 || B.Names[0] != M->array())
      outsideFragment("map must rebind its array in place");
    auto It = S.Arr.find(M->array());
    if (It == S.Arr.end())
      outsideFragment("map over untracked array '" + M->array() + "'");
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
    // Shared shape: index + accumulator; fold_break adds a guard clause.
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
      outsideFragment("fold must bind exactly one name");
    auto It = S.Arr.find(ArrName);
    if (It == S.Arr.end())
      outsideFragment("fold over untracked array '" + ArrName + "'");
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
      // The exit predicate sees only the accumulator (compiled into the
      // guard, where the element local is not yet loaded).
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
      outsideFragment("nested loops are not summarized");
    if (Accs.size() != B.Names.size())
      outsideFragment("loop accumulator arity mismatch");
    for (size_t J = 0; J < Accs.size(); ++J)
      if (Accs[J].Name != B.Names[J])
        outsideFragment("loop accumulators must be bound under their names");

    // Classify accumulators: arrays thread through regions, scalars are
    // carried positions. The index (ranged_for only) is carried first.
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
          outsideFragment("array accumulator must be initialized by itself");
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
        outsideFragment("loop body writes untracked '" + WName + "'");
      Entries[R] = S.Region.at(R);
      BS.Region[R] = G.arrHavoc(canonRegionSym(K, R), RegionWidth.at(R));
    }

    // The guard is evaluated against the havocked iteration state, the
    // same state the target's summary evaluates its While condition in.
    if (RF)
      FI.Guard = G.bin(bedrock::BinOp::LtU, I, Hi);
    else
      FI.Guard = evalSrcExpr(*WC->cond(), BS);

    evalSrcProg(Body, BS, Path + ".body.");
    const std::vector<std::string> &Rets = Body.returns();
    if (Rets.size() != Accs.size())
      outsideFragment("loop body return arity mismatch");

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
        outsideFragment("loop body result '" + Rets[AccIdx] +
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
        outsideFragment("array accumulator must be returned under its name");
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
    outsideFragment("not a loop binding");
  }

  SrcFolds.push_back(F);
  LoopRecord LR;
  LR.Ordinal = K;
  LR.Binding = join(B.Names, ",");
  LR.Path = Path;
  LR.FoldHash = G.hashOf(F);
  LR.Carried = FI.NumCarried;
  LR.Regions = unsigned(FI.Regions.size());
  Loops.push_back(std::move(LR));
}

//===----------------------------------------------------------------------===//
// Target execution.
//===----------------------------------------------------------------------===//

TermId SymEval::evalTgtExpr(const bedrock::Expr &E, const TgtState &T) {
  switch (E.kind()) {
  case bedrock::Expr::Kind::Literal:
    return G.constant(cast<bedrock::Literal>(&E)->value());
  case bedrock::Expr::Kind::Var: {
    const std::string &N = cast<bedrock::Var>(&E)->name();
    auto It = T.Locals.find(N);
    if (It == T.Locals.end())
      outsideFragment("target reads local '" + N + "' with no tracked value");
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
    if (!D) // checkTables already rejected unknown tables.
      mismatch("table read from unknown table '" + TG->table() + "'");
    if (bedrock::sizeBytes(TG->size()) != ir::eltSize(D->Elt))
      mismatch("table read width differs from the model table");
    TermId Idx = evalTgtExpr(*TG->index(), T);
    return G.tableElt(D->Name, ir::eltSize(D->Elt), tableMax(D->Elements),
                      Idx);
  }
  }
  outsideFragment("unknown target expression");
}

/// Decomposes a byte address into (region, element index): the affine view
/// must contain exactly one region pointer with coefficient 1, and the
/// remaining offset must be an exact multiple of the element width.
std::pair<std::string, TermId> SymEval::resolveAddr(TermId Addr,
                                                    unsigned Bytes) {
  AffineView V = G.affine(Addr);
  TermId PtrAtom = NoTerm;
  std::string Reg;
  for (const auto &[Atom, C] : V.Coeffs) {
    auto It = PtrRegion.find(Atom);
    if (It == PtrRegion.end())
      continue;
    if (PtrAtom != NoTerm)
      outsideFragment("address combines two region pointers");
    if (C != 1)
      outsideFragment("address scales a region pointer");
    PtrAtom = Atom;
    Reg = It->second;
  }
  if (PtrAtom == NoTerm)
    outsideFragment("memory access with no resolvable region pointer");
  unsigned W = RegionWidth.at(Reg);
  if (W != Bytes)
    outsideFragment("access width differs from region '" + Reg +
                    "' element width");
  AffineView IdxV;
  for (const auto &[Atom, C] : V.Coeffs) {
    if (Atom == PtrAtom)
      continue;
    if (int64_t(C) % int64_t(W) != 0)
      outsideFragment("address offset is not element-aligned");
    IdxV.Coeffs[Atom] = uint64_t(int64_t(C) / int64_t(W));
  }
  if (int64_t(V.K) % int64_t(W) != 0)
    outsideFragment("address constant is not element-aligned");
  IdxV.K = uint64_t(int64_t(V.K) / int64_t(W));
  return {Reg, G.fromAffine(IdxV)};
}

void SymEval::execBlock(const bedrock::Cmd *C, TgtState &T,
                        const std::string &Path) {
  std::vector<const bedrock::Cmd *> Stmts;
  flatten(C, Stmts);
  for (size_t I = 0; I < Stmts.size(); ++I)
    execStmt(*Stmts[I], T, Path + "." + std::to_string(I));
}

void SymEval::execStmt(const bedrock::Cmd &C, TgtState &T,
                       const std::string &Path) {
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
    execLoop(*cast<bedrock::While>(&C), T, Path);
    return;
  case bedrock::Cmd::Kind::Seq:
    execBlock(&C, T, Path); // Flattened normally; defensive.
    return;
  case bedrock::Cmd::Kind::Call:
    outsideFragment("target calls '" + cast<bedrock::Call>(&C)->callee() +
                    "'; calls are not validated statically");
  case bedrock::Cmd::Kind::Stackalloc:
    outsideFragment("stackalloc is outside the validated fragment");
  case bedrock::Cmd::Kind::Interact:
    outsideFragment(
        "environment interaction is outside the validated fragment");
  }
}

void SymEval::joinStates(TermId Cond, TgtState &T, const TgtState &A,
                         const TgtState &B, const std::string &Path) {
  std::map<std::string, TermId> L;
  std::map<std::string, std::string> LD;
  for (const auto &[N, VA] : A.Locals) {
    auto It = B.Locals.find(N);
    if (It == B.Locals.end())
      continue; // Branch-local: dead after the join.
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

/// Rejects body statements the summarizer cannot model and collects the
/// assigned locals.
void SymEval::scanLoopBody(const bedrock::Cmd *C,
                           std::set<std::string> &Assigned) {
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
    outsideFragment("nested target loops are not summarized");
  case bedrock::Cmd::Kind::Unset:
    outsideFragment("unset inside a loop body");
  default:
    outsideFragment("unsupported statement inside a loop body");
  }
}

void SymEval::execLoop(const bedrock::While &W, TgtState &T,
                       const std::string &Path) {
  unsigned K = TgtCursor++;
  if (K >= SrcFolds.size())
    mismatch("target loop at " + Path +
             " has no corresponding loop in the model");
  enterLoop(K);
  const TermId Fold = SrcFolds[K];
  LoopStep L{K, Path, Loops[K], G.foldInfo(Fold), T, T};
  scanLoopBody(W.body(), L.Assigned);

  // Discovery pass: havoc everything, record which regions the body
  // stores to (addresses never depend on contents, so the store set is
  // the same in the precise pass).
  {
    TgtState A = T;
    for (const std::string &V : L.Assigned)
      A.Locals[V] = G.sym("%TA" + std::to_string(K) + "." + V);
    for (auto &[R, Contents] : A.Region)
      Contents = G.arrHavoc("%TA" + std::to_string(K) + ".R." + R,
                            RegionWidth.at(R));
    CurStores = &L.Stored;
    execBlock(W.body(), A, Path + ".body");
    CurStores = nullptr;
  }

  // Precise pass: havoc only the assigned locals and the stored regions.
  for (const std::string &V : L.Assigned) {
    L.HavocOf[V] = G.sym("%T" + std::to_string(K) + "." + V);
    L.Iter.Locals[V] = L.HavocOf[V];
  }
  std::map<std::string, TermId> RegionHavoc;
  for (const std::string &R : L.Stored) {
    RegionHavoc[R] =
        G.arrHavoc("%T" + std::to_string(K) + ".R." + R, RegionWidth.at(R));
    L.Iter.Region[R] = RegionHavoc[R];
  }
  L.Guard = evalTgtExpr(*W.cond(), L.Iter);
  {
    std::set<std::string> Stored2;
    CurStores = &Stored2;
    execBlock(W.body(), L.Iter, Path + ".body");
    CurStores = nullptr;
    if (Stored2 != L.Stored)
      outsideFragment("loop store set depends on memory contents");
  }

  std::set<std::string> SrcRegs;
  for (unsigned RI = 0, RE = L.Fold.numRegions(); RI < RE; ++RI)
    SrcRegs.insert(L.Fold.regionName(RI));
  if (SrcRegs != L.Stored)
    mismatch("loop at " + Path + " writes regions {" + joinSet(L.Stored) +
             "} but model binding '" + L.Model.Binding + "' (" +
             L.Model.Path + ") writes {" + joinSet(SrcRegs) + "}");

  // Renaming skeleton: target region havocs map onto the model's.
  for (const std::string &R : L.Stored)
    L.RegionRen[RegionHavoc[R]] =
        G.arrHavoc(canonRegionSym(K, R), RegionWidth.at(R));

  // Record the witness: this is what turns the verdict into an
  // independently checkable certificate.
  LoopRecord &LR = Loops[K];
  LR.WitnessLocals = pickCarried(L);
  LR.WitnessRegions.assign(L.Stored.begin(), L.Stored.end());
  LR.TargetPath = Path;

  // Commit: matched variables become fold projections; the rest of the
  // assigned locals have unknown post-loop values and are dropped.
  const std::vector<std::string> &Picks = LR.WitnessLocals;
  for (const std::string &V : L.Assigned) {
    T.Locals.erase(V);
    T.LocalDef.erase(V);
  }
  for (unsigned J = 0; J < Picks.size(); ++J) {
    T.Locals[Picks[J]] = G.foldOut(Fold, J);
    T.LocalDef[Picks[J]] = Path;
  }
  for (const std::string &R : L.Stored) {
    T.Region[R] = G.foldOutArr(Fold, R);
    T.RegionDef[R] = Path;
  }
}

//===----------------------------------------------------------------------===//
// Output derivation.
//===----------------------------------------------------------------------===//

void SymEval::deriveOutputs(const SrcState &SS, const TgtState &TT) {
  if (TgtCursor < SrcFolds.size())
    mismatch("model loop binding '" + Loops[TgtCursor].Binding + "' (" +
             Loops[TgtCursor].Path +
             ") has no corresponding loop in the target");
  if (Spec.ScalarRets.size() != Fn.Rets.size())
    mismatch("target returns " + std::to_string(Fn.Rets.size()) +
             " words but the ABI promises " +
             std::to_string(Spec.ScalarRets.size()));

  for (size_t I = 0; I < Spec.ScalarRets.size(); ++I) {
    const std::string &SN = Spec.ScalarRets[I];
    const std::string &TN = Fn.Rets[I];
    auto SIt = SS.Scal.find(SN);
    if (SIt == SS.Scal.end())
      outsideFragment("model result '" + SN + "' is not a tracked scalar");
    auto TIt = TT.Locals.find(TN);
    if (TIt == TT.Locals.end())
      mismatch("target never defines return local '" + TN + "'");
    OutputChannel O;
    O.Name = SN;
    O.Kind = "scalar";
    O.Src = SIt->second;
    O.Tgt = TIt->second;
    if (auto BIt = LastSrcBind.find(SN); BIt != LastSrcBind.end())
      O.SourceBinding = BIt->second;
    if (auto DIt = TT.LocalDef.find(TN); DIt != TT.LocalDef.end())
      O.TargetPath = DIt->second;
    Outputs.push_back(std::move(O));
  }

  for (const auto &[R, SrcContents] : SS.Region) {
    OutputChannel O;
    O.Name = R;
    bool InPlaceArr = std::find(Spec.InPlaceArrays.begin(),
                                Spec.InPlaceArrays.end(),
                                R) != Spec.InPlaceArrays.end();
    bool InPlaceCell = std::find(Spec.InPlaceCells.begin(),
                                 Spec.InPlaceCells.end(),
                                 R) != Spec.InPlaceCells.end();
    O.Kind = InPlaceArr ? "array" : InPlaceCell ? "cell" : "frame";
    O.Src = SrcContents;
    O.Tgt = TT.Region.at(R);
    if (auto BIt = LastSrcBind.find(R); BIt != LastSrcBind.end())
      O.SourceBinding = BIt->second;
    if (auto DIt = TT.RegionDef.find(R); DIt != TT.RegionDef.end())
      O.TargetPath = DIt->second;
    Outputs.push_back(std::move(O));
  }
}

} // namespace tv
} // namespace relc
