//===- ir/Interp.cpp - Reference semantics for FunLang ---------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

namespace relc {
namespace ir {

//===----------------------------------------------------------------------===//
// The frame.
//===----------------------------------------------------------------------===//
//
// An error abandons the evaluation: error paths return without leaving
// their scopes, and the next evalExpr / evalBody starts from a fresh frame.

void Evaluator::resetFrame() {
  SlotOfName.clear();
  SlotOfText.clear();
  Frame.clear();
  SaveStack.clear();
  Depth = 0;
}

unsigned Evaluator::slot(const std::string &Name) {
  auto [It, Fresh] = SlotOfName.try_emplace(&Name, 0u);
  if (Fresh) {
    auto [Text, New] = SlotOfText.try_emplace(Name, unsigned(Frame.size()));
    if (New)
      Frame.emplace_back();
    It->second = Text->second;
  }
  return It->second;
}

/// Null when unbound. The pointer is good until the next slot() call,
/// which may grow the frame.
const Value *Evaluator::lookup(unsigned S) const {
  return Frame[S].V ? &*Frame[S].V : nullptr;
}

void Evaluator::write(unsigned S, Value V) {
  Slot &Sl = Frame[S];
  if (Sl.WrittenAt != Depth) {
    SaveStack.push_back({S, std::move(Sl)});
    Sl.WrittenAt = Depth;
  }
  Sl.V = std::move(V);
}

size_t Evaluator::enterScope() {
  ++Depth;
  return SaveStack.size();
}

void Evaluator::leaveScope(size_t Mark) {
  while (SaveStack.size() > Mark) {
    Frame[SaveStack.back().Index] = std::move(SaveStack.back().Old);
    SaveStack.pop_back();
  }
  --Depth;
}

//===----------------------------------------------------------------------===//
// Expressions.
//===----------------------------------------------------------------------===//

Result<Value> Evaluator::evalExpr(const Env &E, const Expr &Ex) {
  resetFrame();
  for (const auto &[Name, V] : E)
    write(slot(Name), V);
  return eval(Ex);
}

Result<Value> Evaluator::eval(const Expr &Ex) {
  switch (Ex.kind()) {
  case Expr::Kind::Const:
    return cast<Const>(&Ex)->value();

  case Expr::Kind::VarRef: {
    const auto *V = cast<VarRef>(&Ex);
    const Value *Bound = lookup(slot(V->name()));
    if (!Bound)
      return Error("unbound variable '" + V->name() + "'");
    return *Bound;
  }

  case Expr::Kind::Bin: {
    const auto *B = cast<Bin>(&Ex);
    Result<Value> L = eval(*B->lhs());
    if (!L)
      return L.takeError();
    Result<Value> R = eval(*B->rhs());
    if (!R)
      return R.takeError();
    if (L->kind() != Value::Kind::Word || R->kind() != Value::Kind::Word)
      return Error("binary operator '" + std::string(wordOpName(B->op())) +
                   "' applied to non-word operands (insert b2w/Z.b2z casts)");
    uint64_t Raw = evalWordOp(B->op(), L->asWord(), R->asWord());
    if (wordOpIsCompare(B->op()))
      return Value::boolean(Raw != 0);
    return Value::word(Raw);
  }

  case Expr::Kind::Select: {
    const auto *S = cast<Select>(&Ex);
    Result<Value> C = eval(*S->cond());
    if (!C)
      return C.takeError();
    if (C->kind() != Value::Kind::Bool)
      return Error("Select condition is not a bool");
    // Both arms are evaluated in a pure language: selection is value-level.
    return eval(C->asBool() ? *S->thenExpr() : *S->elseExpr());
  }

  case Expr::Kind::Cast: {
    const auto *C = cast<Cast>(&Ex);
    Result<Value> V = eval(*C->operand());
    if (!V)
      return V.takeError();
    switch (C->castKind()) {
    case CastKind::ByteToWord:
      if (V->kind() != Value::Kind::Byte)
        return Error("b2w applied to non-byte");
      return Value::word(V->asByte());
    case CastKind::WordToByte:
      if (V->kind() != Value::Kind::Word)
        return Error("w2b applied to non-word");
      return Value::byte(uint8_t(V->asWord()));
    case CastKind::BoolToWord:
      if (V->kind() != Value::Kind::Bool)
        return Error("Z.b2z applied to non-bool");
      return Value::word(V->asBool() ? 1 : 0);
    }
    return Error("unknown cast");
  }

  case Expr::Kind::ArrayGet: {
    const auto *G = cast<ArrayGet>(&Ex);
    unsigned S = slot(G->array());
    const Value *L = lookup(S);
    if (!L)
      return Error("unbound array '" + G->array() + "'");
    if (L->kind() != Value::Kind::List)
      return Error("ListArray.get on non-list '" + G->array() + "'");
    Result<Value> Idx = eval(*G->index());
    if (!Idx)
      return Idx.takeError();
    if (Idx->kind() != Value::Kind::Word)
      return Error("array index is not a word");
    const std::vector<Value> &Elems = lookup(S)->elems();
    if (Idx->asWord() >= Elems.size())
      return Error("source-level out-of-bounds get: " + G->array() + "[" +
                   std::to_string(Idx->asWord()) + "] of " +
                   std::to_string(Elems.size()));
    return Elems[size_t(Idx->asWord())];
  }

  case Expr::Kind::TableGet: {
    const auto *G = cast<TableGet>(&Ex);
    const TableDef *T = Fn.findTable(G->table());
    if (!T)
      return Error("unknown inline table '" + G->table() + "'");
    Result<Value> Idx = eval(*G->index());
    if (!Idx)
      return Idx.takeError();
    if (Idx->kind() != Value::Kind::Word)
      return Error("table index is not a word");
    if (Idx->asWord() >= T->Elements.size())
      return Error("source-level out-of-bounds table get: " + G->table() +
                   "[" + std::to_string(Idx->asWord()) + "]");
    uint64_t Raw = T->Elements[size_t(Idx->asWord())] & eltMask(T->Elt);
    // Byte tables yield bytes (InlineTable.get unfolds to nth on a list of
    // bytes); wider tables yield words.
    if (T->Elt == EltKind::U8)
      return Value::byte(uint8_t(Raw));
    return Value::word(Raw);
  }
  }
  return Error("unknown expression kind");
}

//===----------------------------------------------------------------------===//
// Bindings.
//===----------------------------------------------------------------------===//

/// Checks that \p V fits the element kind \p K and normalizes it to the
/// stored representation (Byte for U8, Word otherwise).
static Result<Value> normalizeElt(EltKind K, const Value &V) {
  if (K == EltKind::U8) {
    if (V.kind() != Value::Kind::Byte)
      return Error("storing non-byte into a byte array (insert w2b)");
    return V;
  }
  if (V.kind() != Value::Kind::Word)
    return Error("storing non-word into a word array");
  if ((V.asWord() & ~eltMask(K)) != 0)
    return Error("stored value does not fit element width");
  return V;
}

Result<Value> Evaluator::evalBound(const Binding &B) {
  const BoundForm &F = *B.Bound;
  switch (F.kind()) {
  case BoundForm::Kind::PureVal:
    return eval(*cast<PureVal>(&F)->expr());

  case BoundForm::Kind::ArrayPut: {
    const auto *P = cast<ArrayPut>(&F);
    unsigned S = slot(P->array());
    const Value *L = lookup(S);
    if (!L || L->kind() != Value::Kind::List)
      return Error("ListArray.put on unbound or non-list '" + P->array() +
                   "'");
    Result<Value> Idx = eval(*P->index());
    if (!Idx)
      return Idx.takeError();
    Result<Value> V = eval(*P->val());
    if (!V)
      return V.takeError();
    Value NewList = *lookup(S); // Functional update: copy, then replace.
    if (Idx->asWord() >= NewList.elems().size())
      return Error("source-level out-of-bounds put on '" + P->array() + "'");
    Result<Value> Norm = normalizeElt(NewList.listElt(), *V);
    if (!Norm)
      return Norm.takeError();
    NewList.elems()[size_t(Idx->asWord())] = *Norm;
    return NewList;
  }

  case BoundForm::Kind::ListMap: {
    const auto *M = cast<ListMap>(&F);
    const Value *L = lookup(slot(M->array()));
    if (!L || L->kind() != Value::Kind::List)
      return Error("ListArray.map on unbound or non-list '" + M->array() +
                   "'");
    Value NewList = *L;
    unsigned Param = slot(M->param());
    size_t Mark = enterScope();
    for (Value &Elt : NewList.elems()) {
      if (FuelLeft-- == 0)
        return Error("out of fuel in ListArray.map");
      write(Param, Elt);
      Result<Value> V = eval(*M->body());
      if (!V)
        return V.takeError();
      Result<Value> Norm = normalizeElt(NewList.listElt(), *V);
      if (!Norm)
        return Norm.takeError();
      Elt = *Norm;
    }
    leaveScope(Mark);
    return NewList;
  }

  case BoundForm::Kind::ListFold: {
    const auto *L = cast<ListFold>(&F);
    unsigned S = slot(L->array());
    const Value *List = lookup(S);
    if (!List || List->kind() != Value::Kind::List)
      return Error("fold_left on unbound or non-list '" + L->array() + "'");
    Result<Value> Acc = eval(*L->init());
    if (!Acc)
      return Acc.takeError();
    // A parameter may share the list's name: walk a copy that the
    // parameter bindings cannot overwrite.
    const Value Walked = *lookup(S);
    unsigned AccParam = slot(L->accParam()), EltParam = slot(L->eltParam());
    size_t Mark = enterScope();
    for (const Value &Elt : Walked.elems()) {
      if (FuelLeft-- == 0)
        return Error("out of fuel in fold_left");
      write(AccParam, *Acc);
      write(EltParam, Elt);
      Acc = eval(*L->body());
      if (!Acc)
        return Acc.takeError();
    }
    leaveScope(Mark);
    return Acc.take();
  }

  case BoundForm::Kind::FoldBreak: {
    const auto *L = cast<FoldBreak>(&F);
    unsigned S = slot(L->array());
    const Value *List = lookup(S);
    if (!List || List->kind() != Value::Kind::List)
      return Error("fold_break on unbound or non-list '" + L->array() + "'");
    Result<Value> Acc = eval(*L->init());
    if (!Acc)
      return Acc.takeError();
    const Value Walked = *lookup(S); // As in fold_left.
    unsigned AccParam = slot(L->accParam()), EltParam = slot(L->eltParam());
    size_t Mark = enterScope();
    for (const Value &Elt : Walked.elems()) {
      if (FuelLeft-- == 0)
        return Error("out of fuel in fold_break");
      write(AccParam, *Acc);
      Result<Value> Brk = eval(*L->breakCond());
      if (!Brk)
        return Brk.takeError();
      if (Brk->kind() != Value::Kind::Bool)
        return Error("fold_break predicate is not a bool");
      if (Brk->asBool())
        break;
      write(EltParam, Elt);
      Acc = eval(*L->body());
      if (!Acc)
        return Acc.takeError();
    }
    leaveScope(Mark);
    return Acc.take();
  }

  case BoundForm::Kind::RangeFold: {
    const auto *R = cast<RangeFold>(&F);
    Result<Value> Lo = eval(*R->lo());
    if (!Lo)
      return Lo.takeError();
    Result<Value> Hi = eval(*R->hi());
    if (!Hi)
      return Hi.takeError();
    if (Lo->kind() != Value::Kind::Word || Hi->kind() != Value::Kind::Word)
      return Error("ranged_for bounds are not words");
    std::vector<Value> Accs;
    for (const AccInit &A : R->accs()) {
      Result<Value> V = eval(*A.Init);
      if (!V)
        return V.takeError();
      Accs.push_back(V.take());
    }
    unsigned Idx = slot(R->idxName());
    size_t Mark = enterScope();
    for (uint64_t I = Lo->asWord(); I < Hi->asWord(); ++I) {
      if (FuelLeft-- == 0)
        return Error("out of fuel in ranged_for");
      write(Idx, Value::word(I));
      for (size_t A = 0; A < Accs.size(); ++A)
        write(slot(R->accs()[A].Name), std::move(Accs[A]));
      Result<std::vector<Value>> Out = evalProg(*R->body());
      if (!Out)
        return Out.takeError();
      if (Out->size() != Accs.size())
        return Error("ranged_for body returns wrong number of accumulators");
      Accs = Out.take();
    }
    leaveScope(Mark);
    if (Accs.size() == 1)
      return Accs[0];
    return Value::tuple(std::move(Accs));
  }

  case BoundForm::Kind::WhileComb: {
    const auto *W = cast<WhileComb>(&F);
    std::vector<Value> Accs;
    for (const AccInit &A : W->accs()) {
      Result<Value> V = eval(*A.Init);
      if (!V)
        return V.takeError();
      Accs.push_back(V.take());
    }
    auto BindAccs = [&] {
      for (size_t A = 0; A < Accs.size(); ++A)
        write(slot(W->accs()[A].Name), Accs[A]);
    };
    size_t Mark = enterScope();
    BindAccs(); // Each iteration rebinds them after its body.
    while (true) {
      if (FuelLeft-- == 0)
        return Error("out of fuel in while");
      Result<Value> Cond = eval(*W->cond());
      if (!Cond)
        return Cond.takeError();
      if (Cond->kind() != Value::Kind::Bool)
        return Error("while condition is not a bool");
      if (!Cond->asBool())
        break;
      Result<Value> M0 = eval(*W->measure());
      if (!M0)
        return M0.takeError();
      Result<std::vector<Value>> Out = evalProg(*W->body());
      if (!Out)
        return Out.takeError();
      if (Out->size() != Accs.size())
        return Error("while body returns wrong number of accumulators");
      Accs = Out.take();
      BindAccs();
      Result<Value> M1 = eval(*W->measure());
      if (!M1)
        return M1.takeError();
      // Total-correctness obligation: the declared measure must strictly
      // decrease. This is the dynamic check standing in for the Coq proof.
      if (!(M1->asWord() < M0->asWord()))
        return Error("while measure did not strictly decrease (" +
                     std::to_string(M0->asWord()) + " -> " +
                     std::to_string(M1->asWord()) + ")");
    }
    leaveScope(Mark);
    if (Accs.size() == 1)
      return Accs[0];
    return Value::tuple(std::move(Accs));
  }

  case BoundForm::Kind::IfBound: {
    const auto *I = cast<IfBound>(&F);
    Result<Value> C = eval(*I->cond());
    if (!C)
      return C.takeError();
    if (C->kind() != Value::Kind::Bool)
      return Error("conditional guard is not a bool");
    Result<std::vector<Value>> Out =
        evalProg(C->asBool() ? *I->thenProg() : *I->elseProg());
    if (!Out)
      return Out.takeError();
    if (Out->size() == 1)
      return (*Out)[0];
    return Value::tuple(Out.take());
  }

  case BoundForm::Kind::StackInit: {
    const auto *S = cast<StackInit>(&F);
    return Value::byteList(S->bytes());
  }

  case BoundForm::Kind::StackUninit: {
    const auto *S = cast<StackUninit>(&F);
    // Unconstrained contents: drawn from the nondet oracle, so results that
    // depend on them differ across seeds and fail differential validation.
    std::vector<uint8_t> Bytes(S->size());
    for (uint8_t &B : Bytes)
      B = Ctx.Nondet.nextByte();
    return Value::byteList(Bytes);
  }

  case BoundForm::Kind::NondetAlloc: {
    const auto *N = cast<NondetAlloc>(&F);
    std::vector<uint8_t> Bytes(N->size());
    for (uint8_t &B : Bytes)
      B = Ctx.Nondet.nextByte();
    return Value::byteList(Bytes);
  }

  case BoundForm::Kind::NondetPeek:
    return Value::word(Ctx.Nondet.next());

  case BoundForm::Kind::IoRead: {
    uint64_t V = Ctx.NextInput < Ctx.InputTape.size()
                     ? Ctx.InputTape[Ctx.NextInput++]
                     : 0;
    Ctx.IoLog.emplace_back('r', V);
    return Value::word(V);
  }

  case BoundForm::Kind::IoWrite: {
    Result<Value> V = eval(*cast<IoWrite>(&F)->expr());
    if (!V)
      return V.takeError();
    if (V->kind() != Value::Kind::Word)
      return Error("write of non-word");
    Ctx.Output.push_back(V->asWord());
    Ctx.IoLog.emplace_back('w', V->asWord());
    return Value::unit();
  }

  case BoundForm::Kind::WriterTell: {
    Result<Value> V = eval(*cast<WriterTell>(&F)->expr());
    if (!V)
      return V.takeError();
    if (V->kind() != Value::Kind::Word)
      return Error("tell of non-word");
    Ctx.Output.push_back(V->asWord());
    Ctx.IoLog.emplace_back('w', V->asWord());
    return Value::unit();
  }

  case BoundForm::Kind::CellGet: {
    const auto *C = cast<CellGet>(&F);
    const Value *Cell = lookup(slot(C->cell()));
    if (!Cell || Cell->kind() != Value::Kind::List ||
        Cell->elems().size() != 1)
      return Error("Cell.get on unbound or non-cell '" + C->cell() + "'");
    return Cell->elems()[0];
  }

  case BoundForm::Kind::CellPut:
  case BoundForm::Kind::CellIncr: {
    bool IsIncr = F.kind() == BoundForm::Kind::CellIncr;
    const std::string &CellName =
        IsIncr ? cast<CellIncr>(&F)->cell() : cast<CellPut>(&F)->cell();
    const Expr *Arg =
        IsIncr ? cast<CellIncr>(&F)->expr() : cast<CellPut>(&F)->expr();
    unsigned S = slot(CellName);
    const Value *Cell = lookup(S);
    if (!Cell || Cell->kind() != Value::Kind::List ||
        Cell->elems().size() != 1)
      return Error("cell operation on unbound or non-cell '" + CellName + "'");
    Result<Value> V = eval(*Arg);
    if (!V)
      return V.takeError();
    if (V->kind() != Value::Kind::Word)
      return Error("cell operand is not a word");
    uint64_t Old = lookup(S)->elems()[0].asWord();
    uint64_t New = IsIncr ? Old + V->asWord() : V->asWord();
    return Value::list(EltKind::U64, {Value::word(New)});
  }

  case BoundForm::Kind::CopyArr: {
    const auto *C = cast<CopyArr>(&F);
    const Value *L = lookup(slot(C->array()));
    if (!L || L->kind() != Value::Kind::List)
      return Error("copy of unbound or non-list '" + C->array() + "'");
    return *L; // Pure duplication: the same list value.
  }

  case BoundForm::Kind::ExternCall: {
    const auto *X = cast<ExternCall>(&F);
    if (!Ctx.ExternSem)
      return Error("no source semantics registered for external call to '" +
                   X->callee() + "'");
    std::vector<Value> Args;
    for (const ExprPtr &A : X->args()) {
      Result<Value> V = eval(*A);
      if (!V)
        return V.takeError();
      Args.push_back(V.take());
    }
    Result<std::vector<Value>> Rets = Ctx.ExternSem(X->callee(), Args);
    if (!Rets)
      return Rets.takeError();
    if (Rets->size() != X->numRets())
      return Error("external call to '" + X->callee() +
                   "' returned wrong arity");
    if (Rets->size() == 1)
      return (*Rets)[0];
    return Value::tuple(Rets.take());
  }
  }
  return Error("unknown bound form");
}

Status Evaluator::bindResults(const Binding &B, Value V) {
  if (B.Names.size() == 1) {
    write(slot(B.Names[0]), std::move(V));
    return Status::success();
  }
  if (V.kind() != Value::Kind::Tuple || V.elems().size() != B.Names.size())
    return Error("binding " + B.str() + ": arity mismatch");
  for (size_t I = 0; I < B.Names.size(); ++I)
    write(slot(B.Names[I]), std::move(V.elems()[I]));
  return Status::success();
}

Result<std::vector<Value>> Evaluator::evalProg(const Prog &P) {
  size_t Mark = enterScope();
  for (const Binding &B : P.bindings()) {
    if (FuelLeft-- == 0)
      return Error("out of fuel");
    Result<Value> V = evalBound(B);
    if (!V)
      return V.takeError().note("in " + B.str());
    Status Bound = bindResults(B, V.take());
    if (!Bound)
      return Bound.takeError();
  }
  std::vector<Value> Out;
  Out.reserve(P.returns().size());
  for (const std::string &R : P.returns()) {
    const Value *V = lookup(slot(R));
    if (!V)
      return Error("returned variable '" + R + "' is unbound");
    Out.push_back(*V);
  }
  leaveScope(Mark);
  return Out;
}

Result<std::vector<Value>>
Evaluator::evalBody(const std::vector<Value> &Args) {
  assert(Args.size() == Fn.Params.size() && "one argument per parameter");
  resetFrame();
  for (size_t I = 0; I < Args.size(); ++I)
    write(slot(Fn.Params[I].Name), Args[I]);
  return evalProg(*Fn.Body);
}

Result<std::vector<Value>> evalFn(const SourceFn &Fn,
                                  const std::vector<Value> &Args,
                                  EffectCtx &Ctx, EvalOptions Opts) {
  if (Args.size() != Fn.Params.size())
    return Error("evalFn: expected " + std::to_string(Fn.Params.size()) +
                 " arguments, got " + std::to_string(Args.size()));
  return Evaluator(Fn, Ctx, Opts).evalBody(Args);
}

} // namespace ir
} // namespace relc
