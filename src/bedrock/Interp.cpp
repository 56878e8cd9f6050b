//===- bedrock/Interp.cpp - Fuel-bounded big-step interpreter -------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "bedrock/Interp.h"

#include "support/StringExtras.h"

#include <set>

namespace relc {
namespace bedrock {

//===----------------------------------------------------------------------===//
// Memory.
//===----------------------------------------------------------------------===//

Word Memory::alloc(Word Size) {
  Word Base = NextBase;
  // Guard gap after every allocation; also keeps bases distinct for
  // zero-size allocations.
  NextBase += Size + 0x1000;
  NextBase = (NextBase + 0xfff) & ~Word(0xfff);
  Regions[Base].Bytes.resize(Size);
  return Base;
}

Status Memory::free(Word Base, Word Size) {
  auto It = Regions.find(Base);
  if (It == Regions.end())
    return Error("free: " + hexStr(Base) + " is not a live allocation base");
  if (It->second.Bytes.size() != Size)
    return Error("free: size mismatch at " + hexStr(Base) + ": have " +
                 std::to_string(It->second.Bytes.size()) + ", freeing " +
                 std::to_string(Size));
  Regions.erase(It);
  return Status::success();
}

const Memory::Region *Memory::find(Word Addr, Word *Offset) const {
  auto It = Regions.upper_bound(Addr);
  if (It == Regions.begin())
    return nullptr;
  --It;
  Word Off = Addr - It->first;
  if (Off >= It->second.Bytes.size())
    return nullptr;
  *Offset = Off;
  return &It->second;
}

Memory::Region *Memory::find(Word Addr, Word *Offset) {
  return const_cast<Region *>(
      static_cast<const Memory *>(this)->find(Addr, Offset));
}

Result<uint8_t> Memory::loadByte(Word Addr) const {
  Word Off;
  const Region *R = find(Addr, &Off);
  if (!R)
    return Error("load of unmapped address " + hexStr(Addr));
  return R->Bytes[Off];
}

Status Memory::storeByte(Word Addr, uint8_t Value) {
  Word Off;
  Region *R = find(Addr, &Off);
  if (!R)
    return Error("store to unmapped address " + hexStr(Addr));
  R->Bytes[Off] = Value;
  return Status::success();
}

Result<Word> Memory::loadN(AccessSize Size, Word Addr) const {
  Word Off;
  const Region *R = find(Addr, &Off);
  unsigned N = unsigned(Size);
  if (!R || Off + N > R->Bytes.size())
    return Error("load" + std::to_string(N) + " out of bounds at " +
                 hexStr(Addr));
  Word V = 0;
  for (unsigned I = 0; I < N; ++I)
    V |= Word(R->Bytes[Off + I]) << (8 * I);
  return V;
}

Status Memory::storeN(AccessSize Size, Word Addr, Word Value) {
  Word Off;
  Region *R = find(Addr, &Off);
  unsigned N = unsigned(Size);
  if (!R || Off + N > R->Bytes.size())
    return Error("store" + std::to_string(N) + " out of bounds at " +
                 hexStr(Addr));
  for (unsigned I = 0; I < N; ++I)
    R->Bytes[Off + I] = uint8_t(Value >> (8 * I));
  return Status::success();
}

Status Memory::fill(Word Addr, const std::vector<uint8_t> &Bytes) {
  for (size_t I = 0; I < Bytes.size(); ++I) {
    Status S = storeByte(Addr + I, Bytes[I]);
    if (!S)
      return S;
  }
  return Status::success();
}

Result<std::vector<uint8_t>> Memory::read(Word Addr, Word Len) const {
  std::vector<uint8_t> Out(Len);
  for (Word I = 0; I < Len; ++I) {
    Result<uint8_t> B = loadByte(Addr + I);
    if (!B)
      return B.takeError();
    Out[I] = *B;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Traces and environments.
//===----------------------------------------------------------------------===//

std::string Event::str() const {
  std::vector<std::string> A, R;
  for (Word W : Args)
    A.push_back(hexStr(W));
  for (Word W : Rets)
    R.push_back(hexStr(W));
  return Action + "(" + join(A, ", ") + ") -> (" + join(R, ", ") + ")";
}

std::string str(const Trace &T) {
  std::string Out;
  for (const Event &E : T)
    Out += E.str() + "\n";
  return Out;
}

Result<std::vector<Word>> TapeEnv::interact(const std::string &Action,
                                            const std::vector<Word> &Args) {
  if (Action == "read") {
    Word V = Next < Input.size() ? Input[Next++] : 0;
    return std::vector<Word>{V};
  }
  if (Action == "write") {
    if (Args.size() != 1)
      return Error("write expects one argument");
    Output.push_back(Args[0]);
    return std::vector<Word>{};
  }
  return Error("TapeEnv: unknown external action '" + Action + "'");
}

//===----------------------------------------------------------------------===//
// The frame.
//===----------------------------------------------------------------------===//

void Interp::resetFrame() {
  SlotOfName.clear();
  SlotOfText.clear();
  Frame.clear();
}

unsigned Interp::slot(const std::string &Name) {
  auto [It, Fresh] = SlotOfName.try_emplace(&Name, 0u);
  if (Fresh)
    It->second =
        SlotOfText.try_emplace(Name, unsigned(SlotOfText.size())).first->second;
  return It->second;
}

const Word *Interp::lookup(const std::string &Name) {
  unsigned I = slot(Name);
  return I < Frame.size() && Frame[I].Defined ? &Frame[I].V : nullptr;
}

void Interp::define(const std::string &Name, Word V) {
  unsigned I = slot(Name);
  if (I >= Frame.size())
    Frame.resize(SlotOfText.size());
  Frame[I] = {V, true};
}

void Interp::undefine(const std::string &Name) {
  unsigned I = slot(Name);
  if (I < Frame.size())
    Frame[I].Defined = false;
}

//===----------------------------------------------------------------------===//
// Interpreter.
//===----------------------------------------------------------------------===//

Result<Word> Interp::evalExpr(const State &S, const Function &Fn,
                              const Expr &E) {
  resetFrame();
  for (const auto &[Name, V] : S.Vars)
    define(Name, V);
  return eval(S.Mem, Fn, E);
}

Result<Word> Interp::eval(const Memory &Mem, const Function &Fn,
                          const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Literal:
    return cast<Literal>(&E)->value();
  case Expr::Kind::Var: {
    const auto *V = cast<Var>(&E);
    const Word *Bound = lookup(V->name());
    if (!Bound)
      return Error("read of undefined local '" + V->name() + "'");
    return *Bound;
  }
  case Expr::Kind::Load: {
    const auto *L = cast<Load>(&E);
    Result<Word> Addr = eval(Mem, Fn, *L->addr());
    if (!Addr)
      return Addr.takeError();
    return Mem.loadN(L->size(), *Addr);
  }
  case Expr::Kind::TableGet: {
    const auto *T = cast<TableGet>(&E);
    const InlineTable *Tbl = Fn.findTable(T->table());
    if (!Tbl)
      return Error("unknown inline table '" + T->table() + "' in function " +
                   Fn.Name);
    Result<Word> Idx = eval(Mem, Fn, *T->index());
    if (!Idx)
      return Idx.takeError();
    if (*Idx >= Tbl->Elements.size())
      return Error("inline-table index " + std::to_string(*Idx) +
                   " out of bounds for " + T->table() + "[" +
                   std::to_string(Tbl->Elements.size()) + "]");
    // Entries are stored in EltSize bytes; reading uses the same width.
    Word Mask = unsigned(Tbl->EltSize) == 8
                    ? ~Word(0)
                    : ((Word(1) << (8 * unsigned(Tbl->EltSize))) - 1);
    return Tbl->Elements[*Idx] & Mask;
  }
  case Expr::Kind::Bin: {
    const auto *B = cast<Bin>(&E);
    Result<Word> L = eval(Mem, Fn, *B->lhs());
    if (!L)
      return L.takeError();
    Result<Word> R = eval(Mem, Fn, *B->rhs());
    if (!R)
      return R.takeError();
    return evalBinOp(B->op(), *L, *R);
  }
  }
  return Error("unknown expression kind");
}

Status Interp::exec(State &S, const Function &Fn, const Cmd &C) {
  if (FuelLeft == 0) {
    FuelExhausted = true;
    return Error("out of fuel (nonterminating or excessively long run)");
  }
  --FuelLeft;

  switch (C.kind()) {
  case Cmd::Kind::Skip:
    return Status::success();

  case Cmd::Kind::Set: {
    const auto *SetC = cast<Set>(&C);
    Result<Word> V = eval(S.Mem, Fn, *SetC->value());
    if (!V)
      return V.takeError().note("in " + SetC->line());
    define(SetC->name(), *V);
    return Status::success();
  }

  case Cmd::Kind::Unset: {
    undefine(cast<Unset>(&C)->name());
    return Status::success();
  }

  case Cmd::Kind::Store: {
    const auto *St = cast<Store>(&C);
    Result<Word> Addr = eval(S.Mem, Fn, *St->addr());
    if (!Addr)
      return Addr.takeError();
    Result<Word> Val = eval(S.Mem, Fn, *St->value());
    if (!Val)
      return Val.takeError();
    Status Ok = S.Mem.storeN(St->size(), *Addr, *Val);
    if (!Ok)
      return Ok.takeError().note("in " + St->line());
    return Status::success();
  }

  case Cmd::Kind::Seq: {
    const auto *Sq = cast<Seq>(&C);
    Status First = exec(S, Fn, *Sq->first());
    if (!First)
      return First;
    return exec(S, Fn, *Sq->second());
  }

  case Cmd::Kind::If: {
    const auto *I = cast<If>(&C);
    Result<Word> Cond = eval(S.Mem, Fn, *I->cond());
    if (!Cond)
      return Cond.takeError();
    return exec(S, Fn, *Cond != 0 ? *I->thenCmd() : *I->elseCmd());
  }

  case Cmd::Kind::While: {
    const auto *W = cast<While>(&C);
    while (true) {
      if (FuelLeft == 0) {
        FuelExhausted = true;
        return Error("out of fuel in while loop");
      }
      --FuelLeft;
      Result<Word> Cond = eval(S.Mem, Fn, *W->cond());
      if (!Cond)
        return Cond.takeError();
      if (*Cond == 0)
        return Status::success();
      Status Body = exec(S, Fn, *W->body());
      if (!Body)
        return Body;
    }
  }

  case Cmd::Kind::Call: {
    const auto *Cl = cast<Call>(&C);
    std::vector<Word> Args;
    for (const ExprPtr &A : Cl->args()) {
      Result<Word> V = eval(S.Mem, Fn, *A);
      if (!V)
        return V.takeError();
      Args.push_back(*V);
    }
    Result<std::vector<Word>> Rets = callFunction(S, Cl->callee(), Args);
    if (!Rets)
      return Rets.takeError().note("in call to " + Cl->callee());
    if (Rets->size() != Cl->rets().size())
      return Error("call to " + Cl->callee() + ": arity mismatch on returns");
    for (size_t I = 0; I < Rets->size(); ++I)
      define(Cl->rets()[I], (*Rets)[I]);
    return Status::success();
  }

  case Cmd::Kind::Stackalloc: {
    const auto *SA = cast<Stackalloc>(&C);
    Word Base = S.Mem.alloc(SA->numBytes());
    // Model uninitialized contents nondeterministically.
    std::vector<uint8_t> Junk(SA->numBytes());
    for (uint8_t &B : Junk)
      B = Nondet.nextByte();
    Status Filled = S.Mem.fill(Base, Junk);
    if (!Filled)
      return Filled;
    define(SA->name(), Base);
    Status Body = exec(S, Fn, *SA->body());
    if (!Body)
      return Body;
    // Scope exit: the block must still be intact (Bedrock2 requires the
    // stack region to be reconstituted when the scope ends).
    Status Freed = S.Mem.free(Base, SA->numBytes());
    if (!Freed)
      return Freed.takeError().note("stackalloc scope exit for " + SA->name());
    undefine(SA->name());
    return Status::success();
  }

  case Cmd::Kind::Interact: {
    const auto *In = cast<Interact>(&C);
    std::vector<Word> Args;
    for (const ExprPtr &A : In->args()) {
      Result<Word> V = eval(S.Mem, Fn, *A);
      if (!V)
        return V.takeError();
      Args.push_back(*V);
    }
    Result<std::vector<Word>> Rets = Env.interact(In->action(), Args);
    if (!Rets)
      return Rets.takeError().note("in external action " + In->action());
    if (Rets->size() != In->rets().size())
      return Error("external action " + In->action() +
                   ": arity mismatch on returns");
    S.Tr.push_back(Event{In->action(), Args, *Rets});
    for (size_t I = 0; I < Rets->size(); ++I)
      define(In->rets()[I], (*Rets)[I]);
    return Status::success();
  }
  }
  return Error("unknown command kind");
}

Result<std::vector<Word>> Interp::callFunction(State &S,
                                               const std::string &Name,
                                               const std::vector<Word> &Args) {
  if (CallDepth == 0) {
    resetFuel();
    resetFrame();
  }
  const Function *Fn = Mod.find(Name);
  if (!Fn)
    return Error("call to unknown function '" + Name + "'");
  if (Fn->Args.size() != Args.size())
    return Error("call to " + Name + ": expected " +
                 std::to_string(Fn->Args.size()) + " args, got " +
                 std::to_string(Args.size()));
  if (++CallDepth > 1024) {
    --CallDepth;
    return Error("call depth exceeded (runaway recursion)");
  }

  // Function-scoped locals: swap in a fresh frame.
  std::vector<Slot> Saved = std::move(Frame);
  Frame.assign(SlotOfText.size(), Slot());
  for (size_t I = 0; I < Args.size(); ++I)
    define(Fn->Args[I], Args[I]);

  Status Body = exec(S, *Fn, *Fn->Body);
  if (!Body) {
    --CallDepth;
    Frame = std::move(Saved);
    return Body.takeError().note("in function " + Name);
  }

  std::vector<Word> Rets;
  for (const std::string &R : Fn->Rets) {
    const Word *V = lookup(R);
    if (!V) {
      --CallDepth;
      Frame = std::move(Saved);
      return Error("function " + Name + " ended without setting return '" +
                   R + "'");
    }
    Rets.push_back(*V);
  }
  Frame = std::move(Saved);
  --CallDepth;
  return Rets;
}

Result<RunResult>
runFunction(const Module &Mod, const std::string &Name,
            const std::vector<Word> &Args, ExtHandler &Env,
            const std::function<Status(State &, std::vector<Word> &)> &Setup,
            ExecOptions Opts) {
  State S;
  std::vector<Word> ActualArgs = Args;
  if (Setup) {
    Status Ok = Setup(S, ActualArgs);
    if (!Ok)
      return Ok.takeError().note("in run setup");
  }
  Interp I(Mod, Env, Opts);
  Result<std::vector<Word>> Rets = I.callFunction(S, Name, ActualArgs);
  if (!Rets)
    return Rets.takeError();
  return RunResult{Rets.take(), std::move(S), I.fuelUsed()};
}

//===----------------------------------------------------------------------===//
// Static well-formedness.
//===----------------------------------------------------------------------===//

namespace {

class Verifier {
public:
  Verifier(const Module &Mod, const Function &Fn) : Mod(Mod), Fn(Fn) {}

  Status verifyExpr(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Literal:
    case Expr::Kind::Var:
      return Status::success();
    case Expr::Kind::Load:
      return verifyExpr(*cast<Load>(&E)->addr());
    case Expr::Kind::TableGet: {
      const auto *T = cast<TableGet>(&E);
      const InlineTable *Tbl = Fn.findTable(T->table());
      if (!Tbl)
        return Error("function " + Fn.Name + " references unknown table '" +
                     T->table() + "'");
      if (T->size() != Tbl->EltSize)
        return Error("table read width mismatch for '" + T->table() + "'");
      Word Mask = unsigned(Tbl->EltSize) == 8
                      ? ~Word(0)
                      : ((Word(1) << (8 * unsigned(Tbl->EltSize))) - 1);
      for (Word Elt : Tbl->Elements)
        if ((Elt & ~Mask) != 0)
          return Error("table '" + T->table() + "' has an element wider than " +
                       std::to_string(unsigned(Tbl->EltSize)) + " bytes");
      return verifyExpr(*T->index());
    }
    case Expr::Kind::Bin: {
      const auto *B = cast<Bin>(&E);
      Status L = verifyExpr(*B->lhs());
      if (!L)
        return L;
      return verifyExpr(*B->rhs());
    }
    }
    return Error("unknown expression kind");
  }

  Status verifyCmd(const Cmd &C) {
    switch (C.kind()) {
    case Cmd::Kind::Skip:
      return Status::success();
    case Cmd::Kind::Set: {
      const auto *SetC = cast<Set>(&C);
      if (SetC->name().empty())
        return Error("assignment to empty local name");
      return verifyExpr(*SetC->value());
    }
    case Cmd::Kind::Unset:
      return Status::success();
    case Cmd::Kind::Store: {
      const auto *St = cast<Store>(&C);
      Status A = verifyExpr(*St->addr());
      if (!A)
        return A;
      return verifyExpr(*St->value());
    }
    case Cmd::Kind::Seq: {
      const auto *Sq = cast<Seq>(&C);
      Status F = verifyCmd(*Sq->first());
      if (!F)
        return F;
      return verifyCmd(*Sq->second());
    }
    case Cmd::Kind::If: {
      const auto *I = cast<If>(&C);
      Status Cond = verifyExpr(*I->cond());
      if (!Cond)
        return Cond;
      Status T = verifyCmd(*I->thenCmd());
      if (!T)
        return T;
      return verifyCmd(*I->elseCmd());
    }
    case Cmd::Kind::While: {
      const auto *W = cast<While>(&C);
      Status Cond = verifyExpr(*W->cond());
      if (!Cond)
        return Cond;
      return verifyCmd(*W->body());
    }
    case Cmd::Kind::Call: {
      const auto *Cl = cast<Call>(&C);
      const Function *Callee = Mod.find(Cl->callee());
      if (!Callee)
        return Error("call to unknown function '" + Cl->callee() + "'");
      if (Callee->Args.size() != Cl->args().size())
        return Error("call to " + Cl->callee() + ": argument arity mismatch");
      if (Callee->Rets.size() != Cl->rets().size())
        return Error("call to " + Cl->callee() + ": return arity mismatch");
      for (const ExprPtr &A : Cl->args()) {
        Status S = verifyExpr(*A);
        if (!S)
          return S;
      }
      return Status::success();
    }
    case Cmd::Kind::Stackalloc: {
      const auto *SA = cast<Stackalloc>(&C);
      if (SA->name().empty())
        return Error("stackalloc with empty name");
      return verifyCmd(*SA->body());
    }
    case Cmd::Kind::Interact: {
      const auto *In = cast<Interact>(&C);
      for (const ExprPtr &A : In->args()) {
        Status S = verifyExpr(*A);
        if (!S)
          return S;
      }
      return Status::success();
    }
    }
    return Error("unknown command kind");
  }

private:
  const Module &Mod;
  const Function &Fn;
};

} // namespace

Status verifyModule(const Module &Mod) {
  std::set<std::string> Names;
  for (const Function &F : Mod.Functions) {
    if (!Names.insert(F.Name).second)
      return Error("duplicate function name '" + F.Name + "'");
    if (!F.Body)
      return Error("function '" + F.Name + "' has no body");
    std::set<std::string> TableNames;
    for (const InlineTable &T : F.Tables)
      if (!TableNames.insert(T.Name).second)
        return Error("duplicate table name '" + T.Name + "' in " + F.Name);
    Verifier V(Mod, F);
    Status Ok = V.verifyCmd(*F.Body);
    if (!Ok)
      return Ok.takeError().note("in function " + F.Name);
  }
  return Status::success();
}

} // namespace bedrock
} // namespace relc
