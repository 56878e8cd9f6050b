//===- validate/Validate.cpp - Derivation replay + certification -----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "validate/Validate.h"

#include "support/Budget.h"
#include "support/Fault.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <set>

namespace relc {
namespace validate {

using ir::Value;

//===----------------------------------------------------------------------===//
// Layer 1: derivation replay.
//===----------------------------------------------------------------------===//

namespace {

const std::set<std::string> &trustedRules() {
  static const std::set<std::string> Rules = {
      // Statement lemmas.
      "compile_fn", "compile_fn_return", "compile_let", "compile_arrayput",
      "compile_map_inplace", "compile_fold", "compile_fold_break",
      "compile_ranged_for",
      "compile_while", "compile_cond", "compile_stack",
      "compile_stack_uninit", "compile_cell_get", "compile_cell_put",
      "compile_cell_iadd", "compile_nondet_alloc", "compile_nondet_peek",
      "compile_io_read", "compile_io_write", "compile_writer_tell",
      "compile_call", "compile_copy",
      // Structural derivation nodes.
      "map_body", "fold_body", "fold_break_cond", "ranged_for_body",
      "while_body", "while_cond",
      "cond_then", "cond_else",
      // Expression lemmas.
      "expr_compile_literal", "expr_compile_var", "expr_compile_binop",
      "expr_compile_cast", "expr_compile_select", "expr_compile_arrayget",
      "expr_compile_inlinetable_get"};
  return Rules;
}

const std::set<std::string> &loopLikeRules() {
  static const std::set<std::string> Rules = {
      "compile_map_inplace", "compile_fold", "compile_fold_break",
      "compile_ranged_for", "compile_while", "compile_cond"};
  return Rules;
}

Status walkDeriv(const core::DerivNode &N, unsigned *BoundsConds) {
  if (!trustedRules().count(N.Rule))
    return Error("derivation replay: unknown rule '" + N.Rule +
                 "' (not in the trusted schema set)");
  if (loopLikeRules().count(N.Rule)) {
    bool HasTemplate =
        std::any_of(N.Notes.begin(), N.Notes.end(), [](const std::string &S) {
          return S.find("template") != std::string::npos;
        });
    if (!HasTemplate)
      return Error("derivation replay: rule '" + N.Rule +
                   "' lacks an inferred invariant template");
  }
  for (const std::string &S : N.SideConds)
    if (S.find("(bounds of") != std::string::npos)
      ++*BoundsConds;
  for (const auto &C : N.Children) {
    Status Ok = walkDeriv(*C, BoundsConds);
    if (!Ok)
      return Ok;
  }
  return Status::success();
}

/// Counts memory accesses requiring bounds proofs in an expression.
unsigned countExprAccesses(const ir::Expr &E) {
  switch (E.kind()) {
  case ir::Expr::Kind::Const:
  case ir::Expr::Kind::VarRef:
    return 0;
  case ir::Expr::Kind::Bin: {
    const auto *B = cast<ir::Bin>(&E);
    return countExprAccesses(*B->lhs()) + countExprAccesses(*B->rhs());
  }
  case ir::Expr::Kind::Select: {
    const auto *S = cast<ir::Select>(&E);
    return countExprAccesses(*S->cond()) + countExprAccesses(*S->thenExpr()) +
           countExprAccesses(*S->elseExpr());
  }
  case ir::Expr::Kind::Cast:
    return countExprAccesses(*cast<ir::Cast>(&E)->operand());
  case ir::Expr::Kind::ArrayGet:
    return 1 + countExprAccesses(*cast<ir::ArrayGet>(&E)->index());
  case ir::Expr::Kind::TableGet:
    return 1 + countExprAccesses(*cast<ir::TableGet>(&E)->index());
  }
  return 0;
}

unsigned countProgAccesses(const ir::Prog &P);

unsigned countBoundAccesses(const ir::BoundForm &F) {
  using K = ir::BoundForm::Kind;
  switch (F.kind()) {
  case K::PureVal:
    return countExprAccesses(*cast<ir::PureVal>(&F)->expr());
  case K::ArrayPut: {
    const auto *A = cast<ir::ArrayPut>(&F);
    return 1 + countExprAccesses(*A->index()) + countExprAccesses(*A->val());
  }
  case K::ListMap:
    return countExprAccesses(*cast<ir::ListMap>(&F)->body());
  case K::ListFold: {
    const auto *L = cast<ir::ListFold>(&F);
    return countExprAccesses(*L->init()) + countExprAccesses(*L->body());
  }
  case K::FoldBreak: {
    const auto *L = cast<ir::FoldBreak>(&F);
    return countExprAccesses(*L->init()) + countExprAccesses(*L->body()) +
           countExprAccesses(*L->breakCond());
  }
  case K::RangeFold: {
    const auto *R = cast<ir::RangeFold>(&F);
    unsigned N = countExprAccesses(*R->lo()) + countExprAccesses(*R->hi());
    for (const ir::AccInit &A : R->accs())
      N += countExprAccesses(*A.Init);
    return N + countProgAccesses(*R->body());
  }
  case K::WhileComb: {
    const auto *W = cast<ir::WhileComb>(&F);
    unsigned N = countExprAccesses(*W->cond());
    for (const ir::AccInit &A : W->accs())
      N += countExprAccesses(*A.Init);
    return N + countProgAccesses(*W->body());
  }
  case K::IfBound: {
    const auto *I = cast<ir::IfBound>(&F);
    return countExprAccesses(*I->cond()) + countProgAccesses(*I->thenProg()) +
           countProgAccesses(*I->elseProg());
  }
  case K::IoWrite:
    return countExprAccesses(*cast<ir::IoWrite>(&F)->expr());
  case K::WriterTell:
    return countExprAccesses(*cast<ir::WriterTell>(&F)->expr());
  case K::CellPut:
    return countExprAccesses(*cast<ir::CellPut>(&F)->expr());
  case K::CellIncr:
    return countExprAccesses(*cast<ir::CellIncr>(&F)->expr());
  case K::ExternCall: {
    unsigned N = 0;
    for (const ir::ExprPtr &A : cast<ir::ExternCall>(&F)->args())
      N += countExprAccesses(*A);
    return N;
  }
  default:
    return 0;
  }
}

unsigned countProgAccesses(const ir::Prog &P) {
  unsigned N = 0;
  for (const ir::Binding &B : P.bindings())
    N += countBoundAccesses(*B.Bound);
  return N;
}

} // namespace

Status replayDerivation(const ir::SourceFn &Fn,
                        const core::CompileResult &Compiled) {
  if (!Compiled.Proof)
    return Error("derivation replay: no proof witness attached");
  unsigned BoundsConds = 0;
  Status Walk = walkDeriv(*Compiled.Proof, &BoundsConds);
  if (!Walk)
    return Walk;
  unsigned Accesses = countProgAccesses(*Fn.Body);
  if (BoundsConds != Accesses)
    return Error("derivation replay: the source performs " +
                 std::to_string(Accesses) +
                 " bounds-checked memory accesses but the witness records " +
                 std::to_string(BoundsConds) +
                 " discharged bounds side conditions");
  // The root must record the monad under which the lifts were applied.
  bool HasMonad = std::any_of(
      Compiled.Proof->Notes.begin(), Compiled.Proof->Notes.end(),
      [&](const std::string &S) {
        return S == "monad: " + std::string(ir::monadName(Fn.TheMonad));
      });
  if (!HasMonad)
    return Error("derivation replay: witness does not record the model's "
                 "ambient monad");
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Layer 4: differential certification.
//===----------------------------------------------------------------------===//

// defaultInputs lives in Inputs.cpp: program definitions reference it
// from their custom generators, and keeping it out of this translation
// unit keeps the replay and differential layers out of binaries that only
// link the program registry (the independent checker's no-producer
// guarantee, asserted with nm).

namespace {

/// Serializes a list value to raw little-endian bytes per its element kind.
std::vector<uint8_t> listBytes(const Value &L) {
  std::vector<uint8_t> Out;
  unsigned N = ir::eltSize(L.listElt());
  for (const Value &E : L.elems()) {
    uint64_t W = E.scalar();
    for (unsigned I = 0; I < N; ++I)
      Out.push_back(uint8_t(W >> (8 * I)));
  }
  return Out;
}

int paramIndex(const ir::SourceFn &Fn, const std::string &Name) {
  for (size_t I = 0; I < Fn.Params.size(); ++I)
    if (Fn.Params[I].Name == Name)
      return int(I);
  return -1;
}

int returnIndex(const ir::SourceFn &Fn, const std::string &Name) {
  const auto &Rets = Fn.Body->returns();
  for (size_t I = 0; I < Rets.size(); ++I)
    if (Rets[I] == Name)
      return int(I);
  return -1;
}

/// Runs one differential vector. \p VecTag identifies it in errors. When
/// the vector fails *because of an injected fault* (not a genuine
/// divergence), \p InjectedFault is set so the caller can classify the
/// failure as degraded rather than genuine.
Status runVector(const ir::SourceFn &Fn, const sep::FnSpec &Spec,
                 const bedrock::Module &Linked,
                 const ValidationOptions &Opts, std::vector<Value> Inputs,
                 const std::vector<uint64_t> &Tape, uint64_t SrcSeed,
                 uint64_t TgtSeed, const std::string &VecTag,
                 bool *InjectedFault = nullptr) {
  // Enforce the requires clause: length arguments equal their array's
  // length (inputs violating the precondition are out of contract).
  for (const sep::ArgSpec &A : Spec.Args) {
    if (A.TheKind != sep::ArgSpec::Kind::ArrayLen)
      continue;
    int LenIdx = paramIndex(Fn, A.SourceName);
    int ArrIdx = paramIndex(Fn, A.OfArray);
    Inputs[LenIdx] = Value::word(Inputs[ArrIdx].elems().size());
  }

  //--- Source semantics.
  ir::EffectCtx SrcCtx;
  SrcCtx.Nondet = Rng(SrcSeed);
  SrcCtx.InputTape = Tape;
  if (!Opts.CalleeModels.empty()) {
    SrcCtx.ExternSem = [&](const std::string &Callee,
                           const std::vector<Value> &Args)
        -> Result<std::vector<Value>> {
      auto It = Opts.CalleeModels.find(Callee);
      if (It == Opts.CalleeModels.end())
        return Error("no source model registered for callee '" + Callee +
                     "'");
      ir::EffectCtx Pure;
      return ir::evalFn(*It->second, Args, Pure);
    };
  }
  Result<std::vector<Value>> SrcOut = ir::evalFn(Fn, Inputs, SrcCtx);
  if (!SrcOut)
    return SrcOut.takeError().note("source semantics failed on vector " +
                                   VecTag);

  //--- Target semantics.
  bedrock::State St;
  std::map<std::string, bedrock::Word> ArrayBase, CellBase;
  std::vector<bedrock::Word> Args;
  for (const sep::ArgSpec &A : Spec.Args) {
    int PIdx = paramIndex(Fn, A.SourceName);
    const Value &V = Inputs[PIdx];
    switch (A.TheKind) {
    case sep::ArgSpec::Kind::Scalar:
    case sep::ArgSpec::Kind::ArrayLen:
      Args.push_back(V.asWord());
      break;
    case sep::ArgSpec::Kind::ArrayPtr: {
      std::vector<uint8_t> Bytes = listBytes(V);
      bedrock::Word Base = St.Mem.alloc(Bytes.size());
      Status F = St.Mem.fill(Base, Bytes);
      if (!F)
        return F;
      ArrayBase[A.SourceName] = Base;
      Args.push_back(Base);
      break;
    }
    case sep::ArgSpec::Kind::CellPtr: {
      bedrock::Word Base = St.Mem.alloc(8);
      Status S = St.Mem.storeN(bedrock::AccessSize::Eight, Base,
                               V.elems()[0].asWord());
      if (!S)
        return S;
      CellBase[A.SourceName] = Base;
      Args.push_back(Base);
      break;
    }
    }
  }
  // Frame canary: unrelated memory the callee must not touch.
  Rng CanaryRng(TgtSeed ^ 0xabcdef);
  std::vector<uint8_t> Canary = CanaryRng.bytes(64);
  bedrock::Word CanaryBase = St.Mem.alloc(64);
  Status CF = St.Mem.fill(CanaryBase, Canary);
  if (!CF)
    return CF;
  size_t BaselineAllocs = St.Mem.liveAllocations();

  bedrock::TapeEnv Env(Tape);
  bedrock::ExecOptions EO;
  EO.NondetSeed = TgtSeed;
  if (Opts.InterpFuel)
    EO.Fuel = Opts.InterpFuel;
  // Fault site: starve the interpreter of fuel. Transient hits are
  // absorbed by the retry allowance (no starvation happens); a persistent
  // hit starves the run, and the fuel diagnostic below names the injection.
  std::optional<fault::Hit> FuelFault =
      fault::fireWithRetry(fault::Site::InterpFuel, Spec.TargetName);
  if (FuelFault)
    EO.Fuel = FuelFault->Value ? FuelFault->Value : 16;
  bedrock::Interp Interp(Linked, Env, EO);
  Result<std::vector<bedrock::Word>> Rets =
      Interp.callFunction(St, Spec.TargetName, Args);
  if (!Rets) {
    Error E = Rets.takeError();
    if (Interp.hitFuelLimit()) {
      // Name the starvation: an out-of-fuel run is indistinguishable from
      // divergence to the caller otherwise, and graceful degradation
      // requires the budget (and any injected fault) to be identifiable.
      E.note("the Bedrock2 interpreter exhausted its fuel budget (" +
             std::to_string(EO.Fuel) + " steps)");
      if (FuelFault) {
        E.note(FuelFault->describe());
        if (InjectedFault)
          *InjectedFault = true;
      }
    }
    return E.note("target semantics failed on vector " + VecTag);
  }

  //--- Collect target outputs.
  TargetOutputs Out;
  Out.Rets = *Rets;
  Out.Tr = St.Tr;
  for (const auto &[Name, Base] : ArrayBase) {
    int PIdx = paramIndex(Fn, Name);
    std::vector<uint8_t> OrigBytes = listBytes(Inputs[PIdx]);
    Result<std::vector<uint8_t>> Now = St.Mem.read(Base, OrigBytes.size());
    if (!Now)
      return Now.takeError();
    Out.FinalArrays[Name] = Now.take();
  }
  for (const auto &[Name, Base] : CellBase) {
    Result<bedrock::Word> W = St.Mem.loadN(bedrock::AccessSize::Eight, Base);
    if (!W)
      return W.takeError();
    Out.FinalCells[Name] = *W;
  }

  //--- Universal checks: frame canary, leaks.
  Result<std::vector<uint8_t>> CanaryNow = St.Mem.read(CanaryBase, 64);
  if (!CanaryNow)
    return CanaryNow.takeError();
  if (*CanaryNow != Canary)
    return Error("frame violation: unrelated memory modified (vector " +
                 VecTag + ")");
  if (St.Mem.liveAllocations() != BaselineAllocs)
    return Error("allocation leak: " +
                 std::to_string(St.Mem.liveAllocations()) + " live vs " +
                 std::to_string(BaselineAllocs) + " expected (vector " +
                 VecTag + ")");

  //--- Frame checks for read-only parameters.
  auto InPlace = [&](const std::string &Name,
                     const std::vector<std::string> &L) {
    return std::find(L.begin(), L.end(), Name) != L.end();
  };
  for (const auto &[Name, Base] : ArrayBase) {
    (void)Base;
    if (InPlace(Name, Spec.InPlaceArrays))
      continue;
    int PIdx = paramIndex(Fn, Name);
    if (Out.FinalArrays[Name] != listBytes(Inputs[PIdx]))
      return Error("read-only array argument '" + Name +
                   "' was modified (vector " + VecTag + ")");
  }
  for (const auto &[Name, Base] : CellBase) {
    (void)Base;
    if (InPlace(Name, Spec.InPlaceCells))
      continue;
    int PIdx = paramIndex(Fn, Name);
    if (Out.FinalCells[Name] != Inputs[PIdx].elems()[0].asWord())
      return Error("read-only cell argument '" + Name +
                   "' was modified (vector " + VecTag + ")");
  }

  //--- Trace correspondence per monad.
  switch (Fn.TheMonad) {
  case ir::Monad::Pure:
  case ir::Monad::Nondet:
    if (!Out.Tr.empty())
      return Error("pure/nondet model produced trace events (vector " +
                   VecTag + ")");
    break;
  case ir::Monad::Writer: {
    std::vector<uint64_t> Written;
    for (const bedrock::Event &E : Out.Tr) {
      if (E.Action != "write" || E.Args.size() != 1)
        return Error("writer model produced a non-write event " + E.str());
      Written.push_back(E.Args[0]);
    }
    if (Written != SrcCtx.Output)
      return Error("writer output mismatch (vector " + VecTag + "): source " +
                   std::to_string(SrcCtx.Output.size()) + " words, target " +
                   std::to_string(Written.size()));
    break;
  }
  case ir::Monad::Io: {
    if (Out.Tr.size() != SrcCtx.IoLog.size())
      return Error("trace length mismatch (vector " + VecTag + "): source " +
                   std::to_string(SrcCtx.IoLog.size()) + ", target " +
                   std::to_string(Out.Tr.size()));
    for (size_t I = 0; I < Out.Tr.size(); ++I) {
      const auto &[Kind, W] = SrcCtx.IoLog[I];
      const bedrock::Event &E = Out.Tr[I];
      bool Ok = Kind == 'r'
                    ? (E.Action == "read" && E.Rets.size() == 1 &&
                       E.Rets[0] == W)
                    : (E.Action == "write" && E.Args.size() == 1 &&
                       E.Args[0] == W);
      if (!Ok)
        return Error("trace event " + std::to_string(I) + " mismatch: " +
                     E.str() + " (vector " + VecTag + ")");
    }
    break;
  }
  }

  //--- Ensures clause.
  if (Fn.TheMonad == ir::Monad::Nondet) {
    if (!Opts.NondetEnsures)
      return Error("nondet model requires an ensures predicate "
                   "(ValidationOptions::NondetEnsures)");
    Status Ok = Opts.NondetEnsures(Inputs, Out);
    if (!Ok)
      return Ok.takeError().note("nondet ensures failed on vector " + VecTag);
    return Status::success();
  }

  // Deterministic models: value equality against the source run.
  if (Out.Rets.size() != Spec.ScalarRets.size())
    return Error("target returned " + std::to_string(Out.Rets.size()) +
                 " words, spec declares " +
                 std::to_string(Spec.ScalarRets.size()));
  for (size_t I = 0; I < Spec.ScalarRets.size(); ++I) {
    int RIdx = returnIndex(Fn, Spec.ScalarRets[I]);
    uint64_t Want = (*SrcOut)[RIdx].scalar();
    if (Out.Rets[I] != Want)
      return Error("scalar return '" + Spec.ScalarRets[I] + "' mismatch: " +
                   hexStr(Out.Rets[I]) + " vs model " + hexStr(Want) +
                   " (vector " + VecTag + ")");
  }
  for (const std::string &Name : Spec.InPlaceArrays) {
    int RIdx = returnIndex(Fn, Name);
    std::vector<uint8_t> Want = listBytes((*SrcOut)[RIdx]);
    if (Out.FinalArrays[Name] != Want)
      return Error("in-place array '" + Name +
                   "' final contents mismatch (vector " + VecTag + ")");
  }
  for (const std::string &Name : Spec.InPlaceCells) {
    int RIdx = returnIndex(Fn, Name);
    uint64_t Want = (*SrcOut)[RIdx].elems()[0].asWord();
    if (Out.FinalCells[Name] != Want)
      return Error("in-place cell '" + Name + "' mismatch: " +
                   hexStr(Out.FinalCells[Name]) + " vs model " +
                   hexStr(Want) + " (vector " + VecTag + ")");
  }
  return Status::success();
}

} // namespace

Status differentialCertify(const ir::SourceFn &Fn, const sep::FnSpec &Spec,
                           const core::CompileResult &Compiled,
                           const bedrock::Module &Linked,
                           const ValidationOptions &Opts,
                           bool *BudgetExhausted) {
  if (BudgetExhausted)
    *BudgetExhausted = false;
  Status WF = bedrock::verifyModule(Linked);
  if (!WF)
    return WF.takeError().note("linked module is not well formed");
  const bedrock::Function *F = Linked.find(Spec.TargetName);
  if (!F)
    return Error("linked module lacks the compiled function '" +
                 Spec.TargetName + "'");
  for (const std::string &Callee : Compiled.ExternalCallees)
    if (!Linked.find(Callee))
      return Error("linked module lacks external callee '" + Callee + "'");

  std::optional<guard::Budget> B;
  if (Opts.LayerTimeoutMs)
    B.emplace(Opts.LayerTimeoutMs, /*StepLimit=*/0);
  const unsigned Total = unsigned(Opts.Sizes.size()) * Opts.VectorsPerSize;

  Rng R(Opts.Seed);
  unsigned Vec = 0;
  for (size_t Size : Opts.Sizes) {
    for (unsigned K = 0; K < Opts.VectorsPerSize; ++K, ++Vec) {
      // Deadline check between vectors (checkpoint polls the clock
      // unconditionally — vectors are coarse units, a counter heuristic
      // would let one slow vector overshoot by its whole runtime).
      if (B && !B->checkpoint()) {
        if (BudgetExhausted)
          *BudgetExhausted = true;
        return Error("differential certification " + B->describe() +
                     " after " + std::to_string(Vec) + " of " +
                     std::to_string(Total) + " vectors");
      }
      std::vector<Value> Inputs = Opts.MakeInputs
                                      ? Opts.MakeInputs(Fn, R, Size)
                                      : defaultInputs(Fn, R, Size);
      std::vector<uint64_t> Tape;
      for (unsigned T = 0; T < 16 + Size % 16; ++T)
        Tape.push_back(R.next());
      // Distinct nondet seeds on the two sides: results may not depend on
      // oracle choices unless the monad is nondet (where the ensures
      // predicate, not equality, is checked).
      std::string Tag = "#" + std::to_string(Vec) + " (size " +
                        std::to_string(Size) + ")";
      bool Injected = false;
      Status Ok = runVector(Fn, Spec, Linked, Opts, std::move(Inputs), Tape,
                            /*SrcSeed=*/R.next(), /*TgtSeed=*/R.next(), Tag,
                            &Injected);
      if (!Ok) {
        // A fault-injected failure is a degraded outcome, not a genuine
        // divergence: report it through the same out-flag as budget
        // exhaustion so the pipeline marks the layer Degraded.
        if (Injected && BudgetExhausted)
          *BudgetExhausted = true;
        return Ok;
      }
    }
  }
  return Status::success();
}

} // namespace validate
} // namespace relc
