//===- ir/Interp.h - Reference semantics for FunLang -----------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The denotational reference semantics of FunLang models. This is the
// "meaning" side of the equivalence the relational compiler certifies: the
// validator compares a compiled Bedrock2 function's behaviour against this
// interpreter.
//
// Effects are interpreted against an EffectCtx shared in spirit with the
// target-side environment: IO reads consume an input tape, IO writes and
// writer tells accumulate output, and nondet draws from a seeded oracle.
// Totality is enforced: while-loops must strictly decrease their declared
// measure, and a global fuel bound catches runaway evaluation.
//
// One evaluation runs in one flat frame. Each name resolves to a dense
// slot the first time the evaluation meets it (keyed by the address of the
// name string in the immutable AST, so a lookup is one pointer hash), and
// the layout dies with the evaluation. Every sub-program scope — a loop
// iteration, an if branch, the parameters of a map or fold — moves a
// slot's old value onto a save stack at its first write to that slot and
// moves it back on exit. Readers therefore see exactly what a fresh copy
// of the environment per scope would show, without the copy: evaluation
// is linear in the input length (DESIGN.md §4.4).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_IR_INTERP_H
#define RELC_IR_INTERP_H

#include "ir/Prog.h"
#include "support/Result.h"
#include "support/Rng.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

namespace relc {
namespace ir {

/// A named environment: the seed of Evaluator::evalExpr.
using Env = std::map<std::string, Value>;

/// The effect context threading extensional effects through evaluation.
struct EffectCtx {
  Rng Nondet{0x5eed};              ///< Oracle for nondet alloc/peek.
  std::vector<uint64_t> InputTape; ///< Consumed by IoRead (zeros when empty).
  size_t NextInput = 0;
  std::vector<uint64_t> Output;    ///< IoWrite / WriterTell accumulator.

  /// Ordered effect log for trace comparison: ('r', value-read) and
  /// ('w', value-written) entries in program order.
  std::vector<std::pair<char, uint64_t>> IoLog;

  /// Source-level meaning of external calls: maps (callee, scalar args) to
  /// scalar results. Wired up by the validator to the callee's own model.
  std::function<Result<std::vector<Value>>(const std::string &,
                                           const std::vector<Value> &)>
      ExternSem;
};

/// Evaluation options.
struct EvalOptions {
  uint64_t Fuel = 100'000'000; ///< Max binding evaluations.
};

class Evaluator {
public:
  Evaluator(const SourceFn &Fn, EffectCtx &Ctx, EvalOptions Opts = {})
      : Fn(Fn), Ctx(Ctx), FuelLeft(Opts.Fuel) {}

  /// Evaluates a pure expression in a frame seeded from \p E.
  Result<Value> evalExpr(const Env &E, const Expr &Ex);

  /// Evaluates the function's body with its parameters bound to \p Args
  /// (one per parameter, in order); returns its return tuple.
  Result<std::vector<Value>> evalBody(const std::vector<Value> &Args);

private:
  const SourceFn &Fn;
  EffectCtx &Ctx;
  uint64_t FuelLeft;

  /// One name's binding.
  struct Slot {
    std::optional<Value> V; ///< Empty when unbound.
    unsigned WrittenAt = 0; ///< Depth of the innermost scope that saved it.
  };
  /// A slot as it was before the current scope first wrote it.
  struct Saved {
    unsigned Index;
    Slot Old;
  };

  std::unordered_map<const std::string *, unsigned> SlotOfName;
  std::unordered_map<std::string, unsigned> SlotOfText;
  std::vector<Slot> Frame;
  std::vector<Saved> SaveStack;
  unsigned Depth = 0; ///< Scopes entered; 0 while seeding the frame.

  void resetFrame();
  unsigned slot(const std::string &Name);
  const Value *lookup(unsigned S) const;
  void write(unsigned S, Value V);
  size_t enterScope();
  void leaveScope(size_t Mark);

  Result<Value> eval(const Expr &Ex);
  Result<std::vector<Value>> evalProg(const Prog &P);
  Result<Value> evalBound(const Binding &B);
  Status bindResults(const Binding &B, Value V);
};

/// Evaluates \p Fn applied to \p Args (one Value per parameter, in order),
/// against effect context \p Ctx. Returns the tuple of results.
Result<std::vector<Value>> evalFn(const SourceFn &Fn,
                                  const std::vector<Value> &Args,
                                  EffectCtx &Ctx, EvalOptions Opts = {});

} // namespace ir
} // namespace relc

#endif // RELC_IR_INTERP_H
