//===- bedrock/Interp.h - Fuel-bounded big-step interpreter ----*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Executable semantics for the Bedrock2-like target language. This is the
// stand-in for Bedrock2's Coq semantics: the validator runs compiled code
// under this interpreter and compares against the source model's meaning.
//
// Semantics notes (Box 2 of the paper):
//  - Only terminating executions have meaning: execution is fuel-bounded,
//    and running out of fuel is an error, so a passing validation is a
//    total-correctness observation.
//  - Memory is flat and byte-addressed; every access is bounds-checked
//    against live allocations, so wild reads/writes are errors, not UB.
//  - Stack allocations expose uninitialized memory: fresh blocks are filled
//    from a nondeterminism oracle, so code whose result depends on
//    uninitialized bytes fails differential validation across seeds.
//  - External interactions append events to a trace and get their results
//    from an environment handler.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_BEDROCK_INTERP_H
#define RELC_BEDROCK_INTERP_H

#include "bedrock/Ast.h"
#include "support/Result.h"
#include "support/Rng.h"

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace relc {
namespace bedrock {

//===----------------------------------------------------------------------===//
// Memory.
//===----------------------------------------------------------------------===//

/// Flat byte-addressed memory made of disjoint live allocations. Addresses
/// are separated by guard gaps so that off-by-one pointer arithmetic lands
/// in unmapped space and faults.
class Memory {
public:
  /// Allocates \p Size bytes (zero-size allowed) and returns the base
  /// address. Initial contents are zero; use fill() for other contents.
  Word alloc(Word Size);

  /// Frees the allocation based at \p Base. Fails if \p Base is not a live
  /// allocation base or the recorded size differs (used by stackalloc scope
  /// exit, which must find the block intact).
  Status free(Word Base, Word Size);

  /// Byte accessors; fail on addresses outside live allocations.
  Result<uint8_t> loadByte(Word Addr) const;
  Status storeByte(Word Addr, uint8_t Value);

  /// Little-endian sized accessors. The access must lie entirely inside one
  /// allocation (no cross-allocation straddling).
  Result<Word> loadN(AccessSize Size, Word Addr) const;
  Status storeN(AccessSize Size, Word Addr, Word Value);

  /// Copies \p Bytes into memory starting at \p Addr.
  Status fill(Word Addr, const std::vector<uint8_t> &Bytes);

  /// Reads \p Len bytes starting at \p Addr.
  Result<std::vector<uint8_t>> read(Word Addr, Word Len) const;

  /// Number of live allocations (for leak checking in tests).
  size_t liveAllocations() const { return Regions.size(); }

private:
  struct Region {
    std::vector<uint8_t> Bytes;
  };

  /// Returns the region containing \p Addr and the offset within it, or
  /// null when unmapped.
  const Region *find(Word Addr, Word *Offset) const;
  Region *find(Word Addr, Word *Offset);

  std::map<Word, Region> Regions; ///< Keyed by base address.
  Word NextBase = 0x100000;       ///< Bump pointer; gaps of 4 KiB.
};

//===----------------------------------------------------------------------===//
// Traces and the external environment.
//===----------------------------------------------------------------------===//

/// One externally observable event: an interaction's name, the argument
/// words passed out, and the result words received.
struct Event {
  std::string Action;
  std::vector<Word> Args;
  std::vector<Word> Rets;

  bool operator==(const Event &O) const = default;
  std::string str() const;
};

using Trace = std::vector<Event>;

std::string str(const Trace &T);

/// The environment's side of external interactions. Given the action name
/// and arguments, produces the result words. The same handler object is
/// shared with the source-language interpreter so that both sides observe
/// the same environment — the premise of trace equality in specs.
class ExtHandler {
public:
  virtual ~ExtHandler() = default;
  virtual Result<std::vector<Word>> interact(const std::string &Action,
                                             const std::vector<Word> &Args) = 0;
};

/// A convenient environment: "read"-style actions consume from an input
/// tape; "write"-style actions accumulate into an output buffer (also
/// visible in the trace). Reading past the tape yields zeros.
class TapeEnv : public ExtHandler {
public:
  explicit TapeEnv(std::vector<Word> Input = {}) : Input(std::move(Input)) {}

  Result<std::vector<Word>> interact(const std::string &Action,
                                     const std::vector<Word> &Args) override;

  const std::vector<Word> &output() const { return Output; }

private:
  std::vector<Word> Input;
  size_t Next = 0;
  std::vector<Word> Output;
};

//===----------------------------------------------------------------------===//
// Execution.
//===----------------------------------------------------------------------===//

using Locals = std::unordered_map<std::string, Word>;

/// Mutable machine state threaded through execution.
struct State {
  Memory Mem;
  Locals Vars; ///< Seeds the locals of Interp::evalExpr; calls ignore it.
  Trace Tr;
};

/// Interpreter options.
struct ExecOptions {
  uint64_t Fuel = 50'000'000; ///< Max statement steps before giving up.
  uint64_t NondetSeed = 1;    ///< Oracle seed for uninitialized stack bytes.
};

/// A call's locals live in a dense frame of slots. Each name resolves to
/// its slot the first time a run meets it, keyed by the address of the
/// name string in the module's AST (one pointer hash, no string hash), and
/// names with the same text share a slot. The layout is reset at every
/// top-level entry, so no address outlives the run that resolved it.
class Interp {
public:
  Interp(const Module &Mod, ExtHandler &Env, ExecOptions Opts = {})
      : Mod(Mod), Env(Env), Opts(Opts), Nondet(Opts.NondetSeed) {}

  /// Evaluates expression \p E with the locals of \p S.Vars and the memory
  /// of \p S (expressions are pure reads).
  Result<Word> evalExpr(const State &S, const Function &Fn, const Expr &E);

  /// Calls function \p Name with argument words \p Args against memory and
  /// trace in \p S; returns the result words. Locals are function-scoped.
  /// Refills the fuel budget before starting.
  Result<std::vector<Word>> callFunction(State &S, const std::string &Name,
                                         const std::vector<Word> &Args);

  /// Refills the fuel budget (done automatically by top-level entry points).
  void resetFuel() {
    FuelLeft = Opts.Fuel;
    FuelExhausted = false;
  }

  /// True iff the most recent run failed by running out of fuel (cleared by
  /// the next top-level entry). Lets the differential layer distinguish
  /// "target diverged" from "target was starved of fuel" and surface the
  /// named diagnostic required for graceful degradation.
  bool hitFuelLimit() const { return FuelExhausted; }

  /// Statement steps consumed by the most recent top-level run. Tests use
  /// this to cross-check codelint's static step envelope: a Safe verdict's
  /// StepBound must dominate the fuel any concrete run actually burns.
  uint64_t fuelUsed() const { return Opts.Fuel - FuelLeft; }

private:
  const Module &Mod;
  ExtHandler &Env;
  ExecOptions Opts;
  Rng Nondet;
  uint64_t FuelLeft = 0;
  bool FuelExhausted = false;
  unsigned CallDepth = 0;

  /// One local of the running call.
  struct Slot {
    Word V = 0;
    bool Defined = false;
  };
  std::unordered_map<const std::string *, unsigned> SlotOfName;
  std::unordered_map<std::string, unsigned> SlotOfText;
  std::vector<Slot> Frame; ///< The running call's locals.

  void resetFrame();
  unsigned slot(const std::string &Name);
  /// Null when \p Name is undefined in the running call.
  const Word *lookup(const std::string &Name);
  void define(const std::string &Name, Word V);
  void undefine(const std::string &Name);

  Result<Word> eval(const Memory &Mem, const Function &Fn, const Expr &E);
  Status exec(State &S, const Function &Fn, const Cmd &C);
};

/// One-shot convenience: run \p Name from \p Mod on a fresh state whose
/// memory was prepared by \p Setup; returns (rets, final state).
struct RunResult {
  std::vector<Word> Rets;
  State Final;
  uint64_t FuelUsed = 0; ///< Interp::fuelUsed() after the run.
};
Result<RunResult>
runFunction(const Module &Mod, const std::string &Name,
            const std::vector<Word> &Args, ExtHandler &Env,
            const std::function<Status(State &, std::vector<Word> &)> &Setup,
            ExecOptions Opts = {});

//===----------------------------------------------------------------------===//
// Static well-formedness.
//===----------------------------------------------------------------------===//

/// Structural checks run before execution or code emission: referenced
/// inline tables exist with in-range elements, called functions exist with
/// matching arity, stackalloc sizes are nonzero multiples of 1, and local
/// names are nonempty.
Status verifyModule(const Module &Mod);

} // namespace bedrock
} // namespace relc

#endif // RELC_BEDROCK_INTERP_H
