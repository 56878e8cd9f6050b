//===- validate/Validate.h - Derivation replay + certification --*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The layer primitives of the trusted checker — the stand-in for Coq's
// kernel accepting the generated proof term. The paper itself notes that
// Rupicola can be classified as a translation-validation system (§5).
// Five layers certify a program; pipeline::certifyPrograms
// (pipeline/Pipeline.h) is the one sequencer that puts them in order and
// renders their failures. Three are static and live in their own
// libraries: static analysis (relc::analysis), translation validation
// (relc::tv) and codelint (relc::codelint). This module holds the other
// two:
//
//  1. Derivation replay: structural checks over the witness — every rule
//     name must be in the trusted schema set, the emitted target function
//     must be statically well formed, and every array / inline-table
//     access in the source must have a recorded, solver-checked bounds
//     side condition in the derivation (tampered witnesses are rejected;
//     the failure-injection tests exercise this).
//
//  4. Differential certification against the ABI: for a battery of
//     structured and random input vectors, run the model under the
//     FunLang reference semantics and the compiled function under the
//     Bedrock2 semantics, and check the fnspec's ensures clause — scalar
//     returns, in-place array/cell results, frame preservation of
//     read-only arguments *and* of unrelated memory (a canary region),
//     trace correspondence per the model's monad, and absence of leaked
//     allocations. Nondet models check a caller-supplied ensures
//     predicate instead of value equality (the paper's λ l ⇒ length l = n
//     style of spec).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_VALIDATE_VALIDATE_H
#define RELC_VALIDATE_VALIDATE_H

#include "bedrock/Interp.h"
#include "core/Compiler.h"
#include "ir/Interp.h"
#include "sep/Spec.h"
#include "support/Result.h"

#include <functional>
#include <map>

namespace relc {
namespace validate {

/// Target-side observations handed to ensures predicates.
struct TargetOutputs {
  std::vector<uint64_t> Rets;
  std::map<std::string, std::vector<uint8_t>> FinalArrays; ///< Raw bytes per
                                                           ///< list param.
  std::map<std::string, uint64_t> FinalCells;
  bedrock::Trace Tr;
};

/// For nondeterministic models: the ensures clause as a predicate over the
/// inputs and whatever the target produced.
using EnsuresCheck =
    std::function<Status(const std::vector<ir::Value> &Inputs,
                         const TargetOutputs &Out)>;

/// Generates the input values for one vector; overridable per program for
/// workload-shaped inputs. \p SizeHint suggests list lengths.
using InputGen =
    std::function<std::vector<ir::Value>(const ir::SourceFn &, Rng &,
                                         size_t SizeHint)>;

struct ValidationOptions {
  unsigned VectorsPerSize = 3;
  std::vector<size_t> Sizes = {0, 1, 2, 3, 5, 8, 16, 31, 64, 255, 999};
  uint64_t Seed = 0xc0ffee;
  InputGen MakeInputs;          ///< Defaults to uniform random inputs.
  EnsuresCheck NondetEnsures;   ///< Required for nondet models.
  /// Word models of external callees, used to give the source semantics of
  /// ExternCall bindings: callee name -> its SourceFn.
  std::map<std::string, const ir::SourceFn *> CalleeModels;
  /// The hints the program was compiled with. No layer reads it (the
  /// pipeline takes hints from programs::ProgramDef); kept because
  /// perfbench assigns it.
  core::CompileHints Hints;

  //===------------------------------------------------------------------===//
  // Robustness guards (DESIGN.md §4.7). Exhaustion of any of these maps
  // only to a *refusal* — an Inconclusive verdict, an analysis error, or a
  // differential failure naming the budget — never to a wrong accept.
  //===------------------------------------------------------------------===//

  /// Wall-clock deadline, in milliseconds, for each certification layer
  /// (analysis, tv, and the differential vector loop each get their own
  /// fresh deadline). 0 = unlimited.
  unsigned LayerTimeoutMs = 0;
  /// Step budget for the symbolic validator: caps term-graph interning plus
  /// bijection-search nodes. 0 = unlimited.
  uint64_t TvStepBudget = 0;
  /// Override for the Bedrock2 interpreter's fuel during differential
  /// certification. 0 = the interpreter default.
  uint64_t InterpFuel = 0;
};

/// Layer 1: replays the derivation witness. Independent of the search
/// driver; rejects unknown rules and missing side conditions.
Status replayDerivation(const ir::SourceFn &Fn,
                        const core::CompileResult &Compiled);

/// Layer 4: differential certification of \p Compiled (linked against
/// \p Linked, which must contain every external callee) against \p Fn's
/// reference semantics under ABI \p Spec.
///
/// With Opts.LayerTimeoutMs set, the vector loop checks a deadline between
/// vectors; exceeding it fails with a diagnostic naming the budget and how
/// many vectors completed, and sets *\p BudgetExhausted (when non-null) so
/// the pipeline can classify the failure as Degraded rather than genuine.
/// The same flag is set when a vector fails because an injected fault
/// (relc::fault interp-fuel) starved the interpreter: the diagnostic names
/// the injection and the outcome is degraded, not a genuine divergence.
Status differentialCertify(const ir::SourceFn &Fn, const sep::FnSpec &Spec,
                           const core::CompileResult &Compiled,
                           const bedrock::Module &Linked,
                           const ValidationOptions &Opts = {},
                           bool *BudgetExhausted = nullptr);

/// Default input generator: random bytes/words sized by the hint.
std::vector<ir::Value> defaultInputs(const ir::SourceFn &Fn, Rng &R,
                                     size_t SizeHint);

} // namespace validate
} // namespace relc

#endif // RELC_VALIDATE_VALIDATE_H
