//===- tv/Tv.h - Symbolic translation validation ----------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Per-program translation validation in the style of CompCert's verified
// back-end checks (Leroy): after every compilation, prove — statically,
// for all inputs — that the generated Bedrock2 code computes the same
// function as the FunLang model. This is certification layer 3 of
// relc::validate (after derivation replay and the dataflow analyzer,
// before differential testing), and the only layer that establishes
// *functional correctness* for all inputs rather than safety or sampled
// agreement.
//
// Method: both sides are evaluated into one hash-consed, normalizing term
// graph (tv/Term.h), by the evaluator relc-check shares (tv/SymEval.h).
//
//   - The model is symbolically evaluated binding by binding. Loop
//     combinators (ListArray.map, fold, fold_break, ranged_for, while)
//     become summarized Fold terms: a guard, and per carried value an
//     initial term (over the entry symbols) and a one-iteration step term
//     (over canonical bound symbols), plus the written regions' entry and
//     step contents.
//
//   - The generated command tree is symbolically executed over a store
//     (local -> term) and a region-indexed memory reusing the
//     relc::analysis ABI digest (regions, argument terms, entry facts).
//     Conditionals fork and join into Select terms; each While is
//     summarized by havocking its assigned locals and written regions,
//     executing the body once, and *matching* the result against the
//     model's loop summary of the same ordinal — equal initial states
//     under equal guarded transitions are equal at every trip count, so
//     the loops agree without unrolling.
//
//   - The outputs named by the fnspec (scalar returns, in-place arrays
//     and cells, plus the frame of every other region) must intern to
//     identical term ids.
//
// Verdicts are three-valued, as usual for translation validation:
// Proved (equivalence holds for all inputs, modulo the trusted
// normalizer), Refuted (a concrete output or loop summary differs — a
// miscompilation, reported with the offending source binding and target
// statement path), and Inconclusive (the program uses a fragment the
// validator does not model — nondeterminism, I/O, external calls — and
// certification falls back to the other layers). The result carries a
// machine-readable certificate (term hashes + per-binding trace) so an
// independent checker can audit the match.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_TV_TV_H
#define RELC_TV_TV_H

#include "tv/SymEval.h"

#include <string>
#include <vector>

namespace relc {
namespace tv {

enum class Verdict : uint8_t {
  Proved,       ///< Source and target terms identical for every output.
  Refuted,      ///< Some output or loop summary provably differs.
  Inconclusive, ///< Outside the validated fragment; no claim either way.
};

const char *verdictName(Verdict V);

/// One fnspec output channel's comparison.
struct OutputRecord {
  std::string Name;          ///< Source name (return, array, or cell).
  std::string Kind;          ///< "scalar", "array", "cell", or "frame".
  uint64_t SrcHash = 0, TgtHash = 0;
  bool Matched = false;
  std::string SrcTerm, TgtTerm;   ///< Rendered terms (diagnostics).
  std::string SourceBinding;      ///< Last model binding of Name.
  std::string TargetPath;         ///< Last target statement defining it.
};

struct TvReport {
  Verdict TheVerdict = Verdict::Inconclusive;
  std::string Fn;      ///< Target function name.
  std::string Reason;  ///< Refutation / inconclusiveness explanation.
  std::vector<OutputRecord> Outputs;
  std::vector<BindingRecord> Bindings;
  std::vector<LoopRecord> Loops;
  unsigned NumTerms = 0; ///< Size of the shared term graph.
  /// True when the verdict is Inconclusive *because* a guard::Budget ran
  /// out (deadline or step limit), not because the program is outside the
  /// validated fragment. The pipeline reports this as a Degraded layer
  /// (DESIGN.md §4.7): certification falls through to the differential
  /// layer, and the outcome is never cached.
  bool BudgetExhausted = false;

  bool proved() const { return TheVerdict == Verdict::Proved; }
  bool refuted() const { return TheVerdict == Verdict::Refuted; }

  /// Human-readable report (relc-lint).
  /// (The machine-readable certificate is no longer assembled here: build
  /// it with cert::fromTvReport and serialize with cert::Writer.)
  std::string str() const;
};

/// Validates that \p Fn (the generated code) implements \p Src under ABI
/// \p Spec. \p Hints are the compile-time entry facts (the same list the
/// compiler and analyzer assumed). Never fails hard: unsupported
/// constructs yield Verdict::Inconclusive with a reason.
///
/// \p Budget, when non-null, bounds the run cooperatively: term-graph
/// interning and the loop-match bijection search charge steps against it,
/// and exhaustion yields Verdict::Inconclusive with
/// TvReport::BudgetExhausted set — a refusal, never a wrong accept.
TvReport validateTranslation(const ir::SourceFn &Src, const sep::FnSpec &Spec,
                             const bedrock::Function &Fn,
                             const analysis::EntryFactList &Hints = {},
                             const guard::Budget *Budget = nullptr);

} // namespace tv
} // namespace relc

#endif // RELC_TV_TV_H
