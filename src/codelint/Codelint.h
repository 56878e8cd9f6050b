//===- codelint/Codelint.h - Target-side safety & resource lints -*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Abstract interpretation over *emitted* target code (Bedrock2 IR and stackm
// programs), closing the gap left by the model-side layers: relc::analysis
// certifies the compiler's own output against the ABI frame, relc::tv proves
// the equivalence, but nothing until now gave the generated artifact its own
// machine-checked safety and resource envelope (the CompCert/COGENT story:
// semantic preservation plus target-level obligations).
//
// Three analyses, each with a three-valued verdict:
//
//   - Memory safety: the replay shared with the static analyzer
//     (analysis/TargetFacts.h) judges every load/store/table access of the
//     symbolic fixpoint with the linear solver, proving each one lands
//     inside a region the fnspec frame owns. Scoped (stackalloc) pointers
//     must not escape their frame — neither stored to memory nor returned.
//
//   - Stack/locals bound: a static worst-case footprint — 8 bytes per
//     distinct local plus the worst lexical nesting of stackalloc scratch.
//     Self-recursion is rejected as unbounded; for stackm programs the
//     driver's analyzeStackProgram (Driver.h) instead bounds the maximum
//     operand-stack depth.
//
//   - Step bound: symbolic per-iteration cost times loop trip-count
//     intervals, against a small termination-pattern library (counting-up
//     loops with provably bounded limits; the shift-fold accumulator loop).
//     The resulting envelope dominates the Bedrock2 interpreter's fuel
//     accounting, so `relc::guard` budgets and the differential layer can
//     cross-check it dynamically.
//
// Trust story (DESIGN.md §4.9): verdicts are *refusals by default* — every
// failed proof, unmatched pattern, or exhausted budget degrades to Unknown
// or Unsafe, never to a wrong Safe. Results are embedded in the equivalence
// certificate as a versioned `codelint` section and independently recomputed
// by relc-check from this library alone (the driver never gets linked).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CODELINT_CODELINT_H
#define RELC_CODELINT_CODELINT_H

#include "analysis/TargetFacts.h"
#include "bedrock/Ast.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace relc {
namespace codelint {

/// Version of the certificate `codelint` section this analyzer produces.
/// Bump on any change to the analyses or the section's meaning; the value
/// is also salted into the pipeline's certificate-cache options hash so an
/// analyzer change provably misses the cache.
constexpr unsigned kCodelintVersion = 1;

/// Three-valued analysis verdict. Only Safe is ever trusted; Unknown means
/// the analyzer refused (budget, unmatched pattern, failed proof attempt
/// that could not be classified), Unsafe means a concrete defect witness.
enum class Verdict { Safe, Unknown, Unsafe };

/// Stable kebab-case verdict name ("safe" / "unknown" / "unsafe").
const char *verdictName(Verdict V);

/// Parses a verdict name back (certificate reader); nullopt on junk.
std::optional<Verdict> verdictFromName(const std::string &Name);

/// One analyzer finding, with a stable kebab-case reason. Reasons:
///   oob-load, oob-store, oob-table  unprovable / failed access bounds
///   unknown-address                 access through a non-frame pointer
///   expired-region                  access into a dead stackalloc scope
///   frame-escape                    scoped pointer stored or returned
///   unbounded-stack                 (self-)recursive call
///   unknown-callee                  call whose frame cannot be bounded
///   stack-underflow                 stackm pop on a short operand stack
///   unknown-step-bound              loop outside the termination library
///   analysis-incomplete             budget exhausted / fixpoint diverged
struct Finding {
  std::string Reason;
  std::string Path;   ///< Statement path ("body.1.2") or op index.
  std::string Detail;

  std::string str() const;
};

/// The full analysis result for one function (or stackm program).
struct Report {
  std::string Fn;

  Verdict Mem = Verdict::Unknown;
  Verdict Stack = Verdict::Unknown;
  Verdict Steps = Verdict::Unknown;

  uint64_t Accesses = 0;     ///< Memory/table accesses checked.
  uint64_t LocalsBytes = 0;  ///< 8 bytes per distinct local (args included).
  uint64_t ScratchBytes = 0; ///< Worst-case live stackalloc bytes.
  uint64_t OperandDepth = 0; ///< stackm only: max operand-stack depth.
  uint64_t StepBound = 0;    ///< Step envelope (valid when Steps == Safe);
                             ///< saturating, dominates interpreter fuel.

  std::vector<Finding> Findings;
  bool BudgetExhausted = false;

  /// Unsafe if any analysis is Unsafe, else Unknown if any is Unknown,
  /// else Safe.
  Verdict overall() const;

  std::string str() const;
};

/// Runs all three analyses over \p T's function. \p T's budget bounds the
/// fixpoint and every solver query; exhaustion latches BudgetExhausted and
/// degrades verdicts to Unknown.
Report analyzeFunction(const analysis::TargetFacts &T);

/// Derives the TargetFacts of \p Fn against the same ABI digest the static
/// verifier uses (spec + model + compile hints), then analyzes.
Report analyzeFunction(const bedrock::Function &Fn, const sep::FnSpec &Spec,
                       const ir::SourceFn &Src,
                       const analysis::EntryFactList &Hints = {},
                       const guard::Budget *Budget = nullptr);

} // namespace codelint
} // namespace relc

#endif // RELC_CODELINT_CODELINT_H
