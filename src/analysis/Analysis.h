//===- analysis/Analysis.h - Static verifier for generated code -*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The analyzer entry points: run the definedness fixpoint over a compiled
// Bedrock2 function, read the symbolic fixpoint it shares with codelint,
// and report defects. Four checkers:
//
//   - Uninit: a local may be read before every path to the read defines it.
//   - Bounds: a load/store/table access whose offset is not *provably*
//     within the separation-logic clause (region) it addresses, judged by
//     the same linear solver the compiler uses for side conditions. This
//     is the static analogue of the requires clause: any access the
//     analyzer cannot justify against the ABI frame is an error even if
//     every sampled differential-test vector happens to stay in bounds.
//   - DeadStore: a Set whose value can never be observed (warning).
//   - Unreachable: statements no feasible path reaches (warning). The
//     symbolic fixpoint is the one reachability decision: a block is
//     reachable iff some edge the solver could not refute brought it a
//     state. DeadStore skips the blocks it finds unreachable.
//
// Uninit and Bounds findings (and analysis non-convergence) are errors —
// the certification pipeline fails on them; DeadStore and Unreachable are
// warnings surfaced in reports and by relc-lint.
//
// Definedness is the analyzer's own fixpoint. The CFG, the symbolic
// fixpoint and the bounds decisions come from the TargetFacts codelint
// shares (TargetFacts.h); Bounds renders its findings.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_ANALYSIS_ANALYSIS_H
#define RELC_ANALYSIS_ANALYSIS_H

#include "analysis/TargetFacts.h"

#include <string>
#include <vector>

namespace relc {
namespace analysis {

struct Diagnostic {
  enum class Checker { Uninit, Bounds, DeadStore, Unreachable, Convergence };

  Checker C = Checker::Uninit;
  std::string Fn;      ///< Function name.
  std::string Path;    ///< Statement path ("body.1.then.0").
  std::string Stmt;    ///< Offending statement / expression, printed.
  std::string Message; ///< What is wrong and why.
  bool IsError = true; ///< Errors fail certification; warnings do not.

  std::string str() const;
};

const char *checkerName(Diagnostic::Checker C);

struct AnalysisReport {
  std::string Fn;
  std::vector<Diagnostic> Diags;

  unsigned NumBlocks = 0;
  unsigned NumStmts = 0;
  unsigned SymIterations = 0; ///< Symbolic-domain fixpoint iterations.

  /// A guard::Budget ran out during the analysis. A fixpoint it stopped, or
  /// an access check that failed after it, is an error naming the budget —
  /// a refusal to certify. The pipeline surfaces the report as a Degraded
  /// (never cached) layer outcome, errors or not.
  bool BudgetExhausted = false;

  bool hasErrors() const;
  unsigned numErrors() const;
  unsigned numWarnings() const;

  /// Full human-readable report (one line per diagnostic plus a summary).
  std::string str() const;
};

/// Runs the definedness fixpoint and all checkers over \p T's function
/// under \p T's budget (see AnalysisReport::BudgetExhausted).
AnalysisReport analyzeFunction(const TargetFacts &T);

/// Derives the TargetFacts of \p Fn against its ABI digest, then analyzes.
/// \p Budget, when non-null, bounds the dataflow fixpoints and the solver
/// queries cooperatively.
AnalysisReport analyzeFunction(const bedrock::Function &Fn,
                               const AbiInfo &Abi,
                               const guard::Budget *Budget = nullptr);

/// Convenience wrapper: digest the ABI from the program's spec/model/hints
/// (mirroring what the compiler assumed), then analyze.
AnalysisReport analyzeProgram(const bedrock::Function &Fn,
                              const sep::FnSpec &Spec,
                              const ir::SourceFn &Src,
                              const EntryFactList &Hints = {},
                              const guard::Budget *Budget = nullptr);

} // namespace analysis
} // namespace relc

#endif // RELC_ANALYSIS_ANALYSIS_H
