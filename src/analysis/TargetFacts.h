//===- analysis/TargetFacts.h - Shared target-side facts --------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// What both target-side layers, the static analyzer (Analysis.h) and
// codelint (codelint/Codelint.h), know about one emitted function, derived
// once (DESIGN.md §4.9): the CFG, the ABI digest carrying the layer budget,
// the symbolic fixpoint, and one replay of its converged states that asks
// each access's solver query once. The replay records, in statement order,
// the first of these checks each access fails:
//
//   1. a table access names a known inline table;
//   2. the table index is a scalar, not a pointer;
//   3. the table index is provably below the table size;
//   4. a load/store address provably points into a frame clause;
//   5. that clause is not an expired stackalloc region;
//   6. the offset is provably nonnegative;
//   7. offset + width provably stays within the clause's extent;
//
// and codelint's frame escapes. Each layer renders the findings in its own
// words; a check that failed after the budget ran out renders as a
// budget-naming refusal in both (DESIGN.md §4.7).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_ANALYSIS_TARGETFACTS_H
#define RELC_ANALYSIS_TARGETFACTS_H

#include "analysis/Dataflow.h"
#include "analysis/Domains.h"
#include "support/Budget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace relc {
namespace analysis {

struct ReplayFinding {
  /// The failed check (1-7 above), or a stackalloc pointer stored or
  /// returned.
  enum class Kind {
    UnknownTable, TableIndexIsPointer, TableIndexOutOfRange, NotFramePointer,
    ExpiredRegion, NegativeOffset, PastExtent, StoresScopedPtr,
    ReturnsScopedPtr
  };

  Kind K = Kind::UnknownTable;
  /// The access. A frame escape sets only Site ("" for a return).
  SymbolicDomain::Access Acc;
  std::string Where;       ///< The statement or branch condition, printed.
  std::string Var;         ///< Frame escapes: the stackalloc pointer.
  std::string SolverError; ///< Checks 3, 6, 7: the failed query's error.
  bool Exhausted = false;  ///< The budget had run out when the check failed.

  /// Fills \p Template's placeholders from the access: $what (load or
  /// store), $off (offset or index term), $bytes, $size and $table (the
  /// inline table), $region and $clause (the addressed region).
  std::string text(const char *Template, const AbiInfo &Abi) const;
};

/// Built in place, never copied: the domain refers to the CFG and the ABI.
struct TargetFacts {
  /// Builds the CFG, arms \p Abi's entry facts with \p Budget, runs the
  /// symbolic fixpoint and, when it converged, the replay.
  TargetFacts(const bedrock::Function &Fn, AbiInfo Abi,
              const guard::Budget *Budget);
  TargetFacts(const TargetFacts &) = delete;
  TargetFacts &operator=(const TargetFacts &) = delete;

  const bedrock::Function &Fn;
  const guard::Budget *const Budget;
  AbiInfo Abi;
  Cfg G;
  SymbolicDomain Sym;
  DataflowResult<SymbolicDomain> SymR;
  uint64_t Accesses = 0; ///< Memory and table accesses replayed.
  std::vector<ReplayFinding> Findings;

  /// The budget has run out (exhaustion latches).
  bool exhausted() const { return Budget && Budget->exhausted(); }
};

} // namespace analysis
} // namespace relc

#endif // RELC_ANALYSIS_TARGETFACTS_H
