//===- solver/Linear.h - Linear-arithmetic entailment -----------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The side-condition solver (§3.4.2): a small linear-arithmetic entailment
// engine playing the role the paper assigns to Coq's linear solver ("we
// just need to ... plug in Coq's linear-arithmetic solver to handle
// index-bounds side conditions").
//
// Facts and goals are affine constraints over named symbols, interpreted in
// the integers. Entailment is by refutation: to prove "facts ⊢ a < b", show
// that facts ∧ a ≥ b is infeasible, using Fourier–Motzkin elimination with
// integer tightening of strict inequalities. The solver is sound and
// conservative: arithmetic overflow during elimination or exceeding size
// caps yields "not proved", never a wrong "proved".
//
// Soundness with machine words: symbols denote word values interpreted as
// unsigned integers. Compilation rules only submit facts and goals from the
// no-wraparound fragment (index and length arithmetic bounded well below
// 2^64 — the ABI bounds every array length by 2^32, and rules introduce
// structural facts like "x & c ≤ min(x, c)" and "2^k · (x >> k) ≤ x" that
// hold without wrapping). See SymbolFacts helpers below.
//
// Representation (DESIGN.md §4.35): a term keeps its nonzero coefficients
// in a name-sorted flat vector; each stored fact carries a 64-bit mask of
// its symbols' hashes, so a query skips unrelated rows with one AND; and
// a query numbers its cone's symbols once and eliminates over dense
// coefficient rows, so no symbol name is compared or hashed after that.
//
// Concurrency contract (audited for the parallel certification pipeline,
// pipeline/Scheduler.h): all solver state lives inside the FactDb
// instance (the fact rows, their masks, the interval cache) or inside the
// one query that uses it (the cone, the elimination workspace); there are
// no globals and no caches shared across instances. Each compile /
// analysis / TV job builds its own FactDb, so concurrent certification
// jobs never contend (per-job arenas, not locks; DESIGN.md §4.5). Any
// future memoization across queries must stay per-instance or be
// re-audited.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SOLVER_LINEAR_H
#define RELC_SOLVER_LINEAR_H

#include "support/Budget.h"
#include "support/Result.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace relc {
namespace solver {

/// An affine term: Σ Coeff·Sym + Const over integer coefficients, the
/// nonzero coefficients held as (symbol, coefficient) pairs sorted by
/// symbol name.
///
/// Arithmetic is overflow-checked: a result that leaves int64 is *unknown*
/// and stays unknown through further arithmetic. An unknown term carries
/// no information — it is not constant, has no coefficients, and FactDb
/// neither records it as a fact nor proves it as a goal — so an overflow
/// can only lose a proof, never make a wrapped one.
class LinTerm {
public:
  LinTerm() = default;

  static LinTerm constant(int64_t K);
  static LinTerm sym(const std::string &Name);

  LinTerm operator+(const LinTerm &O) const;
  LinTerm operator-(const LinTerm &O) const;
  LinTerm scaled(int64_t Factor) const;

  const std::vector<std::pair<std::string, int64_t>> &coeffs() const {
    return Coeffs;
  }
  /// The coefficient of \p Name; 0 when the term does not mention it.
  int64_t coeff(std::string_view Name) const;
  int64_t constPart() const { return Const; }

  bool isConstant() const { return Known && Coeffs.empty(); }
  bool known() const { return Known; }

  std::string str() const;

private:
  /// Sorted by name; zero coefficients are never stored.
  std::vector<std::pair<std::string, int64_t>> Coeffs;
  int64_t Const = 0;
  bool Known = true;

  static LinTerm unknown();
};

/// Convenience term constructors.
LinTerm lc(int64_t K);
LinTerm ls(const std::string &Name);

/// A database of affine facts (each stored as Term ≥ 0) supporting
/// entailment queries. Copyable: branches and loop bodies extend a copy.
class FactDb {
public:
  /// Adds the fact T ≥ 0; an unknown T is dropped.
  void addGe0(LinTerm T, std::string Reason = "");

  /// Adds A ≤ B.
  void addLe(const LinTerm &A, const LinTerm &B, std::string Reason = "");

  /// Adds A < B (integer-tightened to A + 1 ≤ B).
  void addLt(const LinTerm &A, const LinTerm &B, std::string Reason = "");

  /// Adds A = B (as two inequalities).
  void addEq(const LinTerm &A, const LinTerm &B, std::string Reason = "");

  /// Entailment queries; on failure the error prints the goal and the
  /// facts in scope — the "unsolved side condition" shown to users.
  Status proveLe(const LinTerm &A, const LinTerm &B) const;
  Status proveLt(const LinTerm &A, const LinTerm &B) const;
  Status proveEq(const LinTerm &A, const LinTerm &B) const;

  /// Diagnostic-free probes for rules that merely *test* whether a fact is
  /// derivable (definitional-fact generation, bound propagation); same
  /// verdicts as the prove* forms, without building error strings.
  bool entailsLe(const LinTerm &A, const LinTerm &B) const;
  bool entailsLt(const LinTerm &A, const LinTerm &B) const;

  /// Budgeted probe: like entailsLe but elimination is capped at a small
  /// cone (8 variables). Used for *optional* fact generation (definitional
  /// no-wraparound checks), where a miss only loses precision — never for
  /// required side conditions, which get the full effort.
  bool probeLe(const LinTerm &A, const LinTerm &B) const;

  /// A constant upper bound on \p T derivable from the interval cache
  /// alone (max over the cached per-symbol ranges), when every symbol of
  /// \p T is bounded on the needed side.
  std::optional<int64_t> intervalUpperBound(const LinTerm &T) const;

  /// True iff the current facts are contradictory (e.g. inside dead code).
  bool inconsistent() const;

  /// Enumerates the stored facts (each meaning T ≥ 0) with their reasons.
  /// Consumers that seed *other* fact databases — the static analyzer's
  /// per-program-point states — replay these rows through addGe0.
  void forEachFact(
      const std::function<void(const LinTerm &, const std::string &)> &Fn)
      const;

  size_t size() const { return Rows.size(); }
  std::string str() const;

  /// Arms a cooperative budget for elimination. Exhaustion makes refutes()
  /// answer false — "cannot refute", the conservative verdict every caller
  /// already handles — so a budgeted solver is slower to say yes but never
  /// wrong. Copies of the database share the pointer (the Budget outlives
  /// the layer run that owns both). Null disarms.
  void setBudget(const guard::Budget *B) { Budget = B; }
  const guard::Budget *budget() const { return Budget; }

private:
  struct Row {
    LinTerm T; ///< Meaning: T ≥ 0.
    std::string Reason;
    /// One bit per symbol of T, picked by the name's hash: a row whose
    /// mask misses a query's cone mask shares no symbol with the cone.
    uint64_t Mask = 0;
  };
  std::vector<Row> Rows;

  /// Fast-path interval cache: per-symbol constant bounds harvested from
  /// single-symbol facts. Most side-condition probes (byte ≤ 255, masked
  /// index < table size, no-wraparound checks before definitional facts)
  /// resolve here without running elimination.
  std::map<std::string, int64_t> Upper; ///< sym ≤ K.
  std::map<std::string, int64_t> Lower; ///< K ≤ sym.

  /// Interval fast path: true if A ≤ B already follows from the cached
  /// per-symbol bounds alone.
  bool intervalImpliesLe(const LinTerm &A, const LinTerm &B) const;

  /// True iff Rows ∧ (Extra ≥ 0 for each extra) is infeasible. MaxVars
  /// caps the elimination effort (a relevance cone of more symbols means
  /// "cannot refute"); it stays below 64, the width of a row's support
  /// mask in the elimination workspace.
  bool refutes(const std::vector<LinTerm> &Extra, size_t MaxVars = 48) const;

  const guard::Budget *Budget = nullptr;
};

} // namespace solver
} // namespace relc

#endif // RELC_SOLVER_LINEAR_H
