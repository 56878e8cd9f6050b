//===- solver/Linear.cpp - Linear-arithmetic entailment --------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "solver/Linear.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace relc {
namespace solver {

//===----------------------------------------------------------------------===//
// Terms.
//===----------------------------------------------------------------------===//

LinTerm LinTerm::constant(int64_t K) {
  LinTerm T;
  T.Const = K;
  return T;
}

LinTerm LinTerm::sym(const std::string &Name) {
  LinTerm T;
  T.Coeffs[Name] = 1;
  return T;
}

LinTerm LinTerm::unknown() {
  LinTerm T;
  T.Known = false;
  return T;
}

void LinTerm::normalize() {
  for (auto It = Coeffs.begin(); It != Coeffs.end();) {
    if (It->second == 0)
      It = Coeffs.erase(It);
    else
      ++It;
  }
}

LinTerm LinTerm::operator+(const LinTerm &O) const {
  if (!Known || !O.Known)
    return unknown();
  LinTerm T = *this;
  if (__builtin_add_overflow(T.Const, O.Const, &T.Const))
    return unknown();
  for (const auto &[S, C] : O.Coeffs) {
    int64_t &Sum = T.Coeffs[S];
    if (__builtin_add_overflow(Sum, C, &Sum))
      return unknown();
  }
  T.normalize();
  return T;
}

LinTerm LinTerm::operator-(const LinTerm &O) const {
  return *this + O.scaled(-1);
}

LinTerm LinTerm::scaled(int64_t Factor) const {
  if (!Known)
    return unknown();
  LinTerm T;
  if (__builtin_mul_overflow(Const, Factor, &T.Const))
    return unknown();
  for (const auto &[S, C] : Coeffs)
    if (__builtin_mul_overflow(C, Factor, &T.Coeffs[S]))
      return unknown();
  T.normalize();
  return T;
}

/// |V| without negating INT64_MIN.
static uint64_t magnitude(int64_t V) {
  return V < 0 ? uint64_t(0) - uint64_t(V) : uint64_t(V);
}

std::string LinTerm::str() const {
  if (!Known)
    return "<overflow>";
  std::string Out;
  for (const auto &[S, C] : Coeffs) {
    if (!Out.empty())
      Out += C >= 0 ? " + " : " - ";
    else if (C < 0)
      Out += "-";
    uint64_t A = magnitude(C);
    if (A != 1)
      Out += std::to_string(A) + "*";
    Out += S;
  }
  if (Const != 0 || Out.empty()) {
    if (!Out.empty())
      Out += Const >= 0 ? " + " : " - ";
    else if (Const < 0)
      Out += "-";
    Out += std::to_string(magnitude(Const));
  }
  return Out;
}

LinTerm lc(int64_t K) { return LinTerm::constant(K); }
LinTerm ls(const std::string &Name) { return LinTerm::sym(Name); }

//===----------------------------------------------------------------------===//
// Fact database.
//===----------------------------------------------------------------------===//

static bool fitsInt64(__int128 V) {
  return V >= INT64_MIN && V <= INT64_MAX;
}

void FactDb::addGe0(LinTerm T, std::string Reason) {
  if (!T.known())
    return; // No information; dropping a fact can only lose proofs.
  // Harvest per-symbol interval bounds from single-symbol facts:
  //   c·x + k ≥ 0  with  c > 0  gives  x ≥ ⌈−k/c⌉,
  //                with  c < 0  gives  x ≤ ⌊k/(−c)⌋.
  // Computed in 128 bits; a bound outside int64 is not cached.
  if (T.coeffs().size() == 1) {
    const auto &[Sym, C] = *T.coeffs().begin();
    __int128 K = T.constPart();
    if (C > 0) {
      // x ≥ ceil(-K / C).
      __int128 Bound = -K >= 0 ? (-K + C - 1) / C : -(K / C);
      auto It = Lower.find(Sym);
      if (fitsInt64(Bound) && (It == Lower.end() || Bound > It->second))
        Lower[Sym] = int64_t(Bound);
    } else {
      __int128 D = -__int128(C);
      // x ≤ floor(K / D).
      __int128 Bound = K >= 0 ? K / D : -((-K + D - 1) / D);
      auto It = Upper.find(Sym);
      if (fitsInt64(Bound) && (It == Upper.end() || Bound < It->second))
        Upper[Sym] = int64_t(Bound);
    }
  }
  Rows.push_back(Row{std::move(T), std::move(Reason)});
}

bool FactDb::intervalImpliesLe(const LinTerm &A, const LinTerm &B) const {
  // A ≤ B iff min(B − A) ≥ 0; lower-bound B − A termwise from the cache.
  LinTerm D = B - A;
  if (!D.known())
    return false;
  __int128 Min = D.constPart();
  for (const auto &[Sym, C] : D.coeffs()) {
    const std::map<std::string, int64_t> &Side = C > 0 ? Lower : Upper;
    auto It = Side.find(Sym);
    if (It == Side.end() ||
        __builtin_add_overflow(Min, __int128(C) * It->second, &Min))
      return false;
  }
  return Min >= 0;
}

void FactDb::addLe(const LinTerm &A, const LinTerm &B, std::string Reason) {
  addGe0(B - A, std::move(Reason));
}

void FactDb::addLt(const LinTerm &A, const LinTerm &B, std::string Reason) {
  addGe0(B - A - lc(1), std::move(Reason)); // Integer tightening.
}

void FactDb::addEq(const LinTerm &A, const LinTerm &B, std::string Reason) {
  addGe0(B - A, Reason);
  addGe0(A - B, std::move(Reason));
}

namespace {

/// A working row during elimination: coefficients in __int128 to keep
/// products exact, held as a flat list sorted by symbol. The symbols are
/// views into the originating LinTerms (the FactDb rows and the caller's
/// goal), which outlive every WideRow of one refutes() call — so
/// elimination never copies a symbol, and combining two rows is a linear
/// merge instead of a tree rebuild. Overflow of the 128-bit range aborts
/// with "unknown".
struct WideRow {
  std::vector<std::pair<std::string_view, __int128>> Coeffs;
  __int128 Const = 0;

  bool isConstant() const { return Coeffs.empty(); }

  /// Coefficient of \p X, or 0 — binary search over the sorted list.
  __int128 coeffOf(std::string_view X) const {
    auto It = std::lower_bound(
        Coeffs.begin(), Coeffs.end(), X,
        [](const auto &P, std::string_view V) { return P.first < V; });
    return It != Coeffs.end() && It->first == X ? It->second : 0;
  }
};

constexpr __int128 kMagCap = (__int128(1) << 100);

bool tooBig(__int128 V) { return V > kMagCap || V < -kMagCap; }

/// *Out = A·X + B·Y, or false when it leaves the magnitude cap (checked
/// at every step, so the 128-bit arithmetic itself never overflows).
bool mulAdd(__int128 A, __int128 X, __int128 B, __int128 Y, __int128 *Out) {
  __int128 P, Q;
  return !__builtin_mul_overflow(A, X, &P) &&
         !__builtin_mul_overflow(B, Y, &Q) &&
         !__builtin_add_overflow(P, Q, Out) && !tooBig(*Out);
}

WideRow widen(const LinTerm &T) {
  WideRow R;
  R.Const = T.constPart();
  R.Coeffs.reserve(T.coeffs().size());
  for (const auto &[S, C] : T.coeffs())
    R.Coeffs.emplace_back(S, C); // Map iteration is already sorted.
  return R;
}

/// Combines Pos (coeff of X is P > 0) and Neg (coeff N < 0), eliminating X:
/// (-N)·Pos + P·Neg. Returns false on magnitude overflow.
bool combine(const WideRow &Pos, const WideRow &Neg, std::string_view X,
             WideRow *Out) {
  __int128 A = -Neg.coeffOf(X), B = Pos.coeffOf(X);
  WideRow R;
  if (!mulAdd(A, Pos.Const, B, Neg.Const, &R.Const))
    return false;
  R.Coeffs.reserve(Pos.Coeffs.size() + Neg.Coeffs.size());
  auto PI = Pos.Coeffs.begin(), PE = Pos.Coeffs.end();
  auto NI = Neg.Coeffs.begin(), NE = Neg.Coeffs.end();
  while (PI != PE || NI != NE) {
    std::string_view S;
    __int128 PC = 0, NC = 0;
    if (NI == NE || (PI != PE && PI->first < NI->first)) {
      S = PI->first;
      PC = PI->second;
      ++PI;
    } else if (PI == PE || NI->first < PI->first) {
      S = NI->first;
      NC = NI->second;
      ++NI;
    } else {
      S = PI->first;
      PC = PI->second;
      NC = NI->second;
      ++PI;
      ++NI;
    }
    if (S == X)
      continue;
    __int128 C;
    if (!mulAdd(A, PC, B, NC, &C))
      return false;
    if (C != 0)
      R.Coeffs.emplace_back(S, C);
  }
  *Out = std::move(R);
  return true;
}

} // namespace

bool FactDb::refutes(const std::vector<LinTerm> &Extra,
                     size_t MaxVars) const {
  // An unknown goal term (its arithmetic overflowed) cannot be refuted.
  if (std::any_of(Extra.begin(), Extra.end(),
                  [](const LinTerm &T) { return !T.known(); }))
    return false;
  // Budget exhaustion answers "cannot refute" — the same conservative
  // verdict the effort caps below produce, so exhaustion can only make
  // callers refuse, never accept wrongly.
  if (Budget && !Budget->step())
    return false;
  // Relevance pruning: fact databases grow monotonically during
  // compilation (one definitional symbol per subexpression), but any given
  // goal only depends on the cone of facts transitively sharing symbols
  // with it. Compute that closure first so elimination stays tiny. The
  // sets hold views into the row/goal terms (alive for the whole call):
  // hashing a short symbol beats a red-black tree of string copies on
  // this hot path.
  std::unordered_set<std::string_view> Rel;
  for (const LinTerm &T : Extra)
    for (const auto &[S, C] : T.coeffs()) {
      (void)C;
      Rel.insert(S);
    }
  std::vector<bool> Included(Rows.size(), false);
  // A goal with no symbols (or a plain inconsistency query) has no cone to
  // prune by: consider every fact.
  if (Rel.empty())
    Included.assign(Rows.size(), true);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Rows.size(); ++I) {
      if (Included[I])
        continue;
      const auto &Coeffs = Rows[I].T.coeffs();
      bool Touches =
          Coeffs.empty() || // Constant rows are trivially relevant.
          std::any_of(Coeffs.begin(), Coeffs.end(),
                      [&](const auto &P) { return Rel.count(P.first); });
      if (!Touches)
        continue;
      Included[I] = true;
      Changed = true;
      for (const auto &[S, C] : Coeffs) {
        (void)C;
        Rel.insert(S);
      }
    }
  }

  // Gather the relevant rows (each meaning T ≥ 0) and the variable set.
  std::vector<WideRow> Work;
  Work.reserve(Rows.size() + Extra.size());
  std::unordered_set<std::string_view> Vars;
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (!Included[I])
      continue;
    Work.push_back(widen(Rows[I].T));
    for (const auto &[S, C] : Rows[I].T.coeffs()) {
      (void)C;
      Vars.insert(S);
    }
  }
  for (const LinTerm &T : Extra) {
    Work.push_back(widen(T));
    for (const auto &[S, C] : T.coeffs()) {
      (void)C;
      Vars.insert(S);
    }
  }

  // Caps keep elimination tame; exceeding them means "cannot refute".
  constexpr size_t kMaxRows = 4096;
  if (Vars.size() > MaxVars)
    return false;

  auto HasContradiction = [](const std::vector<WideRow> &Rs) {
    return std::any_of(Rs.begin(), Rs.end(), [](const WideRow &R) {
      return R.isConstant() && R.Const < 0;
    });
  };

  if (HasContradiction(Work))
    return true;

  // Eliminate variables one at a time (fewest-occurrences-first keeps the
  // quadratic growth down on our goal shapes). The occurrence counts are
  // computed in one pass over the rows per round and the sort compares
  // those — the previous comparator rescanned every row for every
  // comparison, which made this loop the single hottest spot in a
  // warm-cache compile. The stable sort over the carried-forward order is
  // kept as-is: elimination order feeds the give-up caps, so the
  // selection sequence must stay exactly what it always was. The initial
  // order is sorted to reproduce the ordered-set iteration it replaced.
  std::vector<std::string> Order(Vars.begin(), Vars.end());
  std::sort(Order.begin(), Order.end());
  while (!Order.empty()) {
    std::unordered_map<std::string_view, size_t> Occur;
    for (const WideRow &R : Work)
      for (const auto &[S, C] : R.Coeffs) {
        (void)C;
        ++Occur[S];
      }
    auto Count = [&](std::string_view V) {
      auto It = Occur.find(V);
      return It == Occur.end() ? size_t(0) : It->second;
    };
    std::stable_sort(Order.begin(), Order.end(),
                     [&](const std::string &A, const std::string &B) {
                       return Count(A) < Count(B);
                     });
    std::string X = Order.front();
    Order.erase(Order.begin());

    if (Budget && !Budget->step())
      return false; // Exhausted mid-elimination: cannot refute.

    std::vector<WideRow> PosRows, NegRows, Rest;
    for (WideRow &R : Work) {
      __int128 C = R.coeffOf(X);
      if (C == 0)
        Rest.push_back(std::move(R));
      else if (C > 0)
        PosRows.push_back(std::move(R));
      else
        NegRows.push_back(std::move(R));
    }
    for (const WideRow &P : PosRows)
      for (const WideRow &N : NegRows) {
        WideRow Combined;
        if (!combine(P, N, X, &Combined))
          return false; // Overflow: give up soundly.
        Rest.push_back(std::move(Combined));
        if (Rest.size() > kMaxRows)
          return false;
      }
    Work = std::move(Rest);
    if (HasContradiction(Work))
      return true;
  }
  return HasContradiction(Work);
}

bool FactDb::entailsLe(const LinTerm &A, const LinTerm &B) const {
  return intervalImpliesLe(A, B) || refutes({A - B - lc(1)});
}

bool FactDb::probeLe(const LinTerm &A, const LinTerm &B) const {
  return intervalImpliesLe(A, B) ||
         refutes({A - B - lc(1)}, /*MaxVars=*/8);
}

bool FactDb::entailsLt(const LinTerm &A, const LinTerm &B) const {
  return intervalImpliesLe(A + lc(1), B) || refutes({A - B});
}

std::optional<int64_t> FactDb::intervalUpperBound(const LinTerm &T) const {
  if (!T.known())
    return std::nullopt;
  __int128 Max = T.constPart();
  for (const auto &[Sym, C] : T.coeffs()) {
    const std::map<std::string, int64_t> &Side = C > 0 ? Upper : Lower;
    auto It = Side.find(Sym);
    if (It == Side.end() ||
        __builtin_add_overflow(Max, __int128(C) * It->second, &Max))
      return std::nullopt;
  }
  constexpr __int128 Cap = __int128(1) << 62;
  if (Max > Cap || Max < -Cap)
    return std::nullopt;
  return int64_t(Max);
}

Status FactDb::proveLe(const LinTerm &A, const LinTerm &B) const {
  if (entailsLe(A, B))
    return Status::success();
  return Error("unsolved side condition: " + A.str() + " <= " + B.str())
      .note("facts in scope:\n" + str());
}

Status FactDb::proveLt(const LinTerm &A, const LinTerm &B) const {
  if (entailsLt(A, B))
    return Status::success();
  return Error("unsolved side condition: " + A.str() + " < " + B.str())
      .note("facts in scope:\n" + str());
}

Status FactDb::proveEq(const LinTerm &A, const LinTerm &B) const {
  if (entailsLe(A, B) && entailsLe(B, A))
    return Status::success();
  return Error("unsolved side condition: " + A.str() + " = " + B.str())
      .note("facts in scope:\n" + str());
}

bool FactDb::inconsistent() const { return refutes({}); }

void FactDb::forEachFact(
    const std::function<void(const LinTerm &, const std::string &)> &Fn)
    const {
  for (const Row &R : Rows)
    Fn(R.T, R.Reason);
}

std::string FactDb::str() const {
  std::string Out;
  for (const Row &R : Rows) {
    Out += "  " + R.T.str() + " >= 0";
    if (!R.Reason.empty())
      Out += "   (" + R.Reason + ")";
    Out += "\n";
  }
  return Out;
}

} // namespace solver
} // namespace relc
