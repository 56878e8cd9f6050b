//===- solver/Linear.cpp - Linear-arithmetic entailment --------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "solver/Linear.h"

#include <algorithm>
#include <cassert>
#include <string_view>

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
  T.Coeffs.emplace_back(Name, 1);
  return T;
}

LinTerm LinTerm::unknown() {
  LinTerm T;
  T.Known = false;
  return T;
}

int64_t LinTerm::coeff(std::string_view Name) const {
  auto It = std::lower_bound(
      Coeffs.begin(), Coeffs.end(), Name,
      [](const auto &P, std::string_view N) { return P.first < N; });
  return It != Coeffs.end() && It->first == Name ? It->second : 0;
}

LinTerm LinTerm::operator+(const LinTerm &O) const {
  if (!Known || !O.Known)
    return unknown();
  LinTerm T;
  if (__builtin_add_overflow(Const, O.Const, &T.Const))
    return unknown();
  // Merge the two name-sorted lists; a sum of zero drops the symbol.
  T.Coeffs.reserve(Coeffs.size() + O.Coeffs.size());
  auto I = Coeffs.begin(), IE = Coeffs.end();
  auto J = O.Coeffs.begin(), JE = O.Coeffs.end();
  while (I != IE || J != JE) {
    if (J == JE || (I != IE && I->first < J->first)) {
      T.Coeffs.push_back(*I++);
    } else if (I == IE || J->first < I->first) {
      T.Coeffs.push_back(*J++);
    } else {
      int64_t Sum;
      if (__builtin_add_overflow(I->second, J->second, &Sum))
        return unknown();
      if (Sum != 0)
        T.Coeffs.emplace_back(I->first, Sum);
      ++I;
      ++J;
    }
  }
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
  if (Factor == 0)
    return T;
  T.Coeffs.reserve(Coeffs.size());
  for (const auto &[S, C] : Coeffs) {
    int64_t P;
    if (__builtin_mul_overflow(C, Factor, &P))
      return unknown();
    T.Coeffs.emplace_back(S, P);
  }
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

/// One bit per symbol of \p T, picked by the name's hash.
static uint64_t maskOf(const LinTerm &T) {
  uint64_t Mask = 0;
  for (const auto &[S, C] : T.coeffs()) {
    (void)C;
    Mask |= uint64_t(1) << (std::hash<std::string_view>{}(S) & 63);
  }
  return Mask;
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
  uint64_t Mask = maskOf(T);
  Rows.push_back(Row{std::move(T), std::move(Reason), Mask});
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

constexpr __int128 kMagCap = (__int128(1) << 100);

bool tooBig(__int128 V) { return V > kMagCap || V < -kMagCap; }

/// *Out = A·X + B·Y, or false when it leaves the magnitude cap (checked
/// at every step, so the 128-bit arithmetic itself never overflows).
/// Operands that fit int64 take the int64 multiply-add; only a product or
/// sum that leaves int64 is redone in 128 bits. An int64 result is always
/// under the cap, so both paths give the same answer.
bool mulAdd(__int128 A, __int128 X, __int128 B, __int128 Y, __int128 *Out) {
  int64_t P, Q, S;
  if (fitsInt64(A) && fitsInt64(X) && fitsInt64(B) && fitsInt64(Y) &&
      !__builtin_mul_overflow(int64_t(A), int64_t(X), &P) &&
      !__builtin_mul_overflow(int64_t(B), int64_t(Y), &Q) &&
      !__builtin_add_overflow(P, Q, &S)) {
    *Out = S;
    return true;
  }
  __int128 P128, Q128;
  return !__builtin_mul_overflow(A, X, &P128) &&
         !__builtin_mul_overflow(B, Y, &Q128) &&
         !__builtin_add_overflow(P128, Q128, Out) && !tooBig(*Out);
}

/// The elimination workspace of one query: rows over the cone's N
/// symbols, numbered 0..N-1 in name order. Row I's coefficients are
/// Coef[I·N, I·N + N), in 128 bits to keep products exact; beside them sit
/// its constant and the mask of its nonzero coefficients (N < 64).
struct Workspace {
  size_t N = 0;
  std::vector<__int128> Coef;
  std::vector<__int128> Const;
  std::vector<uint64_t> Support;

  size_t size() const { return Const.size(); }
  const __int128 *row(size_t I) const { return Coef.data() + I * N; }

  /// Appends a row with constant \p K and no coefficients yet.
  __int128 *newRow(__int128 K) {
    Coef.resize(Coef.size() + N);
    Const.push_back(K);
    Support.push_back(0);
    return Coef.data() + Coef.size() - N;
  }

  /// Appends \p T, whose symbols all lie in \p Ids (the cone, sorted).
  void appendTerm(const LinTerm &T,
                  const std::vector<std::string_view> &Ids) {
    __int128 *R = newRow(T.constPart());
    auto It = Ids.begin();
    for (const auto &[S, C] : T.coeffs()) {
      It = std::lower_bound(It, Ids.end(), std::string_view(S));
      size_t V = size_t(It - Ids.begin());
      R[V] = C;
      Support.back() |= uint64_t(1) << V;
    }
  }

  /// Appends a copy of \p From's row \p I.
  void appendRow(const Workspace &From, size_t I) {
    Coef.insert(Coef.end(), From.row(I), From.row(I) + N);
    Const.push_back(From.Const[I]);
    Support.push_back(From.Support[I]);
  }

  /// Appends (−n)·Pos + p·Neg, eliminating X, where p > 0 and n < 0 are
  /// the rows' X coefficients. False on magnitude overflow.
  bool appendCombined(const Workspace &From, size_t Pos, size_t Neg,
                      size_t X) {
    const __int128 *P = From.row(Pos), *Ng = From.row(Neg);
    __int128 A = -Ng[X], B = P[X];
    __int128 K;
    if (!mulAdd(A, From.Const[Pos], B, From.Const[Neg], &K))
      return false;
    uint64_t Sup = (From.Support[Pos] | From.Support[Neg]) &
                   ~(uint64_t(1) << X);
    __int128 *R = newRow(K);
    uint64_t Nonzero = 0;
    for (uint64_t M = Sup; M; M &= M - 1) {
      size_t V = size_t(__builtin_ctzll(M));
      if (!mulAdd(A, P[V], B, Ng[V], &R[V]))
        return false;
      if (R[V] != 0)
        Nonzero |= uint64_t(1) << V;
    }
    Support.back() = Nonzero;
    return true;
  }

  void clear() {
    Coef.clear();
    Const.clear();
    Support.clear();
  }

  /// Some row reads 0 ≥ −k with k > 0.
  bool hasContradiction() const {
    for (size_t I = 0; I < size(); ++I)
      if (Support[I] == 0 && Const[I] < 0)
        return true;
    return false;
  }
};

} // namespace

bool FactDb::refutes(const std::vector<LinTerm> &Extra,
                     size_t MaxVars) const {
  assert(MaxVars < 64 && "a workspace row's support mask is 64 bits");
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
  // cone's symbols are views into the row/goal terms (alive for the whole
  // call), kept sorted; a row whose mask misses the cone's mask is skipped
  // without looking at its symbols. A cone past MaxVars symbols cannot be
  // refuted, so growing it stops there.
  std::vector<std::string_view> Cone;
  uint64_t ConeMask = 0;
  auto Grow = [&](const LinTerm &T, uint64_t Mask) {
    ConeMask |= Mask;
    for (const auto &[S, C] : T.coeffs()) {
      (void)C;
      auto It = std::lower_bound(Cone.begin(), Cone.end(), S);
      if (It == Cone.end() || *It != S)
        Cone.insert(It, S);
    }
    return Cone.size() <= MaxVars;
  };
  for (const LinTerm &T : Extra)
    if (!Grow(T, maskOf(T)))
      return false;
  // A goal with no symbols (or a plain inconsistency query) has no cone to
  // prune by: consider every fact.
  std::vector<bool> Included(Rows.size(), Cone.empty());
  if (Cone.empty()) {
    for (const Row &R : Rows)
      if (!Grow(R.T, R.Mask))
        return false;
  }
  auto Touches = [&](const Row &R) {
    const auto &Coeffs = R.T.coeffs();
    if (Coeffs.empty())
      return true; // Constant rows are trivially relevant.
    if (!(R.Mask & ConeMask))
      return false;
    return std::any_of(Coeffs.begin(), Coeffs.end(), [&](const auto &P) {
      return std::binary_search(Cone.begin(), Cone.end(),
                                std::string_view(P.first));
    });
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Rows.size(); ++I) {
      if (Included[I] || !Touches(Rows[I]))
        continue;
      Included[I] = true;
      Changed = true;
      if (!Grow(Rows[I].T, Rows[I].Mask))
        return false;
    }
  }

  // Gather the relevant rows (each meaning T ≥ 0), then the goal rows,
  // over the cone's symbols numbered in name order.
  Workspace Work;
  Work.N = Cone.size();
  for (size_t I = 0; I < Rows.size(); ++I)
    if (Included[I])
      Work.appendTerm(Rows[I].T, Cone);
  for (const LinTerm &T : Extra)
    Work.appendTerm(T, Cone);

  if (Work.hasContradiction())
    return true;

  // Eliminate variables one at a time, fewest occurrences first (which
  // keeps the quadratic growth down on our goal shapes): each round counts
  // occurrences from the rows' support masks and stable-sorts the
  // carried-forward order by them, starting from name order. Elimination
  // order feeds the give-up caps, so this selection sequence is part of
  // the solver's observable behaviour.
  constexpr size_t kMaxRows = 4096; // Past it: cannot refute.
  std::vector<size_t> Order(Work.N);
  for (size_t V = 0; V < Work.N; ++V)
    Order[V] = V;
  std::vector<size_t> Occur(Work.N);
  Workspace Next;
  Next.N = Work.N;
  std::vector<size_t> PosRows, NegRows;
  while (!Order.empty()) {
    std::fill(Occur.begin(), Occur.end(), 0);
    for (uint64_t Sup : Work.Support)
      for (uint64_t M = Sup; M; M &= M - 1)
        ++Occur[size_t(__builtin_ctzll(M))];
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Occur[A] < Occur[B];
    });
    size_t X = Order.front();
    Order.erase(Order.begin());

    if (Budget && !Budget->step())
      return false; // Exhausted mid-elimination: cannot refute.

    Next.clear();
    PosRows.clear();
    NegRows.clear();
    for (size_t I = 0; I < Work.size(); ++I) {
      __int128 C = Work.row(I)[X];
      if (C == 0)
        Next.appendRow(Work, I);
      else if (C > 0)
        PosRows.push_back(I);
      else
        NegRows.push_back(I);
    }
    for (size_t P : PosRows)
      for (size_t N : NegRows) {
        if (!Next.appendCombined(Work, P, N, X))
          return false; // Overflow: give up soundly.
        if (Next.size() > kMaxRows)
          return false;
      }
    std::swap(Work, Next);
    if (Work.hasContradiction())
      return true;
  }
  return false; // Every variable is gone and no row is contradictory.
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
