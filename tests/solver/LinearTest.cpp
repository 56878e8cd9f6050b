//===- tests/solver/LinearTest.cpp - Linear entailment ----------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "solver/Linear.h"

#include <gtest/gtest.h>

#include <memory>

using namespace relc;
using namespace relc::solver;

namespace {

TEST(LinTermTest, Algebra) {
  LinTerm T = ls("x") + ls("x") + lc(3) - ls("y");
  EXPECT_EQ(T.coeff("x"), 2);
  EXPECT_EQ(T.coeff("y"), -1);
  EXPECT_EQ(T.constPart(), 3);
  LinTerm Z = T - T;
  EXPECT_TRUE(Z.isConstant());
  EXPECT_EQ(Z.constPart(), 0);
  LinTerm S = T.scaled(-2);
  EXPECT_EQ(S.coeff("x"), -4);
  EXPECT_EQ(S.constPart(), -6);
}

TEST(LinTermTest, ZeroCoefficientsErased) {
  LinTerm T = ls("x") - ls("x");
  EXPECT_TRUE(T.isConstant());
  EXPECT_TRUE(T.coeffs().empty());
}

TEST(LinearTest, DirectBoundEntailment) {
  FactDb F;
  F.addLe(ls("x"), lc(4));
  EXPECT_TRUE(bool(F.proveLt(ls("x"), lc(5))));
  EXPECT_TRUE(bool(F.proveLe(ls("x"), lc(4))));
  EXPECT_FALSE(bool(F.proveLt(ls("x"), lc(4))));
  EXPECT_FALSE(bool(F.proveLe(ls("x"), lc(3))));
}

TEST(LinearTest, TransitivityThroughElimination) {
  FactDb F;
  F.addLe(ls("a"), ls("b"));
  F.addLe(ls("b"), ls("c"));
  F.addLe(ls("c"), lc(10));
  EXPECT_TRUE(bool(F.proveLe(ls("a"), lc(10))));
  EXPECT_FALSE(bool(F.proveLe(lc(10), ls("a"))));
}

TEST(LinearTest, ShiftRightFactPattern) {
  // The ip-checksum pattern: nw = len >> 1 gives 2·nw ≤ len; with
  // i < nw conclude 2·i + 1 < len.
  FactDb F;
  F.addGe0(ls("len"), "len >= 0");
  F.addLe(ls("nw").scaled(2), ls("len"), "shift-right lower");
  F.addLt(ls("i"), ls("nw"), "loop bound");
  F.addGe0(ls("i"), "i >= 0");
  EXPECT_TRUE(bool(F.proveLt(ls("i").scaled(2) + lc(1), ls("len"))));
  EXPECT_TRUE(bool(F.proveLt(ls("i").scaled(2), ls("len"))));
  // But not 2i + 2 < len (i = nw-1, len = 2nw is a countermodel).
  EXPECT_FALSE(bool(F.proveLt(ls("i").scaled(2) + lc(2), ls("len"))));
}

TEST(LinearTest, MaskFactPattern) {
  // The odd-tail pattern: aux = len & 1 gives aux ≤ len and aux ≤ 1;
  // the branch adds aux ≥ 1; conclude len ≥ 1, hence len − 1 < len.
  FactDb F;
  F.addGe0(ls("len"));
  F.addLe(ls("aux"), ls("len"), "mask bound");
  F.addLe(ls("aux"), lc(1), "mask bound");
  F.addLe(lc(1), ls("aux"), "branch: aux != 0");
  EXPECT_TRUE(bool(F.proveLe(lc(1), ls("len"))));
  EXPECT_TRUE(bool(F.proveLt(ls("len") - lc(1), ls("len"))));
}

TEST(LinearTest, RationalRefutationTightensIntegers) {
  // 8·t ≤ 255 entails t < 32 over the integers (t ≤ 31.875 rationally;
  // the refutation of t ≥ 32 needs no integer reasoning).
  FactDb F;
  F.addGe0(ls("t"));
  F.addLe(ls("t").scaled(8), lc(255));
  EXPECT_TRUE(bool(F.proveLt(ls("t"), lc(32))));
  EXPECT_FALSE(bool(F.proveLt(ls("t"), lc(31))));
}

TEST(LinearTest, StrictFactsAreIntegerTightened) {
  // a < b over integers means a + 1 ≤ b; so a < b ∧ b < a+2 forces b = a+1.
  FactDb F;
  F.addLt(ls("a"), ls("b"));
  F.addLt(ls("b"), ls("a") + lc(2));
  EXPECT_TRUE(bool(F.proveEq(ls("b"), ls("a") + lc(1))));
}

TEST(LinearTest, EqualityBothWays) {
  FactDb F;
  F.addEq(ls("x"), ls("y") + lc(3));
  EXPECT_TRUE(bool(F.proveEq(ls("x") - lc(3), ls("y"))));
  EXPECT_TRUE(bool(F.proveLe(ls("y"), ls("x"))));
  EXPECT_FALSE(bool(F.proveLe(ls("x"), ls("y"))));
}

TEST(LinearTest, InconsistencyDetected) {
  FactDb F;
  F.addLt(ls("x"), lc(0));
  F.addGe0(ls("x"));
  EXPECT_TRUE(F.inconsistent());
  FactDb G;
  G.addGe0(ls("x"));
  EXPECT_FALSE(G.inconsistent());
}

TEST(LinearTest, UnknownSymbolsAreUnconstrained) {
  FactDb F;
  F.addLe(ls("x"), lc(5));
  EXPECT_FALSE(bool(F.proveLe(ls("fresh"), lc(100))));
}

TEST(LinearTest, RelevancePruningKeepsLargeDbFast) {
  // Hundreds of irrelevant facts must not block a one-step entailment
  // (the regression that utf8 compilation exposed).
  FactDb F;
  for (int I = 0; I < 300; ++I) {
    std::string A = "junk" + std::to_string(I);
    std::string B = "junk" + std::to_string(I + 1);
    F.addLe(ls(A), ls(B));
  }
  F.addLe(ls("t"), lc(4));
  EXPECT_TRUE(bool(F.proveLt(ls("t"), lc(5))));
}

TEST(LinearTest, ProbeAgreesOnEasyGoalsAndGivesUpOnHardOnes) {
  FactDb F;
  F.addGe0(ls("x"));
  F.addLe(ls("x"), lc(255));
  // Interval-resolvable: probe and full entailment agree.
  EXPECT_TRUE(F.probeLe(ls("x"), lc(255)));
  EXPECT_TRUE(F.entailsLe(ls("x"), lc(255)));
  EXPECT_FALSE(F.probeLe(ls("x"), lc(254)));
  // A goal needing a deep cone: chain y0 <= y1 <= ... <= y11 <= 5. The
  // probe's 8-variable budget gives up; full entailment still proves it.
  for (int I = 0; I < 11; ++I)
    F.addLe(ls("y" + std::to_string(I)), ls("y" + std::to_string(I + 1)));
  F.addLe(ls("y11"), lc(5));
  EXPECT_TRUE(F.entailsLe(ls("y0"), lc(5)));
  EXPECT_FALSE(F.probeLe(ls("y0"), lc(5))); // Budget miss, sound.
}

TEST(LinearTest, IntervalUpperBound) {
  FactDb F;
  F.addGe0(ls("a"));
  F.addLe(ls("a"), lc(255));
  F.addGe0(ls("b"));
  F.addLe(ls("b"), lc(10));
  std::optional<int64_t> UB = F.intervalUpperBound(ls("a").scaled(2) +
                                                   ls("b") + lc(1));
  ASSERT_TRUE(UB.has_value());
  EXPECT_EQ(*UB, 2 * 255 + 10 + 1);
  // Negative coefficients need a lower bound (present: a, b >= 0).
  std::optional<int64_t> UB2 = F.intervalUpperBound(lc(100) - ls("b"));
  ASSERT_TRUE(UB2.has_value());
  EXPECT_EQ(*UB2, 100);
  // Unbounded symbol: no bound derivable.
  EXPECT_FALSE(F.intervalUpperBound(ls("a") + ls("zzz")).has_value());
}

TEST(LinearTest, ConstantContradictionInFactsRefutesEverything) {
  FactDb F;
  F.addGe0(lc(-1)); // False.
  // From false, anything follows (dead-branch compilation).
  EXPECT_TRUE(bool(F.proveLt(ls("x") + lc(100), ls("x"))));
}

TEST(LinearTest, VacuousFactAtInt64MinProvesNothing) {
  // x ≥ INT64_MIN holds of every x. Stored as x − INT64_MIN ≥ 0, whose
  // constant does not fit int64: the fact must add no information, not
  // wrap into x ≥ 2^63.
  FactDb F;
  F.addLe(lc(INT64_MIN), ls("x"));
  EXPECT_FALSE(F.entailsLe(lc(1000), ls("x")));
  EXPECT_FALSE(bool(F.proveLe(lc(1000), ls("x"))));
  EXPECT_FALSE(F.inconsistent());
}

TEST(LinTermTest, OverflowIsUnknownAndStaysUnknown) {
  LinTerm Big = lc(INT64_MAX) + lc(1);
  EXPECT_FALSE(Big.known());
  EXPECT_FALSE(Big.isConstant());
  EXPECT_TRUE(Big.coeffs().empty());
  EXPECT_FALSE((Big - Big).known());
  EXPECT_FALSE((lc(0) + Big).known());
  EXPECT_FALSE(Big.scaled(0).known());
  EXPECT_FALSE(ls("x").scaled(INT64_MIN).scaled(-1).known());
  EXPECT_FALSE((ls("x").scaled(INT64_MAX) + ls("x")).known());
  EXPECT_TRUE((lc(INT64_MAX) + lc(-1)).known());
  EXPECT_EQ(Big.str(), "<overflow>");
  // Printing never negates INT64_MIN.
  EXPECT_EQ(lc(INT64_MIN).str(), "-9223372036854775808");
  EXPECT_EQ((ls("x").scaled(INT64_MIN) + lc(INT64_MIN)).str(),
            "-9223372036854775808*x - 9223372036854775808");
}

TEST(LinearTest, UnknownTermsAreNeitherFactsNorProvableGoals) {
  FactDb F;
  F.addGe0(ls("x"));
  F.addLe(ls("x"), lc(10));
  LinTerm Big = ls("x").scaled(INT64_MAX).scaled(2);
  ASSERT_FALSE(Big.known());
  size_t Before = F.size();
  F.addGe0(Big);
  F.addLe(Big, lc(0));
  EXPECT_EQ(F.size(), Before);
  EXPECT_FALSE(F.entailsLe(Big, lc(0)));
  EXPECT_FALSE(F.entailsLe(lc(0), Big));
  EXPECT_FALSE(F.entailsLt(Big, Big));
  EXPECT_FALSE(F.probeLe(Big, Big));
  EXPECT_FALSE(F.intervalUpperBound(Big).has_value());
  EXPECT_FALSE(bool(F.proveEq(Big, Big)));
  // The known facts still prove what they proved before.
  EXPECT_TRUE(F.entailsLe(ls("x"), lc(10)));
}

TEST(LinearTest, FailureMessageListsGoalAndFacts) {
  FactDb F;
  F.addLe(ls("x"), lc(4), "example fact");
  Status S = F.proveLt(ls("y"), lc(2));
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("y < 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Verdict pin.
//===----------------------------------------------------------------------===//

/// splitmix64: a fixed generator, so every platform draws the same
/// databases and goals.
struct Rng {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  int64_t in(int64_t Lo, int64_t Hi) {
    return Lo + int64_t(next() % (uint64_t(Hi) - uint64_t(Lo) + 1));
  }
  bool oneIn(uint64_t N) { return next() % N == 0; }
};

/// FNV-1a over the stream of verdicts, step counts and renderings.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void byte(uint8_t B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(uint8_t(V >> (8 * I)));
  }
  void add(const std::string &S) {
    for (char C : S)
      byte(uint8_t(C));
    add(S.size());
  }
};

/// Mostly small; when \p Wide, often near 2^k for k up to 62 (and now and
/// then INT64_MIN), so elimination products cross int64 and the 2^100 cap.
int64_t drawCoeff(Rng &R, bool Wide) {
  if (Wide && R.oneIn(16))
    return INT64_MIN;
  int64_t C = Wide && R.oneIn(2) ? (int64_t(1) << R.in(20, 62)) + R.in(-3, 3)
                                 : R.in(1, 4);
  return R.oneIn(2) ? -C : C;
}

LinTerm drawTerm(Rng &R, const std::vector<std::string> &Syms, int MaxSyms,
                 bool Wide) {
  LinTerm T = lc(Wide ? R.in(-(int64_t(1) << 40), int64_t(1) << 40)
                      : R.in(-12, 12));
  for (int64_t I = 0, N = R.in(1, MaxSyms); I < N; ++I)
    T = T + ls(Syms[R.in(0, int64_t(Syms.size()) - 1)])
                .scaled(drawCoeff(R, Wide));
  return T;
}

std::vector<std::string> symbols(const char *Prefix, int64_t N) {
  std::vector<std::string> Out;
  for (int64_t I = 0; I < N; ++I)
    Out.push_back(Prefix + std::to_string(I));
  return Out;
}

/// A seeded sweep over a few thousand small fact databases: random cones,
/// chains past the probe's 8 and the full query's 48 symbols, coefficients
/// whose elimination products leave int64 and pass 2^100, constant
/// contradictions, row sets whose elimination passes the 4096-row cap,
/// and step-limited budgets. Every verdict is hashed together with the
/// budget's step count after it, so the digest pins what the solver
/// answers and how much elimination it charged for. A change of internal
/// representation must leave the digest as it is; one that moves it
/// changes a verdict, a cap or a budget step.
TEST(LinearTest, VerdictPinIsRepresentationIndependent) {
  Rng R{20220613};
  Digest D;
  unsigned Proved = 0, Queries = 0;
  for (int Db = 0; Db < 2400; ++Db) {
    FactDb F;
    std::vector<std::string> Syms;
    int64_t NGoals = R.in(2, 6);
    bool Wide = false;
    switch (Db % 6) {
    case 2: { // A chain y0 <= y1 <= ... <= yL <= K, plus noise.
      int64_t L = R.in(3, 60);
      Syms = symbols("y", L + 1);
      for (int64_t I = 0; I < L; ++I)
        F.addLe(ls(Syms[I]) + lc(R.in(-1, 1)), ls(Syms[I + 1]));
      F.addLe(ls(Syms[L]), lc(R.in(0, 40)));
      F.addGe0(ls(Syms[0]));
      break;
    }
    case 3: // Wide coefficients.
      Wide = true;
      Syms = symbols("w", R.in(1, 4));
      for (int64_t I = 0, N = R.in(1, 8); I < N; ++I)
        F.addGe0(drawTerm(R, Syms, 3, /*Wide=*/true));
      break;
    case 5:
      if (Db % 50 == 5) { // Elimination past the 4096-row cap.
        Syms = symbols("b", R.in(2, 3));
        for (int64_t I = 0, N = R.in(100, 140); I < N; ++I) {
          LinTerm T = lc(R.in(-30, 30));
          for (const std::string &S : Syms)
            T = T + ls(S).scaled(drawCoeff(R, false));
          F.addGe0(T);
        }
        NGoals = 1;
        break;
      }
      [[fallthrough]];
    default: // Small random cones; case 4 adds a contradiction.
      Syms = symbols("s", R.in(1, 12));
      for (int64_t I = 0, N = R.in(0, 10); I < N; ++I)
        F.addGe0(drawTerm(R, Syms, 3, false));
      if (Db % 6 == 4) {
        int64_t K = R.in(0, 9);
        if (R.oneIn(2)) {
          F.addGe0(lc(-K - 1), "false");
        } else {
          F.addLe(lc(K), ls(Syms[0]));
          F.addLt(ls(Syms[0]), lc(K));
        }
      }
      break;
    }

    std::unique_ptr<guard::Budget> B =
        R.oneIn(4) ? std::make_unique<guard::Budget>(0, R.in(1, 24))
                   : std::make_unique<guard::Budget>();
    F.setBudget(B.get());
    D.add(F.str());
    auto Record = [&](bool V) {
      D.add(uint64_t(V));
      D.add(B->stepsUsed());
      Proved += V;
      ++Queries;
    };
    for (int64_t G = 0; G < NGoals; ++G) {
      LinTerm A = drawTerm(R, Syms, 3, Wide);
      LinTerm C = R.oneIn(3) ? lc(R.in(-5, 60)) : drawTerm(R, Syms, 2, Wide);
      if (R.oneIn(16))
        A = ls(Syms[0]).scaled(INT64_MAX).scaled(2); // Unknown.
      if (R.oneIn(8))
        C = C + ls("fresh");
      D.add(A.str() + " | " + C.str());
      Record(F.entailsLe(A, C));
      Record(F.entailsLt(A, C));
      Record(F.probeLe(A, C));
      std::optional<int64_t> UB = F.intervalUpperBound(A);
      D.add(UB ? uint64_t(*UB) : 0x5a5a5a5a5a5a5a5aull);
    }
    Record(F.inconsistent());
  }
  // Not a degenerate sweep: both verdicts occur often.
  EXPECT_GT(Proved, Queries / 10);
  EXPECT_LT(Proved, Queries - Queries / 10);
  EXPECT_EQ(D.H, 0x5a3bfcf9d9f99d04ull) << std::hex << "digest 0x" << D.H;
}

/// Parameterized sweep: i < n ∧ n ≤ K ⊢ i + j < K + j for several K, j —
/// exercises elimination with multiple variables and offsets.
class LinearSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(LinearSweep, OffsetBounds) {
  auto [K, J] = GetParam();
  FactDb F;
  F.addGe0(ls("i"));
  F.addLt(ls("i"), ls("n"));
  F.addLe(ls("n"), lc(K));
  EXPECT_TRUE(bool(F.proveLt(ls("i") + lc(J), lc(K + J))));
  EXPECT_FALSE(bool(F.proveLt(ls("i") + lc(J), lc(J)))); // i can be K−1.
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LinearSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 7, 256, 1 << 20),
                       ::testing::Values<int64_t>(0, 1, 3, 64)));

} // namespace
