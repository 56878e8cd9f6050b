//===- tests/solver/LinearTest.cpp - Linear entailment ----------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "solver/Linear.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::solver;

namespace {

TEST(LinTermTest, Algebra) {
  LinTerm T = ls("x") + ls("x") + lc(3) - ls("y");
  EXPECT_EQ(T.coeffs().at("x"), 2);
  EXPECT_EQ(T.coeffs().at("y"), -1);
  EXPECT_EQ(T.constPart(), 3);
  LinTerm Z = T - T;
  EXPECT_TRUE(Z.isConstant());
  EXPECT_EQ(Z.constPart(), 0);
  LinTerm S = T.scaled(-2);
  EXPECT_EQ(S.coeffs().at("x"), -4);
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
