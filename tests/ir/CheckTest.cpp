//===- tests/ir/CheckTest.cpp - FunLang checker -----------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"
#include "ir/Check.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::ir;

namespace {

SourceFn simpleFn(Monad M, ProgPtr Body) {
  FnBuilder FB("f", M);
  FB.listParam("s", EltKind::U8).wordParam("len").cellParam("c");
  return std::move(FB).done(std::move(Body));
}

TEST(CheckTest, WellTypedProgramPasses) {
  ProgBuilder B;
  B.let("x", addw(v("len"), cw(1)))
      .let("b", aget("s", cw(0)))
      .let("w", b2w(v("b")))
      .let("c", mkCellIncr("c", v("w")));
  Result<std::vector<VType>> R =
      checkFn(simpleFn(Monad::Pure, std::move(B).ret({"x", "c"})));
  ASSERT_TRUE(bool(R)) << R.error().str();
  ASSERT_EQ(R->size(), 2u);
  EXPECT_EQ((*R)[0], VType::scalar(Ty::Word));
  EXPECT_EQ((*R)[1], VType::cell());
}

TEST(CheckTest, ReturnTypesReported) {
  ProgBuilder B;
  B.let("t", ltu(v("len"), cw(4)));
  Result<std::vector<VType>> R =
      checkFn(simpleFn(Monad::Pure, std::move(B).ret({"t", "s"})));
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0], VType::scalar(Ty::Bool));
  EXPECT_EQ((*R)[1], VType::list(EltKind::U8));
}

struct BadCase {
  const char *Name;
  std::function<ProgPtr()> Make;
  const char *ExpectInError;
};

// Listings name a case by its description, not by the bytes of its
// pointers, so test names are the same in every build.
void PrintTo(const BadCase &C, std::ostream *OS) { *OS << C.Name; }

class CheckRejects : public ::testing::TestWithParam<BadCase> {};

TEST_P(CheckRejects, RejectsWithDiagnostic) {
  const BadCase &C = GetParam();
  SourceFn Fn = simpleFn(Monad::Pure, C.Make());
  Result<std::vector<VType>> R = checkFn(Fn);
  ASSERT_FALSE(bool(R)) << C.Name;
  EXPECT_NE(R.error().str().find(C.ExpectInError), std::string::npos)
      << C.Name << ": " << R.error().str();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckRejects,
    ::testing::Values(
        BadCase{"unbound variable",
                [] {
                  ProgBuilder B;
                  B.let("x", v("ghost"));
                  return std::move(B).ret({"x"});
                },
                "unbound"},
        BadCase{"byte arithmetic without cast",
                [] {
                  ProgBuilder B;
                  B.let("b", aget("s", cw(0))).let("x", addw(v("b"), cw(1)));
                  return std::move(B).ret({"x"});
                },
                "word operands"},
        BadCase{"mismatched select arms",
                [] {
                  ProgBuilder B;
                  B.let("x", select(ltu(v("len"), cw(1)), cw(1), cb(1)));
                  return std::move(B).ret({"x"});
                },
                "different types"},
        BadCase{"non-bool guard",
                [] {
                  ProgBuilder B;
                  B.let("x", select(v("len"), cw(1), cw(2)));
                  return std::move(B).ret({"x"});
                },
                "not a bool"},
        BadCase{"map body wrong type",
                [] {
                  ProgBuilder B;
                  B.let("s", mkMap("s", "b", b2w(v("b"))));
                  return std::move(B).ret({"s"});
                },
                "map body"},
        BadCase{"put value needs byte",
                [] {
                  ProgBuilder B;
                  B.let("s", mkPut("s", cw(0), cw(300)));
                  return std::move(B).ret({"s"});
                },
                "put value"},
        BadCase{"unknown table",
                [] {
                  ProgBuilder B;
                  B.let("x", tget("nope", cw(0)));
                  return std::move(B).ret({"x"});
                },
                "unknown inline table"},
        BadCase{"returning unbound name",
                [] {
                  ProgBuilder B;
                  B.let("x", cw(1));
                  return std::move(B).ret({"zzz"});
                },
                "unbound"},
        BadCase{"loop accumulator type drift",
                [] {
                  ProgBuilder Body;
                  Body.let("a", ltu(v("a"), cw(1))); // word -> bool.
                  ProgBuilder B;
                  B.letMulti({"a"}, mkRange("i", cw(0), cw(3),
                                            {acc("a", cw(0))},
                                            std::move(Body).ret({"a"})));
                  return std::move(B).ret({"a"});
                },
                "changes the type"},
        BadCase{"loop body arity mismatch",
                [] {
                  ProgBuilder Body;
                  Body.let("a", addw(v("a"), cw(1)));
                  ProgBuilder B;
                  B.letMulti({"a"}, mkRange("i", cw(0), cw(3),
                                            {acc("a", cw(0))},
                                            std::move(Body).ret({"a", "i"})));
                  return std::move(B).ret({"a"});
                },
                "accumulators"},
        BadCase{"while measure must be word",
                [] {
                  ProgBuilder Body;
                  Body.let("a", subw(v("a"), cw(1)));
                  ProgBuilder B;
                  B.letMulti({"a"}, mkWhile({acc("a", cw(5))}, nez(v("a")),
                                            std::move(Body).ret({"a"}),
                                            ltu(v("a"), cw(1))));
                  return std::move(B).ret({"a"});
                },
                "measure"},
        BadCase{"conditional branch arity mismatch",
                [] {
                  ProgBuilder T;
                  T.let("r", cw(1)).let("q", cw(2));
                  ProgBuilder E;
                  E.let("r", cw(0));
                  ProgBuilder B;
                  B.letMulti({"r"}, mkIf(ltu(v("len"), cw(1)),
                                         std::move(T).ret({"r", "q"}),
                                         std::move(E).ret({"r"})));
                  return std::move(B).ret({"r"});
                },
                "arities"},
        BadCase{"reserved dollar in binder",
                [] {
                  ProgBuilder B;
                  B.let("x$0", cw(1));
                  return std::move(B).ret({"x$0"});
                },
                "reserved"},
        BadCase{"cell op on non-cell",
                [] {
                  ProgBuilder B;
                  B.let("s", mkCellPut("s", cw(1)));
                  return std::move(B).ret({"s"});
                },
                "non-cell"}));

TEST(CheckTest, MonadDisciplineEnforced) {
  // tell in a pure model.
  {
    ProgBuilder B;
    B.let("_", mkTell(v("len")));
    Result<std::vector<VType>> R =
        checkFn(simpleFn(Monad::Pure, std::move(B).ret({"len"})));
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().str().find("writer"), std::string::npos);
  }
  // read in a writer model.
  {
    ProgBuilder B;
    B.let("x", mkIoRead());
    Result<std::vector<VType>> R =
        checkFn(simpleFn(Monad::Writer, std::move(B).ret({"x"})));
    ASSERT_FALSE(bool(R));
    EXPECT_NE(R.error().str().find("io"), std::string::npos);
  }
  // nondet_peek only in nondet.
  {
    ProgBuilder B;
    B.let("x", mkNondetPeek());
    EXPECT_FALSE(bool(
        checkFn(simpleFn(Monad::Io, std::move(B).ret({"x"})))));
    ProgBuilder B2;
    B2.let("x", mkNondetPeek());
    EXPECT_TRUE(bool(
        checkFn(simpleFn(Monad::Nondet, std::move(B2).ret({"x"})))));
  }
  // Pure bindings are legal in every monad (§3.4.1).
  for (Monad M : {Monad::Pure, Monad::Nondet, Monad::Writer, Monad::Io}) {
    ProgBuilder B;
    B.let("x", addw(v("len"), cw(1)));
    EXPECT_TRUE(bool(checkFn(simpleFn(M, std::move(B).ret({"x"})))))
        << monadName(M);
  }
}

TEST(CheckTest, DuplicateParametersRejected) {
  FnBuilder FB("f", Monad::Pure);
  FB.wordParam("x").wordParam("x");
  ProgBuilder B;
  B.let("y", v("x"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"y"}));
  EXPECT_FALSE(bool(checkFn(Fn)));
}

} // namespace
