//===- tests/sep/SpecTest.cpp - fnspec checking ------------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"
#include "sep/Spec.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::ir;

namespace {

SourceFn upstrLike() {
  FnBuilder FB("m", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder B;
  B.let("s", mkMap("s", "b", v("b"))).let("h", v("len"));
  return std::move(FB).done(std::move(B).ret({"s", "h"}));
}

TEST(SpecTest, GoodSpecPasses) {
  sep::FnSpec Spec("upstr");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s").retScalar("h");
  EXPECT_TRUE(bool(sep::checkSpecAgainstFn(Spec, upstrLike())));
}

TEST(SpecTest, RenderingLooksLikeTheFnspecMacro) {
  sep::FnSpec Spec("upstr");
  Spec.arrayArg("s").lenArg("len", "s").retInPlace("s").retScalar("h");
  std::string S = Spec.str();
  EXPECT_NE(S.find("fnspec! \"upstr\""), std::string::npos);
  EXPECT_NE(S.find("requires"), std::string::npos);
  EXPECT_NE(S.find("length s"), std::string::npos);
  EXPECT_NE(S.find("ensures"), std::string::npos);
}

struct BadSpec {
  const char *Name;
  std::function<sep::FnSpec()> Make;
  const char *ExpectInError;
};

// Listings name a case by its description, not by the bytes of its
// pointers, so test names are the same in every build.
void PrintTo(const BadSpec &C, std::ostream *OS) { *OS << C.Name; }

class SpecRejects : public ::testing::TestWithParam<BadSpec> {};

TEST_P(SpecRejects, RejectsWithDiagnostic) {
  const BadSpec &C = GetParam();
  Status S = sep::checkSpecAgainstFn(C.Make(), upstrLike());
  ASSERT_FALSE(bool(S)) << C.Name;
  EXPECT_NE(S.error().str().find(C.ExpectInError), std::string::npos)
      << C.Name << ": " << S.error().str();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SpecRejects,
    ::testing::Values(
        BadSpec{"uncovered parameter",
                [] {
                  sep::FnSpec S("f");
                  S.arrayArg("s").retInPlace("s").retScalar("h");
                  return S; // len not realized.
                },
                "not realized"},
        BadSpec{"unknown source parameter",
                [] {
                  sep::FnSpec S("f");
                  S.arrayArg("s").lenArg("len", "s").scalarArg("zzz")
                      .retInPlace("s").retScalar("h");
                  return S;
                },
                "unknown source parameter"},
        BadSpec{"array passed as scalar",
                [] {
                  sep::FnSpec S("f");
                  S.scalarArg("s").lenArg("len", "s").retInPlace("s")
                      .retScalar("h");
                  return S;
                },
                "by value"},
        BadSpec{"length of a non-list",
                [] {
                  sep::FnSpec S("f");
                  S.arrayArg("s").lenArg("len", "len").retInPlace("s")
                      .retScalar("h");
                  return S;
                },
                "measures"},
        BadSpec{"duplicated realization",
                [] {
                  sep::FnSpec S("f");
                  S.arrayArg("s").lenArg("len", "s").scalarArg("len")
                      .retInPlace("s").retScalar("h");
                  return S;
                },
                "duplicate"},
        BadSpec{"in-place result not returned",
                [] {
                  sep::FnSpec S("f");
                  S.arrayArg("s").lenArg("len", "s").retScalar("h")
                      .retScalar("s"); // s is a list, and retScalar is
                                       // wrong, but first error hits the
                                       // uncaptured result check path.
                  return S;
                },
                "s"},
        BadSpec{"uncaptured model result",
                [] {
                  sep::FnSpec S("f");
                  S.arrayArg("s").lenArg("len", "s").retInPlace("s");
                  return S; // h not captured.
                },
                "not captured"}));

TEST(SpecTest, FindArgForSource) {
  sep::FnSpec Spec("f");
  Spec.arrayArg("s").lenArg("len", "s");
  ASSERT_NE(Spec.findArgForSource("s"), nullptr);
  EXPECT_EQ(Spec.findArgForSource("s")->TheKind,
            sep::ArgSpec::Kind::ArrayPtr);
  EXPECT_EQ(Spec.findArgForSource("nope"), nullptr);
}

} // namespace
