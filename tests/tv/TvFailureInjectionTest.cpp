//===- tests/tv/TvFailureInjectionTest.cpp - Beyond sampled testing --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The companion of tests/analysis/SeededBugsTest.cpp's analysis-vs-
// differential argument, one layer up: a miscompilation that the sampled
// differential battery *provably cannot* catch — a trigger value chosen,
// after enumerating the battery's deterministic input vectors, to lie
// outside all of them — but that the translation validator rejects for
// all inputs. This is the test that justifies layer 3's existence: layer
// 4 checks finitely many points, tv::validateTranslation checks the
// function.
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"
#include "pipeline/Pipeline.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

#include <set>

using namespace relc;
using namespace relc::ir;
using namespace relc::bedrock;

namespace {

TEST(TvFailureInjectionTest, TriggerOutsideSampledVectorsOnlyTvCatches) {
  // Model: the identity function on one word.
  FnBuilder FB("ident", Monad::Pure);
  FB.wordParam("x");
  ProgBuilder B;
  B.let("r", v("x"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  sep::FnSpec Spec("ident");
  Spec.scalarArg("x").retScalar("r");

  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(Fn, Spec, {});
  ASSERT_TRUE(bool(R)) << (R ? "" : R.error().str());

  // Enumerate the battery: the differential driver is deterministic (fixed
  // seed), so recording the inputs of one run enumerates exactly the
  // vectors every future run with these options will test.
  std::set<uint64_t> SampledX;
  validate::ValidationOptions Opts;
  Opts.MakeInputs = [&SampledX](const SourceFn &F, Rng &Rg,
                                size_t SizeHint) {
    std::vector<Value> In = validate::defaultInputs(F, Rg, SizeHint);
    SampledX.insert(In[0].scalar());
    return In;
  };

  bedrock::Module Clean;
  Clean.Functions.push_back(R->Fn);
  Status CleanRun =
      validate::differentialCertify(Fn, Spec, *R, Clean, Opts);
  ASSERT_TRUE(bool(CleanRun)) << CleanRun.error().str();
  ASSERT_FALSE(SampledX.empty());

  // A trigger provably outside the battery.
  uint64_t Magic = 0xDEADBEEFCAFEF00Dull;
  while (SampledX.count(Magic))
    ++Magic;

  // The miscompilation: correct everywhere except the one untested point.
  core::CompileResult &Broken = *R;
  Broken.Fn.Body =
      seq(Broken.Fn.Body,
          ifThenElse(bin(BinOp::Eq, var("x"), lit(Magic)),
                     set("r", lit(0)), skip()));

  // Differential testing accepts it: every sampled x differs from the
  // trigger, by construction. (Same options -> the very same vectors.)
  bedrock::Module M;
  M.Functions.push_back(Broken.Fn);
  std::set<uint64_t> SecondRun;
  validate::ValidationOptions Opts2;
  Opts2.MakeInputs = [&SecondRun](const SourceFn &F, Rng &Rg,
                                  size_t SizeHint) {
    std::vector<Value> In = validate::defaultInputs(F, Rg, SizeHint);
    SecondRun.insert(In[0].scalar());
    return In;
  };
  Status Sampled = validate::differentialCertify(Fn, Spec, Broken, M, Opts2);
  EXPECT_TRUE(bool(Sampled))
      << "differential testing was supposed to miss this defect: "
      << Sampled.error().str();
  EXPECT_EQ(SampledX, SecondRun); // The battery really is deterministic.
  EXPECT_EQ(SecondRun.count(Magic), 0u);

  // Translation validation rejects it for all inputs — no vectors needed.
  tv::TvReport Rep = tv::validateTranslation(Fn, Spec, Broken.Fn);
  ASSERT_TRUE(Rep.refuted()) << Rep.str();
  EXPECT_NE(Rep.Reason.find("'r'"), std::string::npos) << Rep.Reason;

  // And the full pipeline therefore fails on the tampered artifact even
  // though its own sampled layer would have passed.
  programs::ProgramDef Def;
  Def.Name = "ident";
  Def.Model = Fn;
  Def.Spec = Spec;
  Def.VOpts = Opts2;
  pipeline::TamperHook Tamper = [&Broken](const programs::ProgramDef &,
                                          core::CompileResult &R) {
    R.Fn = Broken.Fn;
  };
  std::vector<pipeline::ProgramOutcome> Pipeline =
      pipeline::certifyPrograms({&Def}, {}, nullptr, Tamper);
  ASSERT_FALSE(Pipeline[0].ok());
  EXPECT_NE(Pipeline[0].ValidationError.find("translation validation"),
            std::string::npos)
      << Pipeline[0].ValidationError;
}

} // namespace
