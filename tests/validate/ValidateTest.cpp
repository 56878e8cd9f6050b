//===- tests/validate/ValidateTest.cpp - The trusted checker ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "programs/Programs.h"
#include "validate/Validate.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::ir;

namespace {

/// A compiled upstr-like function for reuse across tests.
struct Fixture {
  programs::ProgramDef P = *programs::findProgram("upstr");
  core::CompileResult R;
  bedrock::Module Linked;

  Fixture() {
    core::Compiler C;
    Result<core::CompileResult> Res = C.compileFn(P.Model, P.Spec, P.Hints);
    EXPECT_TRUE(bool(Res));
    R = Res.take();
    Linked.Functions.push_back(R.Fn);
  }
};

TEST(ValidateTest, GoodCompilationPassesBothHalves) {
  Fixture F;
  EXPECT_TRUE(bool(validate::replayDerivation(F.P.Model, F.R)));
  Status D = validate::differentialCertify(F.P.Model, F.P.Spec, F.R,
                                           F.Linked, F.P.VOpts);
  EXPECT_TRUE(bool(D)) << (D ? "" : D.error().str());
}

TEST(ValidateTest, DefaultInputsMatchParameterShapes) {
  FnBuilder FB("m", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("x").cellParam("c");
  ProgBuilder B;
  B.let("r", v("x"));
  SourceFn Fn = std::move(FB).done(std::move(B).ret({"r"}));
  Rng R(5);
  std::vector<Value> In = validate::defaultInputs(Fn, R, 13);
  ASSERT_EQ(In.size(), 3u);
  EXPECT_EQ(In[0].elems().size(), 13u);
  EXPECT_EQ(In[0].listElt(), EltKind::U8);
  EXPECT_EQ(In[1].kind(), Value::Kind::Word);
  EXPECT_EQ(In[2].elems().size(), 1u);
}

TEST(ValidateTest, MissingWitnessRejected) {
  Fixture F;
  core::CompileResult NoProof;
  NoProof.Fn = F.R.Fn;
  Status S = validate::replayDerivation(F.P.Model, NoProof);
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.error().str().find("witness"), std::string::npos);
}

TEST(ValidateTest, AllSuiteProgramsCertify) {
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    Result<programs::CompiledProgram> C = programs::compileAndValidate(P);
    EXPECT_TRUE(bool(C)) << P.Name << ": "
                         << (C ? "" : C.error().str());
  }
}

TEST(ValidateTest, TamperedWitnessRejectedWithNoteChain) {
  // A tampered witness fails layer 1: validate() stops there and names
  // the layer after the replay's own diagnostic.
  Fixture F;
  F.R.Proof->Children[0]->Rule = "compile_backdoor";
  validate::ValidationOptions VO = F.P.VOpts;
  VO.Hints = F.P.Hints;
  Status S = validate::validate(F.P.Model, F.P.Spec, F.R, F.Linked, VO);
  ASSERT_FALSE(bool(S));
  std::string Text = S.error().str();
  size_t Rule = Text.find("compile_backdoor");
  size_t Note = Text.find("derivation replay rejected the witness");
  ASSERT_NE(Rule, std::string::npos) << Text;
  ASSERT_NE(Note, std::string::npos) << Text;
  EXPECT_LT(Rule, Note) << Text;
}

TEST(ValidateTest, ValidationIsSeedStable) {
  // Same options, same verdict — determinism of the certifier.
  Fixture F;
  validate::ValidationOptions VO = F.P.VOpts;
  VO.Seed = 12345;
  Status A = validate::differentialCertify(F.P.Model, F.P.Spec, F.R,
                                           F.Linked, VO);
  Status B = validate::differentialCertify(F.P.Model, F.P.Spec, F.R,
                                           F.Linked, VO);
  EXPECT_EQ(bool(A), bool(B));
  EXPECT_TRUE(bool(A));
}

} // namespace
