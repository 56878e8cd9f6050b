//===- codelint/Driver.cpp - Codelint driver over the suite ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "codelint/Driver.h"

namespace relc {
namespace codelint {

ProgramLint lintProgram(const programs::ProgramDef &P,
                        const guard::Budget *Budget) {
  ProgramLint L;
  L.Name = P.Name;
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
  if (!R) {
    L.CompileError =
        R.takeError().note("while compiling program " + P.Name).str();
    return L;
  }
  L.CompileOk = true;
  L.R = analyzeFunction(R->Fn, P.Spec, P.Model, P.Hints.EntryFacts, Budget);
  return L;
}

std::vector<ProgramLint> lintSuite(const guard::Budget *Budget) {
  std::vector<ProgramLint> Out;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Out.push_back(lintProgram(P, Budget));
  return Out;
}

std::vector<ProgramLint> lintStackExamples() {
  using namespace stackm;
  std::vector<ProgramLint> Out;
  SExprPtr Demo = sAdd(sInt(3), sMul(sInt(4), sAdd(sInt(5), sInt(6))));

  auto AddExample = [&](const std::string &Name, Result<TProgram> P) {
    ProgramLint L;
    L.Name = Name;
    if (!P) {
      L.CompileError = P.error().str();
    } else {
      L.CompileOk = true;
      L.R = analyzeStackProgram(*P);
    }
    Out.push_back(std::move(L));
  };

  // The traditional verified compiler (§2.1) on its base fragment.
  AddExample("stackm-traditional", compileStoT(*sAdd(sInt(3), sInt(4))));

  // The relational compiler (§2.2–2.3) with the extension rules.
  SRuleSet Rules = SRuleSet::base();
  Rules.add(makeMulRule());
  Result<CompiledS> R = compileRelational(Rules, Demo);
  AddExample("stackm-relational",
             R ? Result<TProgram>(R->Program)
               : Result<TProgram>(R.takeError()));

  // Constant folding as a prioritized rewrite rule.
  SRuleSet Folding = SRuleSet::base();
  Folding.add(makeMulRule());
  Folding.addFront(makeConstFoldRule());
  Result<CompiledS> F = compileRelational(Folding, Demo);
  AddExample("stackm-constfold",
             F ? Result<TProgram>(F->Program)
               : Result<TProgram>(F.takeError()));
  return Out;
}

std::string renderLint(const ProgramLint &L) {
  if (!L.CompileOk)
    return "[" + L.Name + "] codelint: compile failed\n" + L.CompileError +
           "\n";
  std::string Out = "[" + L.Name + "] " + L.R.str();
  return Out;
}

} // namespace codelint
} // namespace relc
