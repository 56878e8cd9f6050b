//===- codelint/Driver.cpp - Codelint over the stackm examples ------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "codelint/Driver.h"

#include <algorithm>

namespace relc {
namespace codelint {

Report analyzeStackProgram(const stackm::TProgram &P) {
  Report R;
  R.Fn = "stackm";
  R.Mem = Verdict::Safe; // No memory in language T.
  uint64_t Depth = 0, MaxDepth = 0;
  bool Underflow = false;
  for (size_t I = 0; I < P.size(); ++I) {
    const stackm::TOp &Op = P[I];
    if (Op.TheKind == stackm::TOp::Kind::Push) {
      ++Depth;
      MaxDepth = std::max(MaxDepth, Depth);
    } else if (Depth >= 2) {
      --Depth;
    } else {
      // The interpreter's total semantics make this a no-op, but no
      // well-formed compilation of an expression ever emits it.
      Underflow = true;
      R.Findings.push_back({"stack-underflow", "op#" + std::to_string(I),
                            Op.str() + " with operand depth " +
                                std::to_string(Depth)});
    }
  }
  R.OperandDepth = MaxDepth;
  R.Stack = Underflow ? Verdict::Unsafe : Verdict::Safe;
  R.Steps = Verdict::Safe;
  R.StepBound = P.size(); // One step per op, exactly.
  return R;
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
