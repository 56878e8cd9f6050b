//===- examples/extension_writer.cpp - The §4.1.1 writer walkthrough -------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// §4.1.1 walks through adding a writer monad "starting from a blank
// file". This example replays that story:
//
//   1. build a compiler that knows everything *except* the writer rule,
//   2. try to compile a writer-monad model — the compiler stops with the
//      printed unsolved goal, whose shape tells you the missing lemma
//      ("users never have to guess ... they can learn the shape of
//      missing lemmas from the goals printed"),
//   3. register the writer rule (one object) and recompile: the model now
//      derives. The pipeline then certifies the model with all five
//      layers; its differential layer checks the writer lift —
//      accumulated output equals the target trace's write events. The
//      pipeline compiles with the standard rules, so the example also
//      checks that they derive the same function and witness as the
//      hand-extended compiler.
//
//===----------------------------------------------------------------------===//

#include "core/rules/Rules.h"
#include "ir/Build.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

using namespace relc;
using namespace relc::ir;

int main() {
  // RELC-SECTION-BEGIN: writer-example
  // A writer-monad model: emit k, 2k and 3k, return their sum.
  FnBuilder FB("emit3_model", Monad::Writer);
  FB.wordParam("k");
  ProgBuilder Body;
  Body.let("_1", mkTell(v("k")))
      .let("d", mulw(v("k"), cw(2)))
      .let("_2", mkTell(v("d")))
      .let("t", mulw(v("k"), cw(3)))
      .let("_3", mkTell(v("t")))
      .let("sum", addw(addw(v("k"), v("d")), v("t")));
  SourceFn Model = std::move(FB).done(std::move(Body).ret({"sum"}));
  sep::FnSpec Spec("emit3");
  Spec.scalarArg("k").retScalar("sum");
  // RELC-SECTION-END: writer-example

  // 1. A compiler with every standard rule *except* compile_writer_tell.
  core::Compiler Partial{core::Compiler::EmptyTag{}};
  Partial.rules().add(core::makeLetRule());
  Partial.rules().add(core::makeArrayPutRule());
  Partial.rules().add(core::makeMapRule());
  Partial.rules().add(core::makeFoldRule());
  Partial.rules().add(core::makeRangeRule());
  Partial.rules().add(core::makeWhileRule());
  Partial.rules().add(core::makeIfRule());
  Partial.rules().add(core::makeStackInitRule());
  Partial.rules().add(core::makeCellGetRule());
  Partial.rules().add(core::makeCellPutRule());
  Partial.rules().add(core::makeIoReadRule());
  Partial.rules().add(core::makeIoWriteRule());

  // 2. Compilation stops at the unsolved goal.
  Result<core::CompileResult> Fail = Partial.compileFn(Model, Spec);
  if (Fail) {
    std::fprintf(stderr, "expected an unsolved goal!\n");
    return 1;
  }
  std::printf("=== before the extension: the printed unsolved goal ===\n"
              "%s\n\n",
              Fail.error().str().c_str());

  // 3. Plug in the writer lemma and rerun.
  Partial.rules().add(core::makeWriterTellRule());
  Result<core::CompileResult> Ok = Partial.compileFn(Model, Spec);
  if (!Ok) {
    std::fprintf(stderr, "still failing:\n%s\n", Ok.error().str().c_str());
    return 1;
  }
  std::printf("=== after registering compile_writer_tell ===\n%s\n",
              Ok->Fn.str().c_str());

  programs::ProgramDef Def;
  Def.Name = "emit3";
  Def.Model = Model;
  Def.Spec = Spec;
  std::vector<pipeline::ProgramOutcome> Out =
      pipeline::certifyPrograms({&Def}, {});
  if (!Out[0].ok()) {
    std::fprintf(stderr, "certification failed:\n%s%s\n",
                 Out[0].CompileError.c_str(), Out[0].ValidationError.c_str());
    return 1;
  }
  if (Out[0].Compiled.Fn.str() != Ok->Fn.str() ||
      Out[0].Compiled.Proof->str() != Ok->Proof->str()) {
    std::fprintf(stderr, "the standard rules derived a different function "
                         "or witness than the extended compiler\n");
    return 1;
  }
  std::printf("certified: accumulated writer output == target write "
              "events, sum == k + 2k + 3k.\n");
  return 0;
}
