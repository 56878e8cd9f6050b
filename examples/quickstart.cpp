//===- examples/quickstart.cpp - The upstr walkthrough (§3.2) --------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The paper's §3.2 walkthrough, end to end:
//
//   1. write the annotated functional model of upstr (lowered Gallina:
//      a let/n chain over ListArray.map with the toupper' bit trick),
//   2. declare the ABI (the fnspec: pointer + length, updated in place),
//   3. certify it through the pipeline: the relational compiler — proof
//      search over the rule library — yields a Bedrock2-like function
//      *and* a derivation witness, which five layers then check (witness
//      replay, static analysis, translation validation, codelint, and
//      differential testing against the model),
//   4. pretty-print to C, and run the target semantics on a sample.
//
// Build and run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "cgen/CEmit.h"
#include "ir/Build.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

using namespace relc;
using namespace relc::ir;

int main() {
  // 1. The functional model. The name reuse in `let/n s := map ... s`
  //    tells the compiler to mutate the array in place.
  programs::ProgramDef Def;
  Def.Name = "upstr";
  ExprPtr B = b2w(v("b"));
  ExprPtr Toupper =
      w2b(select(ltu(subw(B, cw('a')), cw(26)), andw(B, cw(0x5f)), B));
  FnBuilder FB("upstr_model", Monad::Pure);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder Body;
  Body.let("s", mkMap("s", "b", Toupper));
  Def.Model = std::move(FB).done(std::move(Body).ret({"s"}));

  std::printf("=== functional model ===\n%s\n", Def.Model.str().c_str());

  // 2. The ABI: how the low-level program is called (§3.2's fnspec).
  Def.Spec = sep::FnSpec("upstr");
  Def.Spec.arrayArg("s").lenArg("len", "s").retInPlace("s");
  std::printf("=== fnspec ===\n%s\n", Def.Spec.str().c_str());

  // 3. Relational compilation and certification, every layer on.
  std::vector<pipeline::ProgramOutcome> Outcomes =
      pipeline::certifyPrograms({&Def}, {});
  const pipeline::ProgramOutcome &O = Outcomes[0];
  if (!O.CompileOk) {
    std::fprintf(stderr, "compilation failed:\n%s\n", O.CompileError.c_str());
    return 1;
  }
  std::printf("=== derived Bedrock2 function ===\n%s\n",
              O.Compiled.Fn.str().c_str());
  std::printf("=== derivation witness (%u rule applications) ===\n%s\n",
              O.Compiled.Proof->size(), O.Compiled.Proof->str().c_str());
  if (!O.ok()) {
    std::fprintf(stderr, "certification failed:\n%s\n",
                 O.ValidationError.c_str());
    return 1;
  }
  std::printf("=== certified: witness replayed, analysis clean, tv %s, "
              "codelint %s, %s differentially tested ===\n\n",
              O.TvVerdictName.c_str(), O.CodelintVerdictName.c_str(),
              Def.Spec.TargetName.c_str());

  // 4. C output.
  Result<std::string> C = cgen::emitFunction(O.Compiled.Fn);
  std::printf("=== pretty-printed C ===\n%s%s\n", cgen::cPrelude().c_str(),
              C ? C->c_str() : C.error().str().c_str());

  // And a run of the target semantics on a sample string.
  const char *Sample = "hello, Rupicola!";
  bedrock::State St;
  std::vector<uint8_t> Bytes(Sample, Sample + 16);
  bedrock::Word Base = St.Mem.alloc(Bytes.size());
  (void)St.Mem.fill(Base, Bytes);
  bedrock::TapeEnv Env;
  bedrock::Interp Interp(O.Linked, Env);
  Result<std::vector<bedrock::Word>> Rets =
      Interp.callFunction(St, "upstr", {Base, Bytes.size()});
  if (!Rets) {
    std::fprintf(stderr, "target run failed: %s\n",
                 Rets.error().str().c_str());
    return 1;
  }
  Result<std::vector<uint8_t>> Out = St.Mem.read(Base, Bytes.size());
  std::printf("=== target semantics ===\n\"%s\" -> \"%.*s\"\n", Sample,
              int(Out->size()), reinterpret_cast<const char *>(Out->data()));
  return 0;
}
