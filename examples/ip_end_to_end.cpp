//===- examples/ip_end_to_end.cpp - §4.1.3's end-to-end pipeline -----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The paper's end-to-end story (§4.1.3, detailed for the IP checksum in
// the dissertation): start from an abstract specification, verify the
// annotated functional model against it, then derive and certify the
// low-level code. Here the abstract spec is an executable reference of
// RFC 1071 (the "add 16-bit words with end-around carry" definition), the
// model-vs-spec step is an exhaustive-and-randomized check, and the rest
// is the standard relc pipeline, finishing with the generated C.
//
//===----------------------------------------------------------------------===//

#include "cgen/CEmit.h"
#include "ir/Interp.h"
#include "pipeline/Pipeline.h"
#include "support/Rng.h"

#include <cstdio>

using namespace relc;

namespace {

/// The abstract specification: RFC 1071's reference algorithm, written
/// with no performance or layout concerns.
uint16_t specChecksum(const std::vector<uint8_t> &Data) {
  uint64_t Sum = 0;
  for (size_t I = 0; I + 1 < Data.size(); I += 2)
    Sum += (uint64_t(Data[I]) << 8) | Data[I + 1];
  if (Data.size() % 2)
    Sum += uint64_t(Data.back()) << 8;
  while (Sum >> 16)
    Sum = (Sum & 0xffff) + (Sum >> 16);
  return uint16_t(~Sum);
}

} // namespace

int main() {
  const programs::ProgramDef *P = programs::findProgram("ip");
  if (!P)
    return 1;

  // Step 1: the functional model is proven against the abstract spec —
  // here, checked on exhaustive small inputs plus random large ones.
  Rng R(2024);
  unsigned Checked = 0;
  for (size_t Len = 0; Len <= 64; ++Len) {
    for (unsigned Rep = 0; Rep < 4; ++Rep, ++Checked) {
      std::vector<uint8_t> Data = R.bytes(Len);
      ir::EffectCtx Ctx;
      Result<std::vector<ir::Value>> Out = ir::evalFn(
          P->Model,
          {ir::Value::byteList(Data), ir::Value::word(Data.size())}, Ctx);
      if (!Out || (*Out)[0].asWord() != specChecksum(Data)) {
        std::fprintf(stderr, "model disagrees with the RFC 1071 spec!\n");
        return 1;
      }
    }
  }
  for (unsigned Rep = 0; Rep < 50; ++Rep, ++Checked) {
    std::vector<uint8_t> Data = R.bytes(1 + R.below(5000));
    ir::EffectCtx Ctx;
    Result<std::vector<ir::Value>> Out = ir::evalFn(
        P->Model, {ir::Value::byteList(Data), ir::Value::word(Data.size())},
        Ctx);
    if (!Out || (*Out)[0].asWord() != specChecksum(Data)) {
      std::fprintf(stderr, "model disagrees with the RFC 1071 spec!\n");
      return 1;
    }
  }
  std::printf("step 1: functional model == RFC 1071 spec on %u vectors\n",
              Checked);

  // Step 2+3: relational compilation and certification.
  std::vector<pipeline::ProgramOutcome> Out =
      pipeline::certifyPrograms({P}, {});
  const pipeline::ProgramOutcome &C = Out[0];
  if (!C.ok()) {
    std::fprintf(stderr, "pipeline failed:\n%s%s\n", C.CompileError.c_str(),
                 C.ValidationError.c_str());
    return 1;
  }
  std::printf("step 2: derived \"%s\" (%u statements, derivation of %u "
              "rule applications)\n",
              P->Spec.TargetName.c_str(), C.Compiled.EmittedStmts,
              C.Compiled.Proof->size());
  std::printf("step 3: witness replayed, analyzed, translation-validated "
              "(%s), codelinted (%s), and differentially tested\n\n",
              C.TvVerdictName.c_str(), C.CodelintVerdictName.c_str());

  // Step 4: the generated C (what ships).
  Result<std::string> Code = cgen::emitFunction(C.Compiled.Fn);
  std::printf("%s%s", cgen::cPrelude().c_str(),
              Code ? Code->c_str() : Code.error().str().c_str());
  return 0;
}
