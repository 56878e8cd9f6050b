//===- cert/Cert.cpp - Content keys and rejection vocabulary ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/Cert.h"

#include "bedrock/Ast.h"
#include "codelint/Codelint.h"
#include "support/Hash.h"
#include "sep/State.h"
#include "support/StringExtras.h"

namespace relc {
namespace cert {

using hash::fnv1a64;

ContentKey contentKey(const ir::SourceFn &Model, const EntryFacts &Hints,
                      const sep::FnSpec &Spec, const bedrock::Function &Code) {
  ContentKey Key;

  // Model: canonical rendering + inline-table contents (str() names tables
  // but elides their data, which is semantically load-bearing) + the
  // compile hints, digested by *effect*: hint providers are opaque
  // closures, but all they do is add solver facts, and the fact database
  // renders canonically.
  uint64_t H = fnv1a64("relc-model-v1|");
  H = fnv1a64(Model.str(), H);
  for (const ir::TableDef &T : Model.Tables) {
    H = fnv1a64("|table|" + T.Name + "|" +
                    std::to_string(unsigned(ir::eltSize(T.Elt))) + "|",
                H);
    for (uint64_t E : T.Elements)
      H = fnv1a64(std::to_string(E) + ",", H);
  }
  sep::CompState HintState;
  for (const auto &Provider : Hints)
    Provider(HintState);
  H = fnv1a64("|hints|" + HintState.Facts.str(), H);
  Key.ModelHash = H;

  // Fnspec: the rendering covers the ABI shape; the output lists are
  // appended explicitly so a reordering invisible to str() still misses.
  uint64_t S = fnv1a64("relc-spec-v1|");
  S = fnv1a64(Spec.str(), S);
  S = fnv1a64("|rets|" + join(Spec.ScalarRets, ","), S);
  S = fnv1a64("|inplace|" + join(Spec.InPlaceArrays, ","), S);
  S = fnv1a64("|cells|" + join(Spec.InPlaceCells, ","), S);
  Key.SpecHash = S;

  // Emitted code: the Bedrock2 function's canonical rendering, plus the
  // inline tables' element data (str() prints only their shape).
  uint64_t C = fnv1a64("relc-code-v1|");
  C = fnv1a64(Code.str(), C);
  for (const bedrock::InlineTable &T : Code.Tables) {
    C = fnv1a64("|table|" + T.Name + "|" +
                    std::to_string(unsigned(T.EltSize)) + "|",
                C);
    for (bedrock::Word E : T.Elements)
      C = fnv1a64(std::to_string(E) + ",", C);
  }
  Key.CodeHash = C;
  return Key;
}

CodelintRec codelintRecOf(const codelint::Report &R) {
  CodelintRec L;
  L.Version = codelint::kCodelintVersion;
  L.Mem = codelint::verdictName(R.Mem);
  L.Stack = codelint::verdictName(R.Stack);
  L.Steps = codelint::verdictName(R.Steps);
  L.Accesses = R.Accesses;
  L.LocalsBytes = R.LocalsBytes;
  L.ScratchBytes = R.ScratchBytes;
  L.OperandDepth = R.OperandDepth;
  L.StepBound = R.StepBound;
  return L;
}

const char *rejectName(Reject R) {
  switch (R) {
  case Reject::MissingCertificate:
    return "missing-certificate";
  case Reject::MalformedCertificate:
    return "malformed-certificate";
  case Reject::UnknownSchemaVersion:
    return "unknown-schema-version";
  case Reject::FunctionMismatch:
    return "function-mismatch";
  case Reject::StaleModel:
    return "stale-model";
  case Reject::StaleSpec:
    return "stale-spec";
  case Reject::StaleCode:
    return "stale-code";
  case Reject::VerdictNotProved:
    return "verdict-not-proved";
  case Reject::ProducerMismatch:
    return "producer-mismatch";
  case Reject::ProvedWithReason:
    return "proved-with-reason";
  case Reject::TruncatedTrace:
    return "truncated-trace";
  case Reject::BindingTraceMismatch:
    return "binding-trace-mismatch";
  case Reject::LoopSummaryMismatch:
    return "loop-summary-mismatch";
  case Reject::LoopWitnessMismatch:
    return "loop-witness-mismatch";
  case Reject::OutputMismatch:
    return "output-mismatch";
  case Reject::MissingCodelint:
    return "missing-codelint";
  case Reject::CodelintMismatch:
    return "codelint-mismatch";
  case Reject::RederivationFailed:
    return "rederivation-failed";
  case Reject::TruncatedImage:
    return "truncated-image";
  case Reject::IntegrityMismatch:
    return "integrity-mismatch";
  case Reject::BadMagic:
    return "bad-magic";
  case Reject::OffsetOutOfRange:
    return "offset-out-of-range";
  case Reject::JsonFaceMismatch:
    return "json-face-mismatch";
  }
  return "?";
}

} // namespace cert
} // namespace relc
