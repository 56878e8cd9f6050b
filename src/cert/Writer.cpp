//===- cert/Writer.cpp - Canonical certificate serialization ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/Writer.h"

#include "support/Hash.h"
#include "support/StringExtras.h"
#include "tv/Tv.h"

#include <cstdio>

namespace relc {
namespace cert {

namespace {

/// 0x-prefixed fixed-width hex, the rendering term hashes have used since
/// v1 (content hashes use hash::hex16's bare form instead, matching
/// the cache's file stems).
std::string hex64(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx", (unsigned long long)V);
  return Buf;
}

std::string quoted(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

std::string strList(const std::vector<std::string> &Elems) {
  std::string Out = "[";
  for (size_t I = 0; I < Elems.size(); ++I)
    Out += std::string(I ? ", " : "") + quoted(Elems[I]);
  return Out + "]";
}

/// Local verdict naming: tv::verdictName lives in the driver object
/// (Tv.cpp), which nothing in cert may link against.
const char *verdictStr(tv::Verdict V) {
  switch (V) {
  case tv::Verdict::Proved:
    return "proved";
  case tv::Verdict::Refuted:
    return "refuted";
  case tv::Verdict::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

} // namespace

std::string Writer::write(const Certificate &C) {
  std::string J = "{\n";
  J += "  \"schema_version\": " + std::to_string(C.SchemaVersion) + ",\n";
  J += "  \"producer\": " + quoted(C.Producer) + ",\n";
  J += "  \"function\": " + quoted(C.Function) + ",\n";
  J += "  \"model_hash\": \"" + hash::hex16(C.Key.ModelHash) + "\",\n";
  J += "  \"spec_hash\": \"" + hash::hex16(C.Key.SpecHash) + "\",\n";
  J += "  \"code_hash\": \"" + hash::hex16(C.Key.CodeHash) + "\",\n";
  J += "  \"verdict\": " + quoted(C.Verdict) + ",\n";
  J += "  \"reason\": " + quoted(C.Reason) + ",\n";

  J += "  \"loops\": [";
  for (size_t I = 0; I < C.Loops.size(); ++I) {
    const LoopRec &L = C.Loops[I];
    J += std::string(I ? "," : "") + "\n    {\"ordinal\": " +
         std::to_string(L.Ordinal) + ", \"binding\": " + quoted(L.Binding) +
         ", \"path\": " + quoted(L.Path) + ", \"fold_hash\": \"" +
         hex64(L.FoldHash) + "\", \"carried\": " + std::to_string(L.Carried) +
         ", \"regions\": " + std::to_string(L.Regions) +
         ",\n     \"witness\": {\"locals\": " + strList(L.WitnessLocals) +
         ", \"regions\": " + strList(L.WitnessRegions) +
         ", \"target_path\": " + quoted(L.TargetPath) + "}}";
  }
  J += C.Loops.empty() ? "],\n" : "\n  ],\n";

  J += "  \"bindings\": [";
  for (size_t I = 0; I < C.Bindings.size(); ++I) {
    const BindingRec &B = C.Bindings[I];
    J += std::string(I ? "," : "") + "\n    {\"path\": " + quoted(B.Path) +
         ", \"name\": " + quoted(B.Name) + ", \"hash\": \"" + hex64(B.Hash) +
         "\"}";
  }
  J += C.Bindings.empty() ? "],\n" : "\n  ],\n";

  J += "  \"outputs\": [";
  for (size_t I = 0; I < C.Outputs.size(); ++I) {
    const OutputRec &O = C.Outputs[I];
    J += std::string(I ? "," : "") + "\n    {\"name\": " + quoted(O.Name) +
         ", \"kind\": " + quoted(O.Kind) +
         ", \"matched\": " + (O.Matched ? "true" : "false") +
         ", \"src_hash\": \"" + hex64(O.SrcHash) + "\", \"tgt_hash\": \"" +
         hex64(O.TgtHash) + "\", \"source_binding\": " +
         quoted(O.SourceBinding) + ", \"target_path\": " +
         quoted(O.TargetPath) + "}";
  }
  bool HasCl = C.Codelint.has_value();
  J += C.Outputs.empty() ? (HasCl ? "],\n" : "]\n")
                         : (HasCl ? "\n  ],\n" : "\n  ]\n");

  if (HasCl) {
    const CodelintRec &L = *C.Codelint;
    J += "  \"codelint\": {\"version\": " + std::to_string(L.Version) +
         ", \"mem\": " + quoted(L.Mem) + ", \"stack\": " + quoted(L.Stack) +
         ", \"steps\": " + quoted(L.Steps) +
         ",\n    \"accesses\": " + std::to_string(L.Accesses) +
         ", \"locals_bytes\": " + std::to_string(L.LocalsBytes) +
         ", \"scratch_bytes\": " + std::to_string(L.ScratchBytes) +
         ", \"operand_depth\": " + std::to_string(L.OperandDepth) +
         ", \"step_bound\": " + std::to_string(L.StepBound) + "}\n";
  }
  J += "}\n";
  return J;
}

Certificate fromTvReport(const tv::TvReport &Rep, const ContentKey &Key) {
  Certificate C;
  C.Function = Rep.Fn;
  C.Key = Key;
  C.Verdict = verdictStr(Rep.TheVerdict);
  C.Reason = Rep.Reason;
  for (const tv::LoopRecord &L : Rep.Loops) {
    LoopRec R;
    R.Ordinal = L.Ordinal;
    R.Binding = L.Binding;
    R.Path = L.Path;
    R.FoldHash = L.FoldHash;
    R.Carried = L.Carried;
    R.Regions = L.Regions;
    R.WitnessLocals = L.WitnessLocals;
    R.WitnessRegions = L.WitnessRegions;
    R.TargetPath = L.TargetPath;
    C.Loops.push_back(std::move(R));
  }
  for (const tv::BindingRecord &B : Rep.Bindings)
    C.Bindings.push_back({B.Path, B.Name, B.Hash});
  for (const tv::OutputRecord &O : Rep.Outputs) {
    OutputRec R;
    R.Name = O.Name;
    R.Kind = O.Kind;
    R.SrcHash = O.SrcHash;
    R.TgtHash = O.TgtHash;
    R.Matched = O.Matched;
    R.SourceBinding = O.SourceBinding;
    R.TargetPath = O.TargetPath;
    C.Outputs.push_back(std::move(R));
  }
  return C;
}

} // namespace cert
} // namespace relc
