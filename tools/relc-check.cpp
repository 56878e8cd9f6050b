//===- tools/relc-check.cpp - Independent certificate checker --------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The auditor for the certificates relc-gen emits: for each benchmark
// program it recompiles the model, reads the program's certificate from
// the certificate directory, and has cert::Rederive independently
// re-derive every recorded hash — content key, per-binding trace, loop
// summaries (replaying the recorded match witness instead of searching),
// and output channels. A certificate that is missing, malformed, stale,
// tampered with, or simply wrong is rejected with a named reason.
//
// It is the one tool that audits on-disk certificates. -cert-format
// picks the face: 'json' reads <name>.tv.json, 'bin' reads
// <name>.certbin, and 'auto' (the default) reads the binary image when
// one is present — a present-but-invalid image is a rejection, never a
// fallback to the JSON beside it.
//
// Deliberately NOT linked against the TV driver (tv/Tv.cpp): the checker
// must not be able to "ask the producer" — everything it accepts, it
// re-derived itself through the term-graph normalizer. CI asserts the
// absence of driver symbols in this binary with nm.
//
// Exit codes: 0 = every checked certificate accepted; 1 = at least one
// certificate rejected; 2 = usage or infrastructure error (unknown
// program, model fails to compile).
//
//===----------------------------------------------------------------------===//

#include "programs/Programs.h"
#include "relc/Cert.h"
#include "relc/Check.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace relc;

int main(int argc, char **argv) {
  std::string CertsDir = "generated";
  std::string CertFormat = "auto";
  bool Quiet = false;
  std::vector<const programs::ProgramDef *> Targets;
  std::string PosErr;

  cl::OptionTable T(
      "relc-check",
      "Independently re-checks the equivalence certificates relc-gen\n"
      "emitted: recompiles each model, re-derives every certified hash\n"
      "through the term-graph normalizer, and replays the recorded loop\n"
      "witnesses — without the translation-validation driver. Rejects\n"
      "missing, malformed, stale, or tampered certificates with a named\n"
      "reason.\n"
      "\n"
      "Exit codes: 0 all certificates accepted; 1 some certificate\n"
      "rejected; 2 usage or infrastructure error.");
  T.str({"-certs"}, &CertsDir, "<dir>",
        "certificate directory (default: generated)");
  T.choice({"-cert-format"}, &CertFormat, {"json", "bin", "auto"}, "<fmt>",
           "which certificate to check: 'json' =\n"
           "<program>.tv.json, 'bin' = <program>.certbin,\n"
           "'auto' = the binary image when present, else\n"
           "the JSON (a present-but-invalid image is a\n"
           "rejection, never a silent fallback)\n"
           "(default: auto)");
  T.flag({"-q"}, &Quiet, "print only rejections and the final summary");
  T.positional("program", "check only the named programs (default: all)",
               [&Targets](const std::string &A, std::string *Err) {
                 const programs::ProgramDef *P = programs::findProgram(A);
                 if (!P) {
                   *Err = "unknown program '" + A + "'";
                   return false;
                 }
                 Targets.push_back(P);
                 return true;
               });

  switch (T.parse(argc, argv)) {
  case cl::ParseResult::Ok:
    break;
  case cl::ParseResult::Help:
    return 0;
  case cl::ParseResult::Error:
    return 2;
  }

  if (Targets.empty())
    for (const programs::ProgramDef &P : programs::allPrograms())
      Targets.push_back(&P);

  unsigned Rejected = 0;
  for (const programs::ProgramDef *P : Targets) {
    // Recompile the model: the certificate pins the emitted code by
    // content hash, and the re-derivation checks model-vs-code
    // equivalence from scratch.
    core::Compiler C;
    Result<core::CompileResult> R = C.compileFn(P->Model, P->Spec, P->Hints);
    if (!R) {
      std::fprintf(stderr, "[%s] model failed to compile:\n%s\n",
                   P->Name.c_str(), R.takeError().str().c_str());
      return 2;
    }
    core::CompileResult Compiled = R.take();

    // Which face of the certificate to audit. 'auto' prefers the binary
    // image when one exists — and a present-but-invalid image is a named
    // rejection, not a fallback: silently re-reading the JSON would let a
    // tampered image pass unremarked (rejection is never acceptance, and
    // acceptance of a sibling is not acceptance of the image).
    std::string JsonPath = CertsDir + "/" + P->Name + ".tv.json";
    std::string BinPath = CertsDir + "/" + P->Name + cert::kBinExtension;
    bool UseBin = CertFormat == "bin" ||
                  (CertFormat == "auto" &&
                   std::ifstream(BinPath, std::ios::binary).good());
    cert::ReadError RE;
    std::optional<cert::Certificate> Cert =
        UseBin ? cert::BinReader::readFile(BinPath, &RE)
               : cert::Reader::readFile(JsonPath, &RE);
    if (!Cert) {
      std::fprintf(stderr, "[%s] certificate REJECTED: %s: %s\n",
                   P->Name.c_str(), cert::rejectName(RE.Why),
                   RE.Detail.c_str());
      ++Rejected;
      continue;
    }

    cert::CheckResult CR = cert::Rederive::check(
        *Cert, P->Model, P->Hints.EntryFacts, P->Spec, Compiled.Fn);
    if (!CR.Accepted) {
      std::fprintf(stderr, "[%s] certificate REJECTED: %s: %s\n",
                   P->Name.c_str(), cert::rejectName(CR.Why),
                   CR.Detail.c_str());
      ++Rejected;
      continue;
    }
    if (!Quiet)
      std::printf("[%s] certificate accepted: %zu bindings, %zu loops, "
                  "%zu outputs re-derived\n",
                  P->Name.c_str(), Cert->Bindings.size(), Cert->Loops.size(),
                  Cert->Outputs.size());
  }

  if (Rejected) {
    std::fprintf(stderr, "relc-check: %u certificate(s) rejected\n", Rejected);
    return 1;
  }
  if (!Quiet)
    std::printf("relc-check: %zu certificate(s) accepted\n", Targets.size());
  return 0;
}
