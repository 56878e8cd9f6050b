//===- tools/relc-check.cpp - Independent certificate checker --------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The auditor for the certificates relc-gen emits: for each benchmark
// program it recompiles the model, decodes the program's binary image
// (<name>.certbin), and has cert::Rederive independently re-derive every
// recorded hash — content key, per-binding trace, loop summaries
// (replaying the recorded match witness instead of searching), output
// channels, codelint section. The image is its one input: a <name>.tv.json
// beside it must be the accepted image's canonical rendering, byte for
// byte, so no JSON parser is linked. A certificate that is missing,
// malformed, stale, tampered with, or simply wrong is rejected with a
// named reason.
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
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace relc;

/// The JSON face at \p Path, when present, must be the accepted \p Cert's
/// canonical rendering. Sizes are compared first, so an oversized file is
/// refused unread.
static cert::CheckResult checkJsonFace(const cert::Certificate &Cert,
                                       const std::string &Path) {
  namespace fs = std::filesystem;
  std::error_code EC;
  if (fs::status(Path, EC).type() == fs::file_type::not_found)
    return cert::CheckResult::accept();
  std::string Want = cert::Writer::write(Cert), Got(Want.size(), '\0');
  if (fs::file_size(Path, EC) == Want.size()) {
    std::ifstream In(Path, std::ios::binary);
    if (In.read(Got.data(), std::streamsize(Got.size())) && Got == Want)
      return cert::CheckResult::accept();
  }
  return cert::CheckResult::reject(
      cert::Reject::JsonFaceMismatch,
      "'" + Path + "' is not the accepted image's canonical rendering");
}

int main(int argc, char **argv) {
  std::string CertsDir = "generated";
  bool Quiet = false;
  std::vector<const programs::ProgramDef *> Targets;

  cl::OptionTable T(
      "relc-check",
      "Independently re-checks the equivalence certificates relc-gen\n"
      "emitted: decodes each program's binary image (<program>.certbin),\n"
      "recompiles its model, re-derives every certified hash through the\n"
      "term-graph normalizer, and replays the recorded loop witnesses —\n"
      "without the translation-validation driver. A <program>.tv.json\n"
      "beside the image must be its canonical rendering, byte for byte.\n"
      "Rejects missing, malformed, stale, or tampered certificates with a\n"
      "named reason.\n"
      "\n"
      "Exit codes: 0 all certificates accepted; 1 some certificate\n"
      "rejected; 2 usage or infrastructure error.");
  T.str({"-certs"}, &CertsDir, "<dir>",
        "certificate directory (default: generated)");
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

    std::string Stem = CertsDir + "/" + P->Name;
    cert::ReadError RE;
    std::optional<cert::Certificate> Cert =
        cert::BinReader::readFile(Stem + cert::kBinExtension, &RE);
    cert::CheckResult CR =
        Cert ? cert::Rederive::check(*Cert, P->Model, P->Hints.EntryFacts,
                                     P->Spec, Compiled.Fn)
             : cert::CheckResult::reject(RE.Why, RE.Detail);
    if (CR.Accepted)
      CR = checkJsonFace(*Cert, Stem + ".tv.json");
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
