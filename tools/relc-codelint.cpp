//===- tools/relc-codelint.cpp - Target-side code analyzer ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The one command-line gate of relc::codelint (DESIGN.md §4.9): abstract
// interpretation over the *emitted* target code. Where relc-lint's
// analysis gate inspects the source model and relc-check audits the
// derivation certificate, this tool asks a question neither answers —
// is the Bedrock2 (or stackm) program the compiler actually produced
// memory-safe and resource-bounded on its own terms?
//
// Three analyses, each with a three-valued verdict (safe / unknown /
// unsafe):
//
//   mem    every load/store provably lands inside a region the fnspec
//          frame owns (the symbolic replay shared with the static
//          analyzer, offsets proved by the linear-arithmetic solver)
//   stack  a static worst-case locals + stackalloc footprint (and, for
//          stackm programs, the exact max operand-stack depth)
//   steps  a symbolic step envelope: per-iteration cost times a proved
//          loop trip-count bound, dominating interpreter fuel
//
// The analyzer can only *refuse* (unknown), never wrongly accept: every
// failed proof under an exhausted budget degrades to unknown, and every
// unsafe verdict carries a stable kebab-case finding reason CI matches
// on (oob-load, oob-store, oob-table, unknown-address, expired-region,
// frame-escape, unbounded-stack, unknown-callee, stack-underflow,
// unknown-step-bound, analysis-incomplete).
//
// Exit-code taxonomy (stable; scripts may rely on it):
//   0  every analyzed program has overall verdict safe
//   1  at least one unknown or unsafe verdict (findings on stderr)
//   2  usage or infrastructure error (unknown program, compile failure)
//
//===----------------------------------------------------------------------===//

#include "codelint/Driver.h"
#include "programs/Programs.h"
#include "relc/Certify.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace relc;

int main(int argc, char **argv) {
  bool Quiet = false, NoStackm = false;
  std::vector<std::string> Names;

  cl::OptionTable T(
      "relc-codelint",
      "Target-side abstract interpretation over the emitted code: proves\n"
      "memory safety (every access inside an owned region), a static\n"
      "stack/locals bound, and a symbolic step envelope for each\n"
      "benchmark program's Bedrock2 output and the Sec. 2 stack-machine\n"
      "examples. With no program arguments, analyzes the whole suite.");
  T.flag({"-q"}, &Quiet, "print findings only, no per-program reports");
  T.flag({"-no-stackm"}, &NoStackm,
         "skip the stack-machine examples; analyze only\n"
         "the named (or all) Bedrock2 suite programs");
  T.positional("program",
               "analyze only the named suite programs (default: all)",
               [&Names](const std::string &A, std::string *Err) {
                 if (!programs::findProgram(A)) {
                   *Err = "unknown program '" + A + "'";
                   return false;
                 }
                 Names.push_back(A);
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

  // The suite programs go through the certification pipeline with only
  // the codelint layer on.
  service::Request Req;
  Req.Programs = Names; // empty = the whole registered suite
  Req.Validate = false;
  Req.Analyze = false;
  Req.Tv = false;
  Req.Codelint = true;
  service::Response Resp = service::certify(Req);
  if (Resp.Exit == 2) {
    std::fprintf(stderr, "relc-codelint: %s\n", Resp.UsageError.c_str());
    return 2;
  }

  std::vector<codelint::ProgramLint> Lints;
  for (service::ProgramReply &PR : Resp.Programs) {
    pipeline::ProgramOutcome &O = PR.Outcome;
    Lints.push_back({O.Def->Name, O.CompileOk, O.CompileError,
                     std::move(O.ClReport)});
  }
  if (Names.empty() && !NoStackm)
    for (codelint::ProgramLint &L : codelint::lintStackExamples())
      Lints.push_back(std::move(L));

  unsigned NotSafe = 0;
  for (const codelint::ProgramLint &L : Lints) {
    if (!L.CompileOk) {
      std::fprintf(stderr, "%s", codelint::renderLint(L).c_str());
      return 2;
    }
    bool Safe = L.R.overall() == codelint::Verdict::Safe;
    if (!Safe)
      ++NotSafe;
    if (!Quiet || !Safe)
      std::printf("%s", codelint::renderLint(L).c_str());
    for (const codelint::Finding &F : L.R.Findings)
      std::fprintf(stderr, "[%s] %s\n", L.Name.c_str(), F.str().c_str());
  }

  if (NotSafe) {
    std::fprintf(stderr, "relc-codelint: %u program(s) not proved safe\n",
                 NotSafe);
    return 1;
  }
  if (!Quiet)
    std::printf("codelint: %zu program(s) proved safe\n", Lints.size());
  return 0;
}
