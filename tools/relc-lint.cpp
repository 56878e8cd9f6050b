//===- tools/relc-lint.cpp - Standalone static analyzer driver -------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Runs the static layers of the certification pipeline as a strict gate:
// compiles the named benchmark programs (or all of them) through the one
// audited service surface (service::certify via relc/Certify.h), feeds
// the generated Bedrock2 code to the relc::analysis verifier, and runs
// the relc::tv translation validator. Prints the full report for each
// program and exits nonzero if *any* diagnostic — error or warning — was
// produced, or if any program fails to come out *Proved* equivalent to
// its model (for the curated suite, Inconclusive is also a regression:
// every suite program lies inside the validated fragment). Registered
// over every benchmark program as ctest cases, so a rule change that
// makes the generated code sloppy (dead stores, unprovable bounds) or
// semantically drifts it from the model fails the test suite even when
// the sampled differential vectors happen to pass.
//
// The other gates have one tool each: relc-codelint (the emitted code's
// Safe verdicts), relc-rulint (the rule database) and relc-check (the
// on-disk certificates).
//
// -j N runs programs (and their analysis/TV layers) concurrently on the
// job-graph scheduler; reports are buffered per program and printed in
// argument order, so every -j produces byte-identical output. The lint
// gate always certifies live (never the certificate cache): its job is
// producing fresh full reports. Flags accept both - and -- forms.
//
// The final summary line names every enabled gate
// ("relc-lint: gates [analysis+tv]: ...") so logs show at a glance what
// a clean run actually checked.
//
// Usage: relc-lint [-q] [-no-tv] [-j <n>] [<program>...]
//
//===----------------------------------------------------------------------===//

#include "programs/Programs.h"
#include "relc/Certify.h"
#include "support/CommandLine.h"
#include "support/ToolFlags.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace relc;

int main(int argc, char **argv) {
  bool Quiet = false, NoTv = false;
  unsigned Jobs = 1;
  std::vector<std::string> Names;

  cl::OptionTable T(
      "relc-lint",
      "Strict static gate over the benchmark suite: every linted program\n"
      "must compile, come out of the static analyzer with zero\n"
      "diagnostics, and be proved equivalent to its model by the\n"
      "translation validator. With no program arguments, lints every\n"
      "registered program.");
  T.flag({"-q"}, &Quiet, "print reports only for programs with findings");
  T.flag({"-no-tv"}, &NoTv, "skip the translation-validation gate");
  cl::addJobsFlag(T, Jobs, "lint");
  T.positional("program", "lint only the named programs (default: all)",
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
  bool Tv = !NoTv;

  service::Request Req;
  Req.Programs = Names; // empty = the whole registered suite
  Req.Jobs = Jobs;
  Req.Validate = false; // Compile only; validation is the other layers' job.
  Req.Analyze = true;
  Req.Tv = Tv;
  Req.Codelint = false; // relc-codelint is the emitted-code gate.
  // No cache (Req.CacheDir stays ""): the gate's job is fresh full
  // reports.

  service::Response Resp = service::certify(Req);
  if (Resp.Exit == 2) {
    std::fprintf(stderr, "relc-lint: %s\n", Resp.UsageError.c_str());
    return 2;
  }
  if (!Resp.JobsNote.empty())
    std::fprintf(stderr, "relc-lint: %s\n", Resp.JobsNote.c_str());

  unsigned TotalDiags = 0;

  for (const service::ProgramReply &PR : Resp.Programs) {
    const pipeline::ProgramOutcome &O = PR.Outcome;
    if (!O.CompileOk) {
      std::fprintf(stderr, "[%s] compilation failed:\n%s\n",
                   O.Def->Name.c_str(), O.CompileError.c_str());
      return 2;
    }
    if (!Quiet || !O.AReport.Diags.empty())
      std::printf("%s", O.AReport.str().c_str());
    TotalDiags += unsigned(O.AReport.Diags.size());

    if (Tv) {
      if (!Quiet || !O.TvRep.proved())
        std::printf("%s", O.TvRep.str().c_str());
      if (!O.TvRep.proved()) // Strict gate: the suite must prove, not just
        ++TotalDiags;        // fail-to-refute.
    }
  }

  // The summary line names every enabled gate so a clean log still shows
  // what was actually checked (and ctest pins the format).
  std::string Gates = Tv ? "analysis+tv" : "analysis";
  if (TotalDiags) {
    std::fprintf(stderr, "relc-lint: gates [%s]: %u diagnostic(s)\n",
                 Gates.c_str(), TotalDiags);
    return 1;
  }
  std::printf("relc-lint: gates [%s]: clean\n", Gates.c_str());
  return 0;
}
