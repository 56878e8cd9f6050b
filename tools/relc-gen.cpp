//===- tools/relc-gen.cpp - Generate C for the benchmark suite -------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the pipeline: compiles every registered
// benchmark program with the relational compiler, certifies the results
// (derivation replay, static analysis, translation validation, target-side
// codelint, differential testing — see pipeline/Pipeline.h), and emits the
// certified C into an output directory (consumed by the Figure 2 bench at
// build time). With -print-bedrock or -print-deriv it dumps the
// intermediate artifacts instead.
//
// Since the relcd daemon landed, this tool is a thin presenter over the
// one audited request/response surface (service::certify via
// relc/Certify.h): it assembles a service::Request from its flags, prints
// each ProgramReply's outcome in registration order, and writes the
// artifact files. The certificates it writes are byte-identical to the
// ones relcd serves on the wire — both come out of the same Response.
//
// Certification runs on the job-graph scheduler: -j N executes programs
// and their independent layers concurrently; -j 1 (the default) is the
// serial reference. Output is buffered per program and flushed in
// registration order, so every -j produces byte-identical streams and
// artifacts. Verdicts are reused across runs through the content-
// addressed certificate cache (default $RELC_CACHE_DIR, else
// .relc-cache/; precedence documented in support/ToolFlags.h): a warm
// run skips re-certification for programs whose model, fnspec, and
// emitted code hashes all match a previously certified run. The C itself
// is re-emitted from a fresh compile every time — the cache holds
// verdicts, never code.
//
// Every flag is accepted in both single- and double-dash form.
//
//===----------------------------------------------------------------------===//

#include "relc/Cert.h"
#include "relc/Certify.h"
#include "support/CommandLine.h"
#include "support/Fault.h"
#include "support/ToolFlags.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace relc;

// Exit-code taxonomy (stable; scripts may rely on it — decided in
// service::certify, shared with relc-lint and relcd):
//   0  every program fully certified at full strength
//   1  at least one genuine failure (compile error, refuted or rejected
//      certification, failed differential)
//   2  usage error (bad flag, bad fault spec, unknown -only program,
//      unwritable output dir)
//   3  no genuine failures, but at least one outcome was *degraded* — a
//      budget ran out or an injected fault fired. With --keep-going,
//      programs whose only problems are degraded outcomes land here
//      instead of 1; a program certified with a budget-truncated TV
//      (differential carried it) lands here too.
int main(int argc, char **argv) {
  std::string OutDir = "generated";
  std::string Only;
  std::string CertFormat = "auto";
  bool PrintBedrock = false, PrintDeriv = false, NoValidate = false;
  bool NoAnalyze = false, AnalysisReport = false;
  bool NoTv = false, TvReport = false;
  bool KeepGoing = false;
  unsigned Jobs = 1;
  cl::CacheDirFlags Cache;
  cl::BudgetFlags Budgets;

  // RELC_FAULT_SPEC arms the registry before flags, so --fault (parsed
  // below) can override it wholesale.
  if (Status S = fault::armFromEnv(); !S) {
    std::fprintf(stderr, "relc-gen: RELC_FAULT_SPEC: %s\n",
                 S.error().str().c_str());
    return 2;
  }

  cl::OptionTable T(
      "relc-gen",
      "Compiles the registered benchmark programs, certifies each result\n"
      "(derivation replay, static analysis, translation validation,\n"
      "differential testing), and writes the certified C plus the\n"
      "per-program .tv.json equivalence certificates to the output\n"
      "directory.");
  T.str({"-out"}, &OutDir, "<dir>", "output directory (default: generated)");
  T.str({"-only"}, &Only, "<name>", "process only the named program");
  T.flag({"-print-bedrock"}, &PrintBedrock, "dump the generated Bedrock2 code");
  T.flag({"-print-deriv"}, &PrintDeriv, "dump the derivation witness");
  T.flag({"-no-validate"}, &NoValidate,
         "skip derivation replay and differential\n"
         "certification (layers 1 and 4)");
  T.flag({"-no-analyze"}, &NoAnalyze,
         "skip the standalone static-analysis gate");
  T.flag({"-analysis-report"}, &AnalysisReport,
         "print each program's full analysis report\n"
         "(forces live certification; disables the cache)");
  T.flag({"-no-tv"}, &NoTv,
         "skip the standalone translation-validation\n"
         "gate (and the .tv.json certificates)");
  T.choice({"-cert-format"}, &CertFormat, {"json", "bin", "auto"}, "<fmt>",
           "which certificate artifacts to write:\n"
           "'json' = canonical .tv.json only, 'bin' =\n"
           "binary .certbin only, 'auto' = both\n"
           "(default: auto)");
  T.flag({"-tv-report"}, &TvReport,
         "print each program's full TV match trace\n"
         "(forces live certification; disables the cache)");
  cl::addJobsFlag(T, Jobs, "certification");
  cl::addCacheDirFlags(T, Cache);
  cl::addBudgetFlags(T, Budgets);
  T.flag({"-keep-going"}, &KeepGoing,
         "report programs whose only problems are\n"
         "degraded outcomes (budgets, injected faults)\n"
         "as DEGRADED (exit 3) instead of failures");
  cl::addFaultFlag(T);

  switch (T.parse(argc, argv)) {
  case cl::ParseResult::Ok:
    break;
  case cl::ParseResult::Help:
    return 0;
  case cl::ParseResult::Error:
    return 2;
  }

  bool Validate = !NoValidate, Analyze = !NoAnalyze, Tv = !NoTv;

  std::error_code EC;
  std::filesystem::create_directories(OutDir, EC);
  if (EC) {
    std::fprintf(stderr, "cannot create output directory %s: %s\n",
                 OutDir.c_str(), EC.message().c_str());
    return 2;
  }

  service::Request R;
  if (!Only.empty())
    R.Programs.push_back(Only);
  R.Jobs = Jobs;
  // The full-report flags need the live analysis / TV reports, which a
  // cached verdict cannot reproduce — force live certification.
  if (!AnalysisReport && !TvReport)
    R.CacheDir = cl::resolveCacheDir(Cache);
  R.Validate = Validate;
  // With validation on, analysis and TV always run as layers 2 and 3;
  // -no-analyze / -no-tv only control the standalone gates below.
  R.Analyze = Analyze || Validate;
  R.Tv = Tv || Validate;
  R.LayerTimeoutMs = Budgets.LayerTimeoutMs;
  R.TvStepBudget = Budgets.TvStepBudget;
  R.KeepGoing = KeepGoing;
  R.WantCertJson = CertFormat != "bin";
  R.WantCertBin = CertFormat != "json";
  R.EmitC = true;

  service::Response Resp = service::certify(R);
  if (Resp.Exit == 2) {
    std::fprintf(stderr, "relc-gen: %s\n", Resp.UsageError.c_str());
    return 2;
  }
  if (!Resp.JobsNote.empty())
    std::fprintf(stderr, "relc-gen: %s\n", Resp.JobsNote.c_str());

  bool WriteFailed = false;

  // Cache-store failures are absorbed per program (the verdict stands),
  // but a misconfigured cache directory silently re-certifies everything
  // on every run. Surface the first failure once, as a named warning.
  bool WarnedCacheStore = false;

  for (const service::ProgramReply &PR : Resp.Programs) {
    const pipeline::ProgramOutcome &O = PR.Outcome;
    const programs::ProgramDef &P = *O.Def;

    if (!O.CacheStoreError.empty() && !WarnedCacheStore) {
      std::fprintf(stderr,
                   "relc-gen: warning: cache-dir-unwritable: could not "
                   "persist [%s]'s verdict: %s\n",
                   P.Name.c_str(), O.CacheStoreError.c_str());
      WarnedCacheStore = true;
    }

    // --keep-going: a program whose only problems are degraded outcomes
    // (budget exhaustion, injected faults, scheduler-boundary deaths) is
    // reported as DEGRADED and lands on exit 3, not 1. Nothing genuinely
    // failed certification — but nothing fully certified either, so no C
    // is emitted for it.
    if (PR.Status == service::ProgramStatus::Degraded) {
      std::fprintf(stderr, "[%s] DEGRADED:\n%s\n", P.Name.c_str(),
                   PR.Error.c_str());
      continue;
    }

    if (!O.CompileOk) {
      std::fprintf(stderr, "[%s] FAILED:\n%s\n", P.Name.c_str(),
                   O.CompileError.c_str());
      continue;
    }
    // Layer failures under -validate carry the full note chain the
    // pipeline renders: the layer's diagnostic, the layer, the program.
    if (Validate && !O.ValidationError.empty()) {
      std::fprintf(stderr, "[%s] FAILED:\n%s\n", P.Name.c_str(),
                   O.ValidationError.c_str());
      continue;
    }

    std::printf("[%s] ok: %u source bindings -> %u target statements, "
                "derivation of %u rule applications, %u side conditions%s\n",
                P.Name.c_str(), O.Compiled.SourceBindings,
                O.Compiled.EmittedStmts, O.Compiled.Proof->size(),
                O.Compiled.Proof->countSideConds(),
                Validate ? ", validated" : "");

    if (Analyze) {
      if (AnalysisReport) {
        std::printf("%s", O.AReport.str().c_str());
      } else if (!O.AnalysisDiags.empty()) {
        std::istringstream Diags(O.AnalysisDiags);
        std::string Line;
        while (std::getline(Diags, Line))
          std::fprintf(stderr, "[%s] %s\n", P.Name.c_str(), Line.c_str());
      }
      if (!O.Analysis.Ok) {
        std::fprintf(stderr,
                     "[%s] FAILED: static analysis found %u error(s)\n",
                     P.Name.c_str(), O.AReport.numErrors());
        continue;
      }
    }

    if (Tv) {
      if (TvReport)
        std::printf("%s", O.TvRep.str().c_str());
      else
        std::printf("[%s] tv: %s (%zu loops, %u terms)\n", P.Name.c_str(),
                    O.TvVerdictName.c_str(), size_t(O.TvLoops),
                    unsigned(O.TvTerms));
      if (!O.Tv.Ok) {
        std::fprintf(stderr, "[%s] FAILED: translation validation refuted "
                             "the compilation:\n%s",
                     P.Name.c_str(), O.TvRep.str().c_str());
        continue;
      }
      // Certificate artifacts, per --cert-format: the canonical JSON, the
      // binary image, or (auto) both. Both encode the same Certificate and
      // rederive identically under relc-check — and both are exactly the
      // bytes relcd puts on the wire for this program.
      if (CertFormat != "bin") {
        std::ofstream Cert(OutDir + "/" + P.Name + ".tv.json");
        Cert << PR.CertJson;
      }
      if (CertFormat != "json") {
        std::ofstream Cert(OutDir + "/" + P.Name + cert::kBinExtension,
                           std::ios::binary);
        Cert << PR.CertBin;
      }
    }

    // Target-side codelint verdict: one deterministic line, reproducible
    // from the cache (a warm run replays the stored verdict name).
    if (!O.CodelintVerdictName.empty())
      std::printf("[%s] codelint: %s\n", P.Name.c_str(),
                  O.CodelintVerdictName.c_str());
    if (O.Codelint.Enabled && (O.Codelint.Ran || O.Codelint.FromCache) &&
        !O.Codelint.Ok) {
      // Only reachable with -no-validate (layer 4 otherwise renders the
      // failure into ValidationError, caught above).
      std::fprintf(stderr, "[%s] FAILED:\n%s\n", P.Name.c_str(),
                   O.ValidationError.c_str());
      continue;
    }

    // Certified, but some layer only got a truncated run (e.g. TV hit its
    // step budget and fell through to differential): say so, emit the C
    // anyway — the certification itself is sound — and exit 3.
    if (O.anyDegraded())
      std::fprintf(stderr, "[%s] note: %s; certification was carried by "
                           "the remaining layers\n",
                   P.Name.c_str(), O.firstDegradedNote().c_str());

    if (PrintBedrock)
      std::printf("%s\n", O.Compiled.Fn.str().c_str());
    if (PrintDeriv)
      std::printf("%s\n", O.Compiled.Proof->str().c_str());

    if (PR.CCode.empty()) {
      // service::certify flipped the status to Failed and rendered the
      // emission error ("C emission failed: ...").
      std::fprintf(stderr, "[%s] %s\n", P.Name.c_str(), PR.Error.c_str());
      continue;
    }

    std::string Path = OutDir + "/" + P.Name + ".c";
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "[%s] cannot write %s\n", P.Name.c_str(),
                   Path.c_str());
      WriteFailed = true;
      continue;
    }
    Out << "/* Generated by relc (relational compilation); certified by\n"
           " * derivation replay and differential validation. Do not edit. */\n"
        << PR.CCode;
  }

  std::ofstream H(OutDir + "/relc_generated.h");
  H << "/* Generated by relc; aggregate declarations. */\n"
    << "#ifndef RELC_GENERATED_H\n#define RELC_GENERATED_H\n"
    << "#ifdef __cplusplus\nextern \"C\" {\n#endif\n"
    << Resp.CHeader << "#ifdef __cplusplus\n}\n#endif\n#endif\n";

  return WriteFailed ? 1 : Resp.Exit;
}
