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
// certified C plus both faces of each program's equivalence certificate
// (<name>.tv.json and <name>.certbin) into an output directory (consumed
// by the Figure 2 bench at build time). Every run certifies through all
// five layers; there is no flag that skips one, so the "certified" header
// of every emitted .c file is true of the run that wrote it. The full
// analysis and TV reports are relc-lint's output; -print-bedrock and
// -print-deriv also dump the intermediate artifacts.
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
  bool PrintBedrock = false, PrintDeriv = false;
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
      "codelint, differential testing), and writes the certified C plus\n"
      "the per-program .tv.json and .certbin equivalence certificates to\n"
      "the output directory.");
  T.str({"-out"}, &OutDir, "<dir>", "output directory (default: generated)");
  T.str({"-only"}, &Only, "<name>", "process only the named program");
  T.flag({"-print-bedrock"}, &PrintBedrock, "dump the generated Bedrock2 code");
  T.flag({"-print-deriv"}, &PrintDeriv, "dump the derivation witness");
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
  R.CacheDir = cl::resolveCacheDir(Cache);
  R.LayerTimeoutMs = Budgets.LayerTimeoutMs;
  R.TvStepBudget = Budgets.TvStepBudget;
  R.KeepGoing = KeepGoing;
  R.EmitC = true;

  service::Response Resp = service::certify(R);
  if (Resp.Exit == 2) {
    std::fprintf(stderr, "relc-gen: %s\n", Resp.UsageError.c_str());
    return 2;
  }
  if (!Resp.JobsNote.empty())
    std::fprintf(stderr, "relc-gen: %s\n", Resp.JobsNote.c_str());

  // Every artifact write is checked: a certificate, C file or header that
  // is not on disk is named and turns the exit into 1.
  bool WriteFailed = false;
  auto WriteArtifact = [&](const std::string &Who, const std::string &Path,
                           const std::string &Bytes) {
    std::ofstream Out(Path, std::ios::binary);
    Out << Bytes;
    if (Out.flush())
      return;
    std::fprintf(stderr, "%s cannot write %s\n", Who.c_str(), Path.c_str());
    WriteFailed = true;
  };

  // Cache-store failures are absorbed per program (the verdict stands),
  // but a misconfigured cache directory silently re-certifies everything
  // on every run. Surface the first failure once, as a named warning.
  bool WarnedCacheStore = false;

  for (const service::ProgramReply &PR : Resp.Programs) {
    const pipeline::ProgramOutcome &O = PR.Outcome;
    const programs::ProgramDef &P = *O.Def;
    const std::string Who = "[" + P.Name + "]";

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
    // Layer failures carry the full note chain the pipeline renders: the
    // layer's diagnostic, the layer, the program.
    if (!O.ValidationError.empty()) {
      std::fprintf(stderr, "[%s] FAILED:\n%s\n", P.Name.c_str(),
                   O.ValidationError.c_str());
      continue;
    }

    std::printf("[%s] ok: %u source bindings -> %u target statements, "
                "derivation of %u rule applications, %u side conditions, "
                "validated\n",
                P.Name.c_str(), O.Compiled.SourceBindings,
                O.Compiled.EmittedStmts, O.Compiled.Proof->size(),
                O.Compiled.Proof->countSideConds());

    if (!O.AnalysisDiags.empty()) {
      std::istringstream Diags(O.AnalysisDiags);
      std::string Line;
      while (std::getline(Diags, Line))
        std::fprintf(stderr, "[%s] %s\n", P.Name.c_str(), Line.c_str());
    }

    std::printf("[%s] tv: %s (%zu loops, %u terms)\n", P.Name.c_str(),
                O.TvVerdictName.c_str(), size_t(O.TvLoops),
                unsigned(O.TvTerms));
    // Both certificate faces: they encode the same Certificate and
    // rederive identically under relc-check — and both are exactly the
    // bytes relcd puts on the wire for this program.
    WriteArtifact(Who, OutDir + "/" + P.Name + ".tv.json", PR.CertJson);
    WriteArtifact(Who, OutDir + "/" + P.Name + cert::kBinExtension,
                  PR.CertBin);

    // Target-side codelint verdict: one deterministic line, reproducible
    // from the cache (a warm run replays the stored verdict name).
    if (!O.CodelintVerdictName.empty())
      std::printf("[%s] codelint: %s\n", P.Name.c_str(),
                  O.CodelintVerdictName.c_str());

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

    WriteArtifact(
        Who, OutDir + "/" + P.Name + ".c",
        "/* Generated by relc (relational compilation); certified by\n"
        " * derivation replay and differential validation. Do not edit. */\n" +
            PR.CCode);
  }

  WriteArtifact("relc-gen:", OutDir + "/relc_generated.h",
                "/* Generated by relc; aggregate declarations. */\n"
                "#ifndef RELC_GENERATED_H\n#define RELC_GENERATED_H\n"
                "#ifdef __cplusplus\nextern \"C\" {\n#endif\n" +
                    Resp.CHeader +
                    "#ifdef __cplusplus\n}\n#endif\n#endif\n");

  return WriteFailed ? 1 : Resp.Exit;
}
