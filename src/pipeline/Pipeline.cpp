//===- pipeline/Pipeline.cpp - Parallel, incremental certification ---------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "cert/Binary.h"
#include "cert/Writer.h"
#include "pipeline/Scheduler.h"
#include "sep/State.h"
#include "support/Budget.h"
#include "support/Fault.h"
#include "support/Hash.h"
#include "support/StringExtras.h"
#include "validate/Validate.h"

namespace relc {
namespace pipeline {

using hash::fnv1a64;
using hash::hex16;

bool ProgramOutcome::ok() const {
  if (!CompileOk)
    return false;
  for (const LayerRun *L : {&Replay, &Analysis, &Tv, &Codelint, &Diff})
    if (L->Enabled && !((L->Ran || L->FromCache) && L->Ok))
      return false;
  return true;
}

bool ProgramOutcome::anyDegraded() const {
  if (CompileDegraded || !DegradedNote.empty())
    return true;
  for (const LayerRun *L : {&Replay, &Analysis, &Tv, &Codelint, &Diff})
    if (L->Degraded)
      return true;
  return false;
}

bool ProgramOutcome::failureIsDegradedOnly() const {
  if (!CompileOk && !CompileDegraded)
    return false; // A genuine compile failure.
  bool Any = CompileDegraded || !DegradedNote.empty();
  for (const LayerRun *L : {&Replay, &Analysis, &Tv, &Codelint, &Diff}) {
    if (!L->Enabled)
      continue;
    if (L->Degraded) {
      Any = true;
      continue;
    }
    if ((L->Ran || L->FromCache) && L->Ok)
      continue; // Genuinely passed.
    if (!L->Ran && !L->FromCache)
      continue; // Never got a chance: some upstream problem owns this.
    return false; // Ran to a genuine failing verdict.
  }
  return Any;
}

std::string ProgramOutcome::firstDegradedNote() const {
  if (CompileDegraded)
    return CompileError;
  struct Probe {
    const LayerRun *L;
    const char *What;
  };
  for (const Probe &P :
       {Probe{&Replay, "derivation replay"}, Probe{&Analysis, "static analysis"},
        Probe{&Tv, "translation validation"}, Probe{&Codelint, "codelint"},
        Probe{&Diff, "differential certification"}}) {
    if (!P.L->Degraded)
      continue;
    if (!P.L->FaultNote.empty())
      return P.L->FaultNote;
    return std::string(P.What) + " exhausted its budget";
  }
  return DegradedNote;
}

CertKey certKeyFor(const ir::SourceFn &Model, const core::CompileHints &Hints,
                   const sep::FnSpec &Spec, const bedrock::Function &Code) {
  // The content hashing itself lives in cert::contentKey, so the cache,
  // the certificate writer, and the independent checker (relc-check) all
  // agree on what "the same program" means.
  cert::ContentKey K = cert::contentKey(Model, Hints.EntryFacts, Spec, Code);
  return CertKey{K.ModelHash, K.SpecHash, K.CodeHash};
}

uint64_t optionsHashFor(const validate::ValidationOptions &VOpts,
                        const PipelineOptions &Opts,
                        uint64_t RegistryFingerprint) {
  uint64_t H = fnv1a64("relc-opts-v1|");
  H = fnv1a64("vectors=" + std::to_string(VOpts.VectorsPerSize) + "|", H);
  for (size_t Sz : VOpts.Sizes)
    H = fnv1a64(std::to_string(Sz) + ",", H);
  H = fnv1a64("|seed=" + hex16(VOpts.Seed), H);
  // Custom generators / predicates are opaque closures; their *presence*
  // is keyed (and the model/spec hashes pin the program they belong to).
  // Editing a generator's body without touching the model is the one
  // invalidation the key cannot see — documented in DESIGN.md §4.5.
  H = fnv1a64(VOpts.MakeInputs ? "|gen=custom" : "|gen=default", H);
  H = fnv1a64(VOpts.NondetEnsures ? "|ens=custom" : "|ens=none", H);
  H = fnv1a64(std::string("|callees=") +
                  std::to_string(VOpts.CalleeModels.size()),
              H);
  // Which layers the verdict covers: an entry certified without TV must
  // not satisfy a run that wants TV, and vice versa.
  H = fnv1a64(std::string("|layers=") + (Opts.Validate ? "V" : "-") +
                  (Opts.Analyze ? "A" : "-") + (Opts.Tv ? "T" : "-") +
                  (Opts.Codelint ? "C" : "-"),
              H);
  // Certificate schema version: cached entries embed the serialized
  // certificate, so a schema change must miss (an old entry would replay
  // a v1 payload byte-for-byte and break warm/cold byte identity).
  H = fnv1a64("|certv=" + std::to_string(cert::kSchemaVersion), H);
  // Codelint analyzer version: its record is embedded both in the cache
  // entry and the certificate's codelint section, so an analyzer upgrade
  // (new cost model, new domains) must invalidate cached verdicts — an old
  // section would fail relc-check's re-derivation.
  H = fnv1a64("|codelintv=" + std::to_string(codelint::kCodelintVersion), H);
  // Budget options participate too: degraded outcomes are never cached,
  // but a verdict certified under one budget regime must not silently
  // satisfy a run under another (KeepGoing is classification-only and
  // deliberately absent).
  H = fnv1a64("|timeout=" + std::to_string(VOpts.LayerTimeoutMs) +
                  "|tvsteps=" + std::to_string(VOpts.TvStepBudget) +
                  "|fuel=" + std::to_string(VOpts.InterpFuel),
              H);
  // The rule registry is part of the verdict's identity: a cached verdict
  // certifies what THIS compiler produced, so editing, reordering, adding,
  // or removing a compilation rule must miss every cached entry even when
  // model/spec/code hashes happen to collide across registries.
  H = fnv1a64("|rules=" + hex16(RegistryFingerprint), H);
  return H;
}

namespace {

/// True iff \p E records a successful verdict for every layer \p Opts
/// enables. Entries are only stored for full successes, so a false here
/// means a corrupt-but-integral entry; treat as a miss defensively.
bool entryCovers(const CertEntry &E, const PipelineOptions &Opts) {
  if (Opts.Validate && !(E.ReplayOk && E.DifferentialOk))
    return false;
  if (Opts.Analyze && !E.AnalysisOk)
    return false;
  if (Opts.Tv && !E.TvRan)
    return false;
  if (Opts.Codelint && !E.CodelintRan)
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Failure texts. Every rejection a program can get is rendered here, in
// the one sequencer; tests pin the exact texts (PipelineTest).
//===----------------------------------------------------------------------===//

/// The static-analysis rejection: a summary line, then every diagnostic.
Error analysisRejection(const std::string &TargetName,
                        const analysis::AnalysisReport &Report) {
  Error E("static analysis of target '" + TargetName + "' found " +
          std::to_string(Report.numErrors()) + " error(s) and " +
          std::to_string(Report.numWarnings()) + " warning(s)");
  for (const analysis::Diagnostic &D : Report.Diags)
    E.note(D.str());
  return E;
}

/// The translation-validation rejection: the refutation, then every
/// output that did not match, with its source binding and target path.
Error tvRejection(const tv::TvReport &Rep) {
  Error E("translation validation refuted '" + Rep.Fn + "': " + Rep.Reason);
  for (const tv::OutputRecord &O : Rep.Outputs)
    if (!O.Matched)
      E.note("output '" + O.Name + "' [" + O.Kind + "]: model " + O.SrcTerm +
             (O.SourceBinding.empty() ? "" : " (" + O.SourceBinding + ")") +
             " vs target " + O.TgtTerm +
             (O.TargetPath.empty() ? "" : " (at " + O.TargetPath + ")"));
  return E;
}

/// The codelint rejection: the overall verdict plus the first finding
/// (each finding carries its stable kebab-case reason).
Error codelintRejection(const codelint::Report &R) {
  std::string Why =
      "codelint verdict " + std::string(codelint::verdictName(R.overall()));
  if (!R.Findings.empty())
    Why += ": " + R.Findings.front().str();
  return Error(Why).note("codelint rejected the emitted code");
}

/// A layer that did not run renders the fault that stopped it.
Error didNotRun(const LayerRun &L, const std::string &What) {
  return Error(L.FaultNote).note(What + " did not run");
}

/// The layer-entry fault probe. Transient hits are absorbed by the retry
/// allowance; a persistent one makes \p L a named Degraded outcome
/// (never a hang, never a poisoned sibling) and returns true: the layer
/// must not run.
bool faultedAtEntry(LayerRun &L, fault::Site Site, const std::string &Key) {
  std::optional<fault::Hit> H = fault::fireWithRetry(Site, Key);
  if (!H)
    return false;
  L.Ran = true;
  L.Ok = false;
  L.Degraded = true;
  L.FaultNote = H->describe();
  return true;
}

/// Records \p E as \p O's failure unless an earlier layer already did.
void recordFailure(ProgramOutcome &O, Error E) {
  if (O.ValidationError.empty())
    O.ValidationError =
        E.note("while validating program " + O.Def->Name).str();
}

/// The first failed static layer's failure, in the fixed analysis -> tv
/// -> codelint order, or nullopt when none failed. The differential job
/// renders it with \p Validating set: analysis and tv rejections then
/// name their layer in a note. The certify job renders it when layer 4 is
/// off, without that note.
std::optional<Error> staticFailure(const ProgramOutcome &O, bool Validating) {
  auto Failed = [](const LayerRun &L) { return L.Enabled && L.Ran && !L.Ok; };
  if (Failed(O.Analysis)) {
    if (!O.Analysis.FaultNote.empty())
      return didNotRun(O.Analysis, "static analysis");
    Error E = analysisRejection(O.Compiled.Fn.Name, O.AReport);
    return Validating ? E.note("static analysis rejected the target") : E;
  }
  if (Failed(O.Tv)) {
    if (!O.Tv.FaultNote.empty())
      return didNotRun(O.Tv, "translation validation");
    Error E = tvRejection(O.TvRep);
    return Validating ? E.note("translation validation rejected the target")
                      : E;
  }
  if (Failed(O.Codelint)) {
    if (!O.Codelint.FaultNote.empty())
      return didNotRun(O.Codelint, "codelint");
    return codelintRejection(O.ClReport);
  }
  return std::nullopt;
}

/// Fills \p O's layer fields from a cached verdict.
void applyCached(ProgramOutcome &O, const CertEntry &E) {
  auto FromCache = [](LayerRun &L) {
    if (L.Enabled) {
      L.FromCache = true;
      L.Ok = true;
    }
  };
  FromCache(O.Replay);
  FromCache(O.Analysis);
  FromCache(O.Tv);
  FromCache(O.Codelint);
  FromCache(O.Diff);
  O.AnalysisWarnings = E.AnalysisWarnings;
  O.AnalysisDiags = E.AnalysisDiags;
  O.TvVerdictName = E.TvVerdict;
  O.TvLoops = E.TvLoops;
  O.TvTerms = E.TvTerms;
  O.TvCertJson = E.TvCertificate;
  O.TvCertBin = E.TvCertBin;
  O.CodelintVerdictName = E.CodelintVerdict;
  O.CacheHit = true;
}

} // namespace

std::vector<ProgramOutcome>
certifyPrograms(const std::vector<const programs::ProgramDef *> &Progs,
                const PipelineOptions &Opts, PipelineStats *Stats,
                const TamperHook &Tamper) {
  std::vector<ProgramOutcome> Out(Progs.size());
  std::vector<CacheStats> PerProgramCache(Progs.size());
  CertCache Cache(Opts.CacheDir);
  JobGraph G;

  // Per-program job ids, for mapping scheduler-level outcomes (a job that
  // threw or was skipped) back onto named degraded outcomes after run().
  struct ProgJobs {
    JobId Compile = NoJob, Replay = NoJob, Analysis = NoJob, Tv = NoJob,
          Codelint = NoJob, Diff = NoJob, Certify = NoJob;
  };
  std::vector<ProgJobs> Jobs(Progs.size());

  for (size_t I = 0; I < Progs.size(); ++I) {
    const programs::ProgramDef *P = Progs[I];
    ProgramOutcome &O = Out[I];
    CacheStats &CS = PerProgramCache[I];
    O.Def = P;
    O.Replay.Enabled = Opts.Validate;
    O.Analysis.Enabled = Opts.Analyze;
    O.Tv.Enabled = Opts.Tv;
    O.Codelint.Enabled = Opts.Codelint;
    O.Diff.Enabled = Opts.Validate;

    // Per-job validation options, copied per program so concurrent jobs
    // never share mutable state. Suite-level budget overrides apply here,
    // so the options hash and every layer agree on the effective budgets.
    auto MakeVOpts = [P, &Opts]() {
      validate::ValidationOptions VO = P->VOpts;
      if (Opts.LayerTimeoutMs)
        VO.LayerTimeoutMs = Opts.LayerTimeoutMs;
      if (Opts.TvStepBudget)
        VO.TvStepBudget = Opts.TvStepBudget;
      return VO;
    };

    //--- compile: the root of this program's chain.
    JobId JCompile = Jobs[I].Compile =
        G.add(P->Name + "/compile", [&O, &CS, &Cache, &Opts, P, &Tamper,
                                     MakeVOpts] {
      core::Compiler C;
      Result<core::CompileResult> R = C.compileFn(P->Model, P->Spec,
                                                  P->Hints);
      if (!R) {
        O.CompileError =
            R.takeError().note("while compiling program " + P->Name).str();
        return;
      }
      O.Compiled = R.take();
      if (Tamper)
        Tamper(*P, O.Compiled);
      O.CompileOk = true;
      O.Linked.Functions.push_back(O.Compiled.Fn);

      O.Key = certKeyFor(P->Model, P->Hints, P->Spec, O.Compiled.Fn);
      O.OptsHash = optionsHashFor(MakeVOpts(), Opts);
      if (Cache.enabled()) {
        std::optional<CertEntry> E = Cache.lookup(O.Key, O.OptsHash, &CS);
        if (E && entryCovers(*E, Opts))
          applyCached(O, *E);
      }
    });

    //--- The static layers: independent once the code is emitted. Each
    // starts with the layer-entry fault probe. Only replay renders its own
    // failure; the others are rendered downstream, in fixed layer order.
    std::vector<JobId> StaticJobs;
    if (Opts.Validate)
      StaticJobs.push_back(Jobs[I].Replay = G.add(P->Name + "/replay", [&O] {
        if (!O.CompileOk || O.CacheHit)
          return;
        if (faultedAtEntry(O.Replay, fault::Site::LayerEntry,
                           O.Def->Name + "/replay")) {
          recordFailure(O, didNotRun(O.Replay, "derivation replay"));
          return;
        }
        Status S = validate::replayDerivation(O.Def->Model, O.Compiled);
        O.Replay.Ok = bool(S);
        if (!S)
          recordFailure(O, S.takeError().note(
                               "derivation replay rejected the witness"));
        O.Replay.Ran = true;
      }, {JCompile}));

    if (Opts.Analyze)
      StaticJobs.push_back(Jobs[I].Analysis =
                               G.add(P->Name + "/analysis", [&O, MakeVOpts] {
        if (!O.CompileOk || O.CacheHit ||
            faultedAtEntry(O.Analysis, fault::Site::LayerEntry,
                           O.Def->Name + "/analysis"))
          return;
        validate::ValidationOptions VO = MakeVOpts();
        std::optional<guard::Budget> B;
        if (VO.LayerTimeoutMs)
          B.emplace(VO.LayerTimeoutMs, /*StepLimit=*/0);
        O.AReport = analysis::analyzeProgram(
            O.Compiled.Fn, O.Def->Spec, O.Def->Model,
            O.Def->Hints.EntryFacts, B ? &*B : nullptr);
        // Errors fail certification; warnings (dead stores, unreachable
        // code) do not — they can be faithful images of a model's own dead
        // lets or decided branches. relc-lint is the strict gate.
        O.AnalysisWarnings = O.AReport.numWarnings();
        O.Analysis.Ok = !O.AReport.hasErrors();
        O.Analysis.Degraded = O.AReport.BudgetExhausted;
        for (const analysis::Diagnostic &D : O.AReport.Diags)
          O.AnalysisDiags += (O.AnalysisDiags.empty() ? "" : "\n") + D.str();
        O.Analysis.Ran = true;
      }, {JCompile}));

    if (Opts.Tv)
      StaticJobs.push_back(Jobs[I].Tv = G.add(P->Name + "/tv",
                                              [&O, MakeVOpts] {
        if (!O.CompileOk || O.CacheHit ||
            faultedAtEntry(O.Tv, fault::Site::LayerEntry,
                           O.Def->Name + "/tv"))
          return;
        validate::ValidationOptions VO = MakeVOpts();
        std::optional<guard::Budget> B;
        if (VO.LayerTimeoutMs || VO.TvStepBudget)
          B.emplace(VO.LayerTimeoutMs, VO.TvStepBudget);
        O.TvRep = tv::validateTranslation(
            O.Def->Model, O.Def->Spec, O.Compiled.Fn,
            O.Def->Hints.EntryFacts, B ? &*B : nullptr);
        // Only a refuted equivalence fails: it is a static proof of a
        // miscompilation. Inconclusive (outside the validated fragment, or
        // budget exhaustion) is Ok; the differential layer still runs and
        // carries the certification. An exhausted budget is also Degraded,
        // so the verdict is never cached.
        O.Tv.Ok = !O.TvRep.refuted();
        O.Tv.Degraded = O.TvRep.BudgetExhausted;
        O.TvVerdictName = tv::verdictName(O.TvRep.TheVerdict);
        O.TvLoops = O.TvRep.Loops.size();
        O.TvTerms = O.TvRep.NumTerms;
        // The certificate JSON is assembled downstream in the certify
        // job, where the codelint layer's record (if any) can be merged
        // in as the optional "codelint" section.
        O.Tv.Ran = true;
      }, {JCompile}));

    if (Opts.Codelint)
      StaticJobs.push_back(Jobs[I].Codelint =
                               G.add(P->Name + "/codelint", [&O, MakeVOpts] {
        if (!O.CompileOk || O.CacheHit ||
            faultedAtEntry(O.Codelint, fault::Site::CodelintEntry,
                           O.Def->Name + "/codelint"))
          return;
        validate::ValidationOptions VO = MakeVOpts();
        std::optional<guard::Budget> B;
        if (VO.LayerTimeoutMs)
          B.emplace(VO.LayerTimeoutMs, /*StepLimit=*/0);
        O.ClReport = codelint::analyzeFunction(
            O.Compiled.Fn, O.Def->Spec, O.Def->Model,
            O.Def->Hints.EntryFacts, B ? &*B : nullptr);
        O.CodelintVerdictName = codelint::verdictName(O.ClReport.overall());
        // The pipeline gate is refutation-shaped: only a demonstrated
        // violation (Unsafe) fails certification. Unknown passes here —
        // the strict all-Safe gate is relc-lint --code.
        O.Codelint.Ok = O.ClReport.overall() != codelint::Verdict::Unsafe;
        O.Codelint.Degraded = O.ClReport.BudgetExhausted;
        O.Codelint.Ran = true;
      }, {JCompile}));

    //--- Differential certification: after every static layer passed.
    std::vector<JobId> DiffDeps = StaticJobs;
    DiffDeps.insert(DiffDeps.begin(), JCompile);
    JobId JDiff = NoJob;
    if (Opts.Validate)
      JDiff = Jobs[I].Diff = G.add(P->Name + "/differential",
                                   [&O, MakeVOpts] {
        if (!O.CompileOk || O.CacheHit)
          return;
        // Differential runs only when every enabled static layer passed.
        // Failures keep the fixed layer order (replay > analysis > tv >
        // codelint), so an analysis failure that raced ahead of a replay
        // failure never wins; replay rendered its own.
        if (O.Replay.Enabled && !O.Replay.Ok)
          return;
        if (std::optional<Error> E = staticFailure(O, /*Validating=*/true)) {
          recordFailure(O, std::move(*E));
          return;
        }
        if (faultedAtEntry(O.Diff, fault::Site::LayerEntry,
                           O.Def->Name + "/differential")) {
          recordFailure(O, didNotRun(O.Diff, "differential certification"));
          return;
        }
        bool DiffBudgetOut = false;
        Status S = validate::differentialCertify(O.Def->Model, O.Def->Spec,
                                                 O.Compiled, O.Linked,
                                                 MakeVOpts(), &DiffBudgetOut);
        O.Diff.Ok = bool(S);
        O.Diff.Degraded = DiffBudgetOut;
        if (!S)
          recordFailure(
              O, S.takeError().note("differential certification failed"));
        O.Diff.Ran = true;
      }, DiffDeps);

    //--- Certificate store + per-program wrap-up.
    std::vector<JobId> FinishDeps = DiffDeps;
    if (JDiff != NoJob)
      FinishDeps.push_back(JDiff);
    Jobs[I].Certify = G.add(P->Name + "/certify", [&O, &CS, &Cache, &Opts] {
      // Assemble the certificate JSON from the live TV report, merging the
      // codelint layer's record as the optional "codelint" section. The
      // section is embedded only when the layer ran to completion
      // un-degraded (no entry fault, no budget exhaustion): relc-check
      // re-derives it *unbudgeted*, and a budgeted run that finished is
      // guaranteed to equal the unbudgeted one — a truncated run is not.
      if (O.CompileOk && !O.CacheHit && O.Tv.Enabled && O.Tv.Ran &&
          O.Tv.FaultNote.empty()) {
        cert::Certificate C = cert::fromTvReport(
            O.TvRep, {O.Key.ModelHash, O.Key.SpecHash, O.Key.CodeHash});
        if (O.Codelint.Enabled && O.Codelint.Ran && !O.Codelint.Degraded &&
            O.Codelint.FaultNote.empty())
          C.Codelint = cert::codelintRecOf(O.ClReport);
        O.TvCertJson = cert::Writer::write(C);
        O.TvCertBin = cert::BinWriter::write(C);
      }
      // With layer 4 off, no differential job rendered the static
      // failures: render the first one here.
      if (O.CompileOk && !O.CacheHit && O.ValidationError.empty())
        if (std::optional<Error> E = staticFailure(O, /*Validating=*/false))
          O.ValidationError = E->str();
      // Degraded outcomes are never cached: a budget-truncated or
      // fault-shadowed verdict must be re-derived at full strength before
      // it can be reused (§4.7).
      if (!Cache.enabled() || O.CacheHit || !O.ok() || O.anyDegraded())
        return;
      CertEntry E;
      E.Program = O.Def->Name;
      E.OptsHash = O.OptsHash;
      E.ReplayOk = O.Replay.Enabled && O.Replay.Ok;
      E.AnalysisOk = O.Analysis.Enabled && O.Analysis.Ok;
      E.AnalysisWarnings = O.AnalysisWarnings;
      E.AnalysisDiags = O.AnalysisDiags;
      E.TvRan = O.Tv.Enabled;
      E.TvVerdict = O.TvVerdictName;
      E.TvLoops = O.TvLoops;
      E.TvTerms = O.TvTerms;
      E.TvCertificate = O.TvCertJson;
      E.TvCertBin = O.TvCertBin;
      E.CodelintRan = O.Codelint.Enabled;
      E.CodelintVerdict = O.CodelintVerdictName;
      E.DifferentialOk = O.Diff.Enabled && O.Diff.Ok;
      Status S = Cache.store(O.Key, E, &CS);
      // Failure to persist is not a certification failure — the verdict
      // stands — but callers (relc-gen) surface the first one as a named
      // cache-dir-unwritable warning so a misconfigured cache directory is
      // not silently re-certifying everything forever.
      if (!S)
        O.CacheStoreError = S.takeError().str();
    }, FinishDeps);
  }

  Status Run = G.run(Opts.Jobs);
  (void)Run; // Jobs capture all failures in their outcome slots.

  // Map scheduler-level problems — a job that threw (genuinely or via an
  // injected sched-job fault) or was skipped downstream of one — onto
  // named degraded outcomes, in fixed layer order so serial and parallel
  // runs render identically. Without this, a dead job would leave its
  // layer looking "never enabled" and the program would fail with no
  // explanation at all.
  auto Problem = [&G](JobId J) -> std::optional<std::string> {
    if (J == NoJob)
      return std::nullopt;
    if (G.state(J) == JobState::Threw)
      return "did not complete: " + G.errorOf(J);
    if (G.state(J) == JobState::NotRun)
      return "was skipped (an upstream job failed)";
    return std::nullopt;
  };
  for (size_t I = 0; I < Progs.size(); ++I) {
    ProgramOutcome &O = Out[I];
    const ProgJobs &PJ = Jobs[I];
    if (auto W = Problem(PJ.Compile)) {
      O.CompileOk = false;
      O.CompileDegraded = true;
      if (O.CompileError.empty())
        O.CompileError = "compile job " + *W;
    }
    struct LayerJob {
      JobId J;
      LayerRun *L;
      const char *What;
    };
    for (const LayerJob &LJ :
         {LayerJob{PJ.Replay, &O.Replay, "derivation replay"},
          LayerJob{PJ.Analysis, &O.Analysis, "static analysis"},
          LayerJob{PJ.Tv, &O.Tv, "translation validation"},
          LayerJob{PJ.Codelint, &O.Codelint, "codelint"},
          LayerJob{PJ.Diff, &O.Diff, "differential certification"}}) {
      auto W = Problem(LJ.J);
      if (!W)
        continue;
      LJ.L->Degraded = true;
      LJ.L->Ok = false;
      if (LJ.L->FaultNote.empty())
        LJ.L->FaultNote = std::string(LJ.What) + " job " + *W;
      if (O.CompileOk && !O.CacheHit)
        recordFailure(O, Error(LJ.L->FaultNote));
    }
    if (auto W = Problem(PJ.Certify))
      O.DegradedNote = "certify job " + *W;
  }

  if (Stats) {
    Stats->Programs += unsigned(Progs.size());
    for (size_t I = 0; I < Progs.size(); ++I) {
      Stats->Cache.Hits += PerProgramCache[I].Hits;
      Stats->Cache.Misses += PerProgramCache[I].Misses;
      Stats->Cache.Stores += PerProgramCache[I].Stores;
      Stats->Cache.CorruptDiscarded += PerProgramCache[I].CorruptDiscarded;
      Stats->Cache.BinHits += PerProgramCache[I].BinHits;
      if (!Out[I].ok())
        ++Stats->Failures;
    }
  }
  return Out;
}

} // namespace pipeline
} // namespace relc
