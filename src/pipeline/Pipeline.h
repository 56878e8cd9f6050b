//===- pipeline/Pipeline.h - Parallel, incremental certification -*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The certification sequencer: the one place that puts the five layers
// in order, for relc-gen, relc-lint, relcd, and every test and example
// that certifies a program. For each program, a dependency-aware job
// chain
//
//     compile ──> { derivation replay, static analysis, translation
//                   validation, codelint } (independent once code exists)
//             ──> differential certification
//             ──> certificate store
//
// executed on the work-stealing scheduler (pipeline/Scheduler.h) across
// programs and layers, with verdicts reused across runs through the
// content-addressed certificate cache (pipeline/CertCache.h).
//
// Reproducibility contract: all diagnostics are buffered into per-program
// outcome fields — jobs never print — and consumed by the caller in
// program submission order, so `-j N` and `-j 1` produce byte-identical
// terminal streams and artifacts. `-j 1` executes jobs inline in
// submission order: exactly the pre-pipeline serial behavior.
//
// Error semantics: layers report in the fixed order replay -> analysis ->
// tv -> codelint -> differential (a replay failure wins even if analysis
// also failed in parallel), differential only runs when every enabled
// static layer passed, and one program's failure never blocks or poisons
// sibling programs. Every failure text is rendered here.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_PIPELINE_PIPELINE_H
#define RELC_PIPELINE_PIPELINE_H

#include "analysis/Analysis.h"
#include "codelint/Codelint.h"
#include "core/Rule.h"
#include "pipeline/CertCache.h"
#include "programs/Programs.h"
#include "tv/Tv.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace relc {
namespace pipeline {

struct PipelineOptions {
  unsigned Jobs = 1;        ///< Scheduler width; 1 = serial reference.
  std::string CacheDir;     ///< Certificate cache; empty disables it.
  bool Validate = true;     ///< Layers 1 and 4 (replay + differential).
  bool Analyze = true;      ///< Layer 2 (dataflow verifier).
  bool Tv = true;           ///< Layer 3 (translation validation).
  bool Codelint = true;     ///< Target-side codelint over the emitted code
                            ///< (memory safety, stack bound, step bound).
                            ///< An Unsafe verdict fails the program; Unknown
                            ///< passes here (the strict Safe gate is
                            ///< relc-lint --code). When the layer completes
                            ///< un-degraded its record is embedded as the
                            ///< certificate's "codelint" section.

  /// Robustness guards (DESIGN.md §4.7): when nonzero, these override the
  /// per-program ValidationOptions so every certification layer is
  /// wall-clock terminating. Exhaustion degrades the layer (see
  /// LayerRun::Degraded), it never hangs or wrongly accepts.
  unsigned LayerTimeoutMs = 0; ///< Per-layer deadline, ms. 0 = unlimited.
  uint64_t TvStepBudget = 0;   ///< TV step cap. 0 = unlimited.
  /// Reclassify programs whose only problems are budget exhaustion or
  /// injected faults as "degraded" rather than failed (relc-gen exit 3,
  /// not 1). Deliberately NOT part of the options hash: it changes how
  /// outcomes are *classified*, never what is certified or cached.
  bool KeepGoing = false;
};

/// One certification layer's outcome within a program's chain.
struct LayerRun {
  bool Enabled = false;   ///< Requested by the options.
  bool Ran = false;       ///< Executed live this run.
  bool FromCache = false; ///< Verdict reused from the certificate cache.
  bool Ok = false;        ///< Verdict (meaningful when Ran or FromCache).
  /// The layer did not complete its real work: a guard::Budget ran out, an
  /// injected fault fired at its entry, or its job died at the scheduler
  /// boundary. Degraded outcomes are never cached, and with
  /// PipelineOptions::KeepGoing they are reported as exit-code-3
  /// "degraded" rather than genuine failures. Note Degraded does not
  /// imply !Ok: a budget-exhausted TV run is Inconclusive (Ok) yet
  /// Degraded — the differential layer then carries the certification.
  bool Degraded = false;
  /// Names what degraded the layer (the injected fault's describe() text
  /// or the scheduler-level failure), "" when Degraded came from a budget
  /// (the layer's own report carries the budget text then).
  std::string FaultNote;
};

/// Everything one program's jobs produced, buffered for deterministic
/// consumption. Move-only (owns the derivation witness).
struct ProgramOutcome {
  const programs::ProgramDef *Def = nullptr;

  bool CompileOk = false;
  std::string CompileError;      ///< Rendered compile failure.
  core::CompileResult Compiled;  ///< Valid when CompileOk.
  bedrock::Module Linked;        ///< Single-function module for layer 4.

  LayerRun Replay, Analysis, Tv, Codelint, Diff;

  /// First failing layer's rendered error: the layer's diagnostic, then
  /// notes naming the layer and the program.
  std::string ValidationError;

  /// Live-run reports (valid when the layer's Ran flag is set).
  analysis::AnalysisReport AReport;
  tv::TvReport TvRep;
  codelint::Report ClReport;

  /// Summary fields available on both live and cached paths.
  uint64_t AnalysisWarnings = 0;
  std::string AnalysisDiags;     ///< Rendered diags, newline-joined.
  std::string TvVerdictName;     ///< verdictName() form ("proved", ...).
  uint64_t TvLoops = 0, TvTerms = 0;
  std::string TvCertJson;        ///< The .tv.json payload ("" if TV off).
  std::string TvCertBin;         ///< The .certbin image ("" if TV off).
  std::string CodelintVerdictName; ///< "safe"/"unknown"/"unsafe" ("" if off).

  CertKey Key;                   ///< Content hashes (valid when CompileOk).
  uint64_t OptsHash = 0;
  bool CacheHit = false;         ///< Entire verdict came from the cache.

  /// The compile job itself died at the scheduler boundary (injected
  /// sched-job fault or a genuine throw); CompileError names why.
  bool CompileDegraded = false;
  /// Scheduler-level problem with the certify/store job, "" if none.
  std::string DegradedNote;

  /// The certificate cache was enabled but storing this program's verdict
  /// failed (unwritable directory, full disk, injected cache-write fault).
  /// Absorbed — the verdict stands — but relc-gen surfaces the first one
  /// as a named cache-dir-unwritable warning.
  std::string CacheStoreError;

  /// True iff compilation and every enabled layer succeeded.
  bool ok() const;

  /// Any layer (or compile, or certify) was degraded by a budget or fault.
  /// Degraded outcomes are never cached.
  bool anyDegraded() const;

  /// True iff the program is not ok() but every problem is a degraded
  /// outcome (budget exhaustion, injected fault, scheduler-boundary
  /// failure) — nothing genuinely failed certification. This is what
  /// --keep-going reclassifies to exit code 3.
  bool failureIsDegradedOnly() const;

  /// First degraded problem's text, in the fixed compile -> replay ->
  /// analysis -> tv -> codelint -> differential -> certify order ("" if
  /// none).
  std::string firstDegradedNote() const;
};

struct PipelineStats {
  CacheStats Cache;
  unsigned Programs = 0;
  unsigned Failures = 0;
};

/// Test-only *content* tampering: runs after a program compiles, before
/// any certification layer sees the result. Lets tests mutate one
/// program's emitted code or witness inside a parallel run. (Injection of
/// I/O and scheduling *faults* is the job of relc::fault — see
/// support/Fault.h — which this hook predates and complements.)
using TamperHook =
    std::function<void(const programs::ProgramDef &, core::CompileResult &)>;

/// Content hashes for the cache key — a thin wrapper over
/// cert::contentKey, THE definition of program identity shared with the
/// certificate writer and the independent checker. Exposed for tests:
/// mutating any of model / hints / fnspec / emitted code must change the
/// respective component.
CertKey certKeyFor(const ir::SourceFn &Model, const core::CompileHints &Hints,
                   const sep::FnSpec &Spec, const bedrock::Function &Code);

/// Digest of everything else a verdict depends on: validation options
/// (seed, vector battery, custom generators' presence), which layers are
/// enabled, and the rule-registry fingerprint — the digest of "which
/// compiler produced this" (core::standardRegistryFingerprint). Any
/// change, including editing/reordering/removing a compilation rule,
/// forces a cache miss.
uint64_t optionsHashFor(
    const validate::ValidationOptions &VOpts, const PipelineOptions &Opts,
    uint64_t RegistryFingerprint = core::standardRegistryFingerprint());

/// Certifies \p Progs under \p Opts on the job-graph scheduler. The result
/// vector is indexed like \p Progs regardless of execution order.
std::vector<ProgramOutcome>
certifyPrograms(const std::vector<const programs::ProgramDef *> &Progs,
                const PipelineOptions &Opts, PipelineStats *Stats = nullptr,
                const TamperHook &Tamper = nullptr);

} // namespace pipeline
} // namespace relc

#endif // RELC_PIPELINE_PIPELINE_H
