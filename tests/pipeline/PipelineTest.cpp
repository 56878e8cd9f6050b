//===- tests/pipeline/PipelineTest.cpp - Parallel cert pipeline ------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// End-to-end checks of the suite-level driver: cold runs certify live and
// store verdicts; warm runs skip re-certification yet reproduce the exact
// same summary fields and .tv.json payloads; any mutation of the cache-key
// inputs (model, fnspec, emitted code) forces a miss; parallel and serial
// execution agree on every outcome.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "support/Fault.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace relc;
using namespace relc::pipeline;

namespace {

struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("relc-pipeline-test-" + Name))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

std::vector<const programs::ProgramDef *> suite() {
  std::vector<const programs::ProgramDef *> Out;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Out.push_back(&P);
  return Out;
}

TEST(PipelineTest, ColdRunCertifiesLiveAndStores) {
  TempDir D("cold");
  PipelineOptions Opts;
  Opts.CacheDir = D.Path;
  PipelineStats Stats;
  std::vector<ProgramOutcome> Out = certifyPrograms(suite(), Opts, &Stats);

  ASSERT_EQ(Out.size(), suite().size());
  EXPECT_EQ(Stats.Failures, 0u);
  EXPECT_EQ(Stats.Cache.Hits, 0u);
  EXPECT_EQ(Stats.Cache.Misses, unsigned(Out.size()));
  EXPECT_EQ(Stats.Cache.Stores, unsigned(Out.size()));
  for (const ProgramOutcome &O : Out) {
    EXPECT_TRUE(O.ok()) << O.Def->Name;
    EXPECT_FALSE(O.CacheHit) << O.Def->Name;
    EXPECT_TRUE(O.Replay.Ran && O.Analysis.Ran && O.Tv.Ran &&
                O.Codelint.Ran && O.Diff.Ran)
        << O.Def->Name;
    EXPECT_FALSE(O.TvCertJson.empty()) << O.Def->Name;
    // The codelint layer proved the suite Safe and its record landed in
    // the certificate as the optional section.
    EXPECT_EQ(O.CodelintVerdictName, "safe") << O.Def->Name;
    EXPECT_NE(O.TvCertJson.find("\"codelint\""), std::string::npos)
        << O.Def->Name;
  }
}

TEST(PipelineTest, WarmRunSkipsRecertificationAndMatchesCold) {
  TempDir D("warm");
  PipelineOptions Opts;
  Opts.CacheDir = D.Path;
  std::vector<ProgramOutcome> Cold = certifyPrograms(suite(), Opts);

  PipelineStats Stats;
  std::vector<ProgramOutcome> Warm = certifyPrograms(suite(), Opts, &Stats);

  EXPECT_EQ(Stats.Cache.Hits, unsigned(Warm.size()));
  EXPECT_EQ(Stats.Cache.Misses, 0u);
  EXPECT_EQ(Stats.Cache.Stores, 0u);
  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I < Warm.size(); ++I) {
    const ProgramOutcome &W = Warm[I], &C = Cold[I];
    EXPECT_TRUE(W.CacheHit) << W.Def->Name;
    EXPECT_TRUE(W.ok()) << W.Def->Name;
    // No layer re-ran...
    EXPECT_FALSE(W.Replay.Ran || W.Analysis.Ran || W.Tv.Ran ||
                 W.Codelint.Ran || W.Diff.Ran)
        << W.Def->Name;
    // ...yet every replayable artifact and summary field is identical.
    EXPECT_TRUE(W.Key == C.Key) << W.Def->Name;
    EXPECT_EQ(W.TvCertJson, C.TvCertJson) << W.Def->Name;
    EXPECT_EQ(W.TvVerdictName, C.TvVerdictName) << W.Def->Name;
    EXPECT_EQ(W.TvLoops, C.TvLoops) << W.Def->Name;
    EXPECT_EQ(W.TvTerms, C.TvTerms) << W.Def->Name;
    EXPECT_EQ(W.AnalysisWarnings, C.AnalysisWarnings) << W.Def->Name;
    EXPECT_EQ(W.AnalysisDiags, C.AnalysisDiags) << W.Def->Name;
    EXPECT_EQ(W.CodelintVerdictName, C.CodelintVerdictName) << W.Def->Name;
    // The code itself was still freshly compiled and emitted.
    EXPECT_EQ(W.Compiled.Fn.str(), C.Compiled.Fn.str()) << W.Def->Name;
  }
}

TEST(PipelineTest, ParallelAndSerialOutcomesAgree) {
  PipelineOptions Serial, Parallel;
  Parallel.Jobs = 8;
  std::vector<ProgramOutcome> S = certifyPrograms(suite(), Serial);
  std::vector<ProgramOutcome> P = certifyPrograms(suite(), Parallel);
  ASSERT_EQ(S.size(), P.size());
  for (size_t I = 0; I < S.size(); ++I) {
    EXPECT_EQ(S[I].ok(), P[I].ok()) << S[I].Def->Name;
    EXPECT_EQ(S[I].ValidationError, P[I].ValidationError) << S[I].Def->Name;
    EXPECT_EQ(S[I].TvCertJson, P[I].TvCertJson) << S[I].Def->Name;
    EXPECT_EQ(S[I].AnalysisDiags, P[I].AnalysisDiags) << S[I].Def->Name;
    EXPECT_TRUE(S[I].Key == P[I].Key) << S[I].Def->Name;
  }
}

TEST(PipelineTest, CertKeySensitiveToEveryComponent) {
  const programs::ProgramDef *P = programs::findProgram("fnv1a");
  ASSERT_NE(P, nullptr);
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(P->Model, P->Spec, P->Hints);
  ASSERT_TRUE(bool(R));
  CertKey Base = certKeyFor(P->Model, P->Hints, P->Spec, R->Fn);

  // Model mutation: rename a parameter.
  {
    ir::SourceFn M = P->Model;
    M.Name = "fnv1a_prime";
    CertKey K = certKeyFor(M, P->Hints, P->Spec, R->Fn);
    EXPECT_NE(K.ModelHash, Base.ModelHash);
    EXPECT_EQ(K.CodeHash, Base.CodeHash);
  }
  // Spec mutation: drop the scalar return.
  {
    sep::FnSpec S = P->Spec;
    S.ScalarRets.clear();
    CertKey K = certKeyFor(P->Model, P->Hints, S, R->Fn);
    EXPECT_NE(K.SpecHash, Base.SpecHash);
    EXPECT_EQ(K.ModelHash, Base.ModelHash);
  }
  // Code mutation: append a statement to the emitted function.
  {
    bedrock::Function Fn = R->Fn;
    Fn.Body = bedrock::seq(Fn.Body, bedrock::set("x", bedrock::lit(1)));
    CertKey K = certKeyFor(P->Model, P->Hints, P->Spec, Fn);
    EXPECT_NE(K.CodeHash, Base.CodeHash);
    EXPECT_EQ(K.ModelHash, Base.ModelHash);
    EXPECT_EQ(K.SpecHash, Base.SpecHash);
  }
}

TEST(PipelineTest, TamperedCodeForcesCacheMissAndFailsAlone) {
  // Warm the cache with a clean suite run, then tamper with one program's
  // emitted code: its key changes (miss), it re-certifies live and fails;
  // sibling programs still hit the cache and stay green.
  TempDir D("tamper");
  PipelineOptions Opts;
  Opts.CacheDir = D.Path;
  certifyPrograms(suite(), Opts);

  TamperHook Tamper = [](const programs::ProgramDef &P,
                         core::CompileResult &R) {
    if (P.Name == "upstr")
      R.Fn.Body = bedrock::skip(); // Certifiably wrong.
  };
  PipelineStats Stats;
  std::vector<ProgramOutcome> Out =
      certifyPrograms(suite(), Opts, &Stats, Tamper);

  EXPECT_EQ(Stats.Failures, 1u);
  EXPECT_EQ(Stats.Cache.Hits, unsigned(Out.size()) - 1);
  EXPECT_EQ(Stats.Cache.Misses, 1u);
  EXPECT_EQ(Stats.Cache.Stores, 0u); // Failures are never cached.
  for (const ProgramOutcome &O : Out) {
    if (O.Def->Name == "upstr") {
      EXPECT_FALSE(O.ok());
      EXPECT_FALSE(O.CacheHit);
      EXPECT_FALSE(O.ValidationError.empty());
    } else {
      EXPECT_TRUE(O.ok()) << O.Def->Name;
      EXPECT_TRUE(O.CacheHit) << O.Def->Name;
    }
  }
}

TEST(PipelineTest, OptionsChangeForcesMiss) {
  TempDir D("opts");
  PipelineOptions Opts;
  Opts.CacheDir = D.Path;
  certifyPrograms(suite(), Opts);

  // Same programs, different layer set: verdicts must not be reused.
  PipelineOptions NoVal = Opts;
  NoVal.Validate = false;
  PipelineStats Stats;
  certifyPrograms(suite(), NoVal, &Stats);
  EXPECT_EQ(Stats.Cache.Hits, 0u);
  EXPECT_EQ(Stats.Cache.Misses, unsigned(suite().size()));

  // Toggling the codelint layer is an options change too.
  PipelineOptions NoCl = Opts;
  NoCl.Codelint = false;
  PipelineStats ClStats;
  certifyPrograms(suite(), NoCl, &ClStats);
  EXPECT_EQ(ClStats.Cache.Hits, 0u);
  EXPECT_EQ(ClStats.Cache.Misses, unsigned(suite().size()));
}

TEST(PipelineTest, CodelintRejectionIsNamedAndFailsAlone) {
  // Seed an out-of-bounds store into one program's emitted code with the
  // other certification layers off: the codelint layer alone must reject
  // it, with its stable kebab-case reason in the rendered failure, while
  // sibling programs certify normally.
  TamperHook Tamper = [](const programs::ProgramDef &P,
                         core::CompileResult &R) {
    if (P.Name == "fnv1a")
      R.Fn.Body = bedrock::seqAll(
          {R.Fn.Body,
           bedrock::store(bedrock::AccessSize::Byte,
                          bedrock::add(bedrock::var("s"), bedrock::var("len")),
                          bedrock::lit(0))});
  };
  PipelineOptions Opts;
  Opts.Validate = false;
  Opts.Analyze = false;
  Opts.Tv = false;
  PipelineStats Stats;
  std::vector<ProgramOutcome> Out =
      certifyPrograms(suite(), Opts, &Stats, Tamper);
  EXPECT_EQ(Stats.Failures, 1u);
  for (const ProgramOutcome &O : Out) {
    if (O.Def->Name == "fnv1a") {
      EXPECT_FALSE(O.ok());
      EXPECT_TRUE(O.Codelint.Ran);
      EXPECT_FALSE(O.Codelint.Ok);
      EXPECT_EQ(O.CodelintVerdictName, "unsafe");
      EXPECT_NE(O.ValidationError.find("codelint"), std::string::npos)
          << O.ValidationError;
      EXPECT_NE(O.ValidationError.find("oob-store"), std::string::npos)
          << O.ValidationError;
    } else {
      EXPECT_TRUE(O.ok()) << O.Def->Name << ": " << O.ValidationError;
      EXPECT_EQ(O.CodelintVerdictName, "safe") << O.Def->Name;
    }
  }
}

/// Certifies \p Def alone and returns its rendered failure.
std::string failureText(const programs::ProgramDef &Def,
                        const PipelineOptions &Opts,
                        const TamperHook &Tamper = nullptr) {
  std::vector<ProgramOutcome> Out = certifyPrograms({&Def}, Opts, nullptr,
                                                    Tamper);
  EXPECT_FALSE(Out[0].ok()) << Def.Name;
  return Out[0].ValidationError;
}

TEST(PipelineTest, FailureTextsArePinned) {
  // The exact failure text of each static layer's rejection and of a
  // layer-entry fault, with layer 4 on (the differential job renders the
  // static failures) and off (the certify job does). The two note chains
  // differ; both are pinned here.
  const programs::ProgramDef &Fnv = *programs::findProgram("fnv1a");
  TamperHook OobStore = [](const programs::ProgramDef &,
                           core::CompileResult &R) {
    R.Fn.Body = bedrock::seqAll(
        {R.Fn.Body,
         bedrock::store(bedrock::AccessSize::Byte,
                        bedrock::add(bedrock::var("s"), bedrock::var("len")),
                        bedrock::lit(0))});
  };
  // Straight-line code computing x - y for a model of x + y: safe, so only
  // translation validation (and layer 4) can refute it.
  programs::ProgramDef Plus;
  Plus.Name = "plus";
  {
    ir::FnBuilder FB("plus", ir::Monad::Pure);
    FB.wordParam("x").wordParam("y");
    ir::ProgBuilder B;
    B.let("r", ir::addw(ir::v("x"), ir::v("y")));
    Plus.Model = std::move(FB).done(std::move(B).ret({"r"}));
  }
  Plus.Spec = sep::FnSpec("plus");
  Plus.Spec.scalarArg("x").scalarArg("y").retScalar("r");
  TamperHook Minus = [](const programs::ProgramDef &,
                        core::CompileResult &R) {
    R.Fn.Body = bedrock::set(
        "r", bedrock::sub(bedrock::var("x"), bedrock::var("y")));
  };

  // Recorded texts. With layer 4 on, a static rejection gains a note
  // naming its layer, and every failure gains the program note.
  const std::string InFnv = "\n  note: while validating program fnv1a";
  const std::string Bounds =
      "static analysis of target 'fnv1a' found 1 error(s) and 0 "
      "warning(s)\n"
      "  note: error [bounds] fnv1a at body.3: store1((s + len)) = 0\n"
      "  cannot prove 1-byte store at offset len_s stays within {array "
      "ptr_s s (len_s x 1B)}: unsolved side condition: len_s + 1 <= len_s\n"
      "  note: facts in scope:\n"
      "  -len_s + 4294967296 >= 0   (ABI bounds array lengths by 2^32)\n"
      "  -len_s + phi$b1$i$1 >= 0   (branch: !(a <u b))\n"
      "  k$0xcbf29ce484222325 >= 0   (literal constant is nonnegative)\n"
      "  len_s >= 0   (length is nonnegative)\n"
      "  phi$b1$h >= 0   (merged value is a word / in-bounds offset)\n"
      "  phi$b1$i$1 >= 0   (merged value is a word / in-bounds offset)\n";
  const std::string Refuted =
      "translation validation refuted 'plus': output 'r' [scalar] differs "
      "between model and target\n"
      "  note: output 'r' [scalar]: model (x + y) (0: let r := (x + y)) vs "
      "target (x + (y * 0xffffffffffffffff)) (at body.0)";
  const std::string OobStoreFinding =
      "codelint verdict unsafe: [oob-store] at body.3: cannot prove 1-byte "
      "store at offset len_s stays within {array ptr_s s (len_s x 1B)} in: "
      "store1((s + len)) = 0\n"
      "  note: codelint rejected the emitted code";

  for (bool Validate : {true, false}) {
    SCOPED_TRACE(Validate ? "layer 4 on" : "layer 4 off");
    PipelineOptions Opts;
    Opts.Validate = Validate;
    EXPECT_EQ(failureText(Fnv, Opts, OobStore),
              Validate ? Bounds + "\n  note: static analysis rejected the "
                                  "target" + InFnv
                       : Bounds);
    EXPECT_EQ(failureText(Plus, Opts, Minus),
              Validate ? Refuted + "\n  note: translation validation "
                                   "rejected the target\n  note: while "
                                   "validating program plus"
                       : Refuted);
    PipelineOptions OnlyCodelint = Opts;
    OnlyCodelint.Analyze = OnlyCodelint.Tv = false;
    EXPECT_EQ(failureText(Fnv, OnlyCodelint, OobStore),
              Validate ? OobStoreFinding + InFnv : OobStoreFinding);
  }

  // A persistent fault at each layer's entry, matched to that layer alone
  // and armed afresh for every run.
  auto Faulted = [&](const char *Spec, bool Validate) {
    fault::ScopedFaults Armed(Spec);
    PipelineOptions Opts;
    Opts.Validate = Validate;
    return failureText(Fnv, Opts);
  };
  EXPECT_EQ(Faulted("layer-entry:persistent:match=/replay", true),
            "injected persistent layer-entry fault at 'fnv1a/replay' (hit "
            "#0)\n  note: derivation replay did not run" + InFnv);
  EXPECT_EQ(Faulted("layer-entry:persistent:match=/differential", true),
            "injected persistent layer-entry fault at 'fnv1a/differential' "
            "(hit #0)\n  note: differential certification did not run" +
                InFnv);
  for (bool Validate : {true, false}) {
    SCOPED_TRACE(Validate ? "layer 4 on" : "layer 4 off");
    const std::string Tail = Validate ? InFnv : "";
    EXPECT_EQ(Faulted("layer-entry:persistent:match=/analysis", Validate),
              "injected persistent layer-entry fault at 'fnv1a/analysis' "
              "(hit #0)\n  note: static analysis did not run" + Tail);
    EXPECT_EQ(Faulted("layer-entry:persistent:match=/tv", Validate),
              "injected persistent layer-entry fault at 'fnv1a/tv' (hit "
              "#0)\n  note: translation validation did not run" + Tail);
    EXPECT_EQ(Faulted("codelint-entry:persistent", Validate),
              "injected persistent codelint-entry fault at 'fnv1a/codelint' "
              "(hit #0)\n  note: codelint did not run" + Tail);
  }
}

TEST(PipelineTest, DeadJobOnCacheHitIsNamed) {
  // A layer job that dies at the scheduler boundary fails its program on
  // a cache hit too, and the failure names the job — the same text a
  // cache miss renders.
  const programs::ProgramDef &Fnv = *programs::findProgram("fnv1a");
  TempDir D("dead-job");
  PipelineOptions Opts;
  Opts.CacheDir = D.Path;
  ASSERT_TRUE(certifyPrograms({&Fnv}, Opts)[0].ok());
  for (const char *Job : {"tv", "analysis+codelint"}) {
    SCOPED_TRACE(Job);
    fault::ScopedFaults Armed(
        std::string("sched-job:persistent:match=fnv1a/") + Job);
    std::vector<ProgramOutcome> Out = certifyPrograms({&Fnv}, Opts);
    EXPECT_TRUE(Out[0].CacheHit);
    EXPECT_FALSE(Out[0].ok());
    EXPECT_EQ(Out[0].ValidationError,
              std::string(Job[0] == 't' ? "translation validation"
                                        : "static analysis") +
                  " job did not complete: injected persistent sched-job "
                  "fault at 'fnv1a/" + Job + "' (hit #0)\n  note: while "
                  "validating program fnv1a");
  }
}

} // namespace
