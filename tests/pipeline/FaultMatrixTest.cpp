//===- tests/pipeline/FaultMatrixTest.cpp - Seeded fault-injection matrix --===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The §4.7 robustness contract, stress-tested: for every fault site, mode
// (transient / persistent / probabilistic), and a battery of seeds, a
// certification run under injection must either
//
//   (a) produce an outcome byte-identical to the fault-free baseline
//       (the fault healed within a retry allowance or missed its target), or
//   (b) report the exact injected fault as a *named* outcome — and never
//       crash, hang, poison a sibling program, or cache a degraded verdict.
//
// Well over 100 individual injections are exercised: an unmatched
// persistent layer-entry clause alone fires 8 times per run (4 layers x 2
// programs; the codelint layer has its own codelint-entry site), an
// unmatched interp-fuel clause fires once per differential vector (6 per
// program), and a sched-job clause fires at every scheduler job boundary;
// summed across the ~60 configurations below the guaranteed fire count is
// several hundred.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "support/Fault.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace relc;
using namespace relc::pipeline;

namespace {

struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("relc-fault-matrix-" + Name))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

/// Canonical rendering of an outcome: everything observable. Two runs
/// with the same semantics render identically.
std::string render(const ProgramOutcome &O) {
  auto Layer = [](const LayerRun &R) {
    std::string S;
    S += R.Enabled ? 'E' : '-';
    S += R.Ran ? 'R' : '-';
    S += R.FromCache ? 'C' : '-';
    S += R.Ok ? 'K' : '-';
    S += R.Degraded ? 'D' : '-';
    return S + "{" + R.FaultNote + "}";
  };
  std::string S = O.Def->Name;
  S += "|compileOk=" + std::to_string(O.CompileOk);
  S += "|compileDegraded=" + std::to_string(O.CompileDegraded);
  S += "|compileError={" + O.CompileError + "}";
  S += "|cacheHit=" + std::to_string(O.CacheHit);
  S += "|replay=" + Layer(O.Replay);
  S += "|analysis=" + Layer(O.Analysis);
  S += "|tv=" + Layer(O.Tv);
  S += "|codelint=" + Layer(O.Codelint);
  S += "|diff=" + Layer(O.Diff);
  S += "|validationError={" + O.ValidationError + "}";
  S += "|degradedNote={" + O.DegradedNote + "}";
  S += "|tvVerdict=" + O.TvVerdictName;
  S += "|tvLoops=" + std::to_string(O.TvLoops);
  S += "|tvTerms=" + std::to_string(O.TvTerms);
  S += "|codelintVerdict=" + O.CodelintVerdictName;
  S += "|analysisWarnings=" + std::to_string(O.AnalysisWarnings);
  S += "|analysisDiags={" + O.AnalysisDiags + "}";
  S += "|tvCert={" + O.TvCertJson + "}";
  S += "|ok=" + std::to_string(O.ok());
  S += "|anyDegraded=" + std::to_string(O.anyDegraded());
  S += "|degradedOnly=" + std::to_string(O.failureIsDegradedOnly());
  return S;
}

/// The site names armed by \p Spec (first token of each clause).
std::vector<std::string> sitesOf(const std::string &Spec) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Clause = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Out.push_back(Clause.substr(0, Clause.find(':')));
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return Out;
}

TEST(FaultMatrixTest, EveryInjectionIsAbsorbedOrNamedNeverWorse) {
  // Two real programs with a shrunk vector battery (6 vectors each) so the
  // whole matrix runs in seconds.
  const programs::ProgramDef *P1 = programs::findProgram("fnv1a");
  const programs::ProgramDef *P2 = programs::findProgram("upstr");
  ASSERT_NE(P1, nullptr);
  ASSERT_NE(P2, nullptr);
  programs::ProgramDef A = *P1, B = *P2;
  for (programs::ProgramDef *P : {&A, &B}) {
    P->VOpts.Sizes = {0, 3, 8};
    P->VOpts.VectorsPerSize = 2;
  }
  std::vector<const programs::ProgramDef *> Suite = {&A, &B};

  //--- Fault-free baseline (fresh cache: misses + stores, no hits).
  fault::disarm();
  std::vector<std::string> Baseline;
  {
    TempDir D("baseline");
    PipelineOptions Opts;
    Opts.CacheDir = D.Path;
    PipelineStats Stats;
    std::vector<ProgramOutcome> Out = certifyPrograms(Suite, Opts, &Stats);
    ASSERT_EQ(Out.size(), 2u);
    for (const ProgramOutcome &O : Out) {
      ASSERT_TRUE(O.ok()) << O.Def->Name << ": " << O.ValidationError;
      Baseline.push_back(render(O));
    }
    ASSERT_EQ(Stats.Cache.Stores, 2u);
  }

  //--- The matrix: every site x {transient within / beyond the retry
  //    allowance, persistent, matched, probabilistic across seeds}.
  std::vector<std::string> Configs;
  for (unsigned I = 0; I < fault::NumSites; ++I) {
    std::string Site = fault::siteName(fault::Site(I));
    Configs.push_back(Site + ":transient:n=1");
    Configs.push_back(Site + ":transient:n=6");
    Configs.push_back(Site + ":persistent");
    Configs.push_back(Site + ":persistent:match=fnv1a");
    for (unsigned Seed = 1; Seed <= 4; ++Seed)
      Configs.push_back(Site + ":persistent:p=0.5:seed=" +
                        std::to_string(Seed));
  }
  // Multi-clause combinations.
  Configs.push_back("cache-read:persistent,cache-write:persistent");
  Configs.push_back("layer-entry:transient:n=6,sched-job:transient:n=1");
  Configs.push_back("interp-fuel:persistent:v=12,cache-write:transient:n=2");

  auto RunConfig = [&](const std::string &Spec, unsigned Jobs,
                       PipelineStats *Stats) {
    fault::ScopedFaults Armed(Spec);
    TempDir D("cfg");
    PipelineOptions Opts;
    Opts.CacheDir = D.Path;
    Opts.Jobs = Jobs;
    std::vector<ProgramOutcome> Out = certifyPrograms(Suite, Opts, Stats);
    std::vector<std::string> R;
    for (const ProgramOutcome &O : Out)
      R.push_back(render(O));
    return R;
  };

  for (size_t C = 0; C < Configs.size(); ++C) {
    const std::string &Spec = Configs[C];
    SCOPED_TRACE("fault spec: " + Spec);
    PipelineStats Stats;
    std::vector<std::string> R;
    std::vector<ProgramOutcome> Out;
    {
      fault::ScopedFaults Armed(Spec);
      TempDir D("serial");
      PipelineOptions Opts;
      Opts.CacheDir = D.Path;
      Out = certifyPrograms(Suite, Opts, &Stats);
    }
    ASSERT_EQ(Out.size(), 2u);
    unsigned EligibleStores = 0;
    for (size_t I = 0; I < Out.size(); ++I) {
      const ProgramOutcome &O = Out[I];
      R.push_back(render(O));
      if (O.ok() && !O.anyDegraded() && !O.CacheHit)
        ++EligibleStores;
      if (R[I] == Baseline[I])
        continue; // (a) the injection was absorbed or missed this program.
      // (b) otherwise the outcome must NAME the injection: the word
      // "injected" plus one of the armed sites, somewhere in the render
      // (fault note, validation error, compile error, or degraded note).
      EXPECT_NE(R[I].find("injected"), std::string::npos)
          << O.Def->Name << "\n" << R[I];
      bool AnySite = false;
      for (const std::string &S : sitesOf(Spec))
        AnySite = AnySite || R[I].find(S) != std::string::npos;
      EXPECT_TRUE(AnySite) << O.Def->Name << "\n" << R[I];
    }
    // Degraded or failed verdicts are never cached. (Successful stores can
    // be *lower* than eligible only when the write path itself is under
    // injection.)
    EXPECT_LE(Stats.Cache.Stores, EligibleStores);
    if (Spec.find("cache-write") == std::string::npos) {
      EXPECT_EQ(Stats.Cache.Stores, EligibleStores);
    }

    // A slice of the matrix re-runs at width 4: injection outcomes are
    // keyed by (site, key) ordinals, not thread interleaving, so the
    // parallel run renders byte-identically.
    if (C % 3 == 0) {
      std::vector<std::string> Par = RunConfig(Spec, 4, nullptr);
      ASSERT_EQ(Par.size(), R.size());
      for (size_t I = 0; I < R.size(); ++I)
        EXPECT_EQ(Par[I], R[I]) << "width divergence under " << Spec;
    }
  }
}

} // namespace
