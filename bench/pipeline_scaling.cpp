//===- bench/pipeline_scaling.cpp - Parallel pipeline scaling --------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Measures the two perf levers of the certification pipeline:
//
//  1. Scheduler scaling: full-suite certification wall-clock at
//     -j 1 / 2 / 4 / 8 with the certificate cache disabled. The job graph
//     exposes (programs × independent layers) parallelism; how much of it
//     turns into speedup depends on the machine — the JSON records
//     hardware_threads so readers can interpret the ratios (on a 1-core
//     container every width degenerates to serial, and the numbers then
//     measure scheduler overhead, which must stay small).
//
//  2. Incremental certification: cold (empty cache) vs warm (fully
//     populated cache) suite runs. A warm run skips replay, analysis,
//     translation validation, codelint, and differential testing per
//     program, leaving only compilation + hashing + cache I/O — this
//     speedup is machine-independent. A heap-allocation count for one
//     warm run rides along (this TU arms the bench_common.h counting
//     hook).
//
// Plus two overhead prices that must stay small: the §4.7 guard
// bookkeeping (≤2%) and the target-side codelint layer (≤10% of a full
// certification run). Overhead percentages are computed from medians of
// the interleaved samples — a mean lets one scheduler hiccup on either
// side fabricate (or hide) a percent or two of phantom overhead.
//
// Writes BENCH_pipeline.json (sorted keys) for trajectory tracking;
// EXPERIMENTS.md records the committed numbers.
//
//===----------------------------------------------------------------------===//

#define RELC_BENCH_COUNT_ALLOCS
#include "bench_common.h"
#include "pipeline/Pipeline.h"
#include "programs/Programs.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace relc;
using namespace relc_bench;

namespace {

std::vector<const programs::ProgramDef *> suite() {
  std::vector<const programs::ProgramDef *> Out;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Out.push_back(&P);
  return Out;
}

/// One full-suite certification run; returns wall milliseconds. Aborts the
/// bench on any certification failure — timing a broken pipeline would
/// only produce garbage numbers.
double runOnce(const pipeline::PipelineOptions &Opts) {
  auto T0 = std::chrono::steady_clock::now();
  std::vector<pipeline::ProgramOutcome> Out =
      pipeline::certifyPrograms(suite(), Opts);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  for (const pipeline::ProgramOutcome &O : Out)
    if (!O.ok()) {
      std::fprintf(stderr, "FATAL: %s failed certification:\n%s\n",
                   O.Def->Name.c_str(), O.ValidationError.c_str());
      std::exit(1);
    }
  return Ms;
}

Stats measure(const pipeline::PipelineOptions &Opts, unsigned Reps) {
  runOnce(Opts); // Warmup (page cache, allocator).
  std::vector<double> Samples;
  for (unsigned I = 0; I < Reps; ++I)
    Samples.push_back(runOnce(Opts));
  return stats(Samples);
}

} // namespace

int main() {
  const unsigned Reps = 15;
  const unsigned HwThreads = std::thread::hardware_concurrency();
  const std::vector<unsigned> Widths = {1, 2, 4, 8};

  std::printf("Parallel certification pipeline: full-suite wall-clock\n");
  std::printf("(%zu programs x 5 layers; %u repetitions; %u hardware "
              "thread(s))\n\n",
              suite().size(), Reps, HwThreads);

  // --- Scheduler scaling, cache disabled.
  std::vector<Stats> ByWidth;
  for (unsigned W : Widths) {
    pipeline::PipelineOptions Opts;
    Opts.Jobs = W;
    ByWidth.push_back(measure(Opts, Reps));
    std::printf("  -j %u : %7.2f ms median (+/- %.2f)  speedup vs -j1: "
                "%.2fx\n",
                W, ByWidth.back().Median, ByWidth.back().Ci95,
                ByWidth.front().Median / ByWidth.back().Median);
  }

  // --- Guard overhead: the same serial run with every §4.7 budget armed
  // but sized to never exhaust (a generous deadline and step cap). This
  // prices the pure bookkeeping — atomic step counters at the TV /
  // analysis / differential loop heads plus deadline polls every 256
  // steps — which must stay within noise (≤2%). Guarded and unguarded
  // samples are interleaved so ambient load drift hits both sides
  // equally; comparing two disjoint measurement windows instead can
  // fabricate tens of percent of phantom overhead on a busy machine.
  pipeline::PipelineOptions Plain;
  Plain.Jobs = 1;
  pipeline::PipelineOptions Guarded;
  Guarded.Jobs = 1;
  Guarded.LayerTimeoutMs = 600000;
  Guarded.TvStepBudget = 1000000000ULL;
  runOnce(Plain);
  runOnce(Guarded); // Warmup both.
  std::vector<double> PlainSamples, GuardSamples;
  for (unsigned I = 0; I < Reps; ++I) {
    PlainSamples.push_back(runOnce(Plain));
    GuardSamples.push_back(runOnce(Guarded));
  }
  Stats PlainStats = stats(PlainSamples);
  Stats GuardStats = stats(GuardSamples);
  double GuardPct =
      (GuardStats.Median - PlainStats.Median) / PlainStats.Median * 100.0;
  std::printf("\n  guards off   (-j 1, interleaved)            : %7.2f ms "
              "median (mean %.2f +/- %.2f)\n",
              PlainStats.Median, PlainStats.Mean, PlainStats.Ci95);
  std::printf("  guards armed (-j 1, never-exhausting budgets): %7.2f ms "
              "median (mean %.2f +/- %.2f)  overhead: %+.2f%%\n",
              GuardStats.Median, GuardStats.Mean, GuardStats.Ci95, GuardPct);

  // --- Codelint overhead: the same serial run with the target-side
  // analyzer on (the default) vs off, interleaved like the guard
  // measurement. This prices the whole layer — CFG + symbolic fixpoint +
  // solver-replayed accesses + the trip-count pattern matches — whose
  // budget is ≤10% of a full certification run.
  pipeline::PipelineOptions NoCl;
  NoCl.Jobs = 1;
  NoCl.Codelint = false;
  runOnce(NoCl); // Warmup (Plain is warm from the guard section).
  std::vector<double> ClOnSamples, ClOffSamples;
  for (unsigned I = 0; I < Reps; ++I) {
    ClOnSamples.push_back(runOnce(Plain));
    ClOffSamples.push_back(runOnce(NoCl));
  }
  Stats ClOn = stats(ClOnSamples);
  Stats ClOff = stats(ClOffSamples);
  double ClPct = (ClOn.Median - ClOff.Median) / ClOn.Median * 100.0;
  std::printf("\n  codelint on  (-j 1, interleaved): %7.2f ms median "
              "(mean %.2f +/- %.2f)\n",
              ClOn.Median, ClOn.Mean, ClOn.Ci95);
  std::printf("  codelint off (-j 1, interleaved): %7.2f ms median "
              "(mean %.2f +/- %.2f)  layer share: %+.2f%%\n",
              ClOff.Median, ClOff.Mean, ClOff.Ci95, ClPct);

  // --- Cold vs warm certificate cache, at the widest setting.
  std::string CacheDir =
      (std::filesystem::temp_directory_path() / "relc-bench-cache").string();
  std::filesystem::remove_all(CacheDir);
  pipeline::PipelineOptions Cached;
  Cached.Jobs = Widths.back();
  Cached.CacheDir = CacheDir;

  // Cold: each rep starts from an empty directory and pays certify +
  // store. Median over several reps — a single cold run was how the old
  // bench produced its drifting committed number.
  std::vector<double> ColdSamples;
  for (unsigned I = 0; I < Reps; ++I) {
    std::filesystem::remove_all(CacheDir);
    ColdSamples.push_back(runOnce(Cached));
  }
  Stats Cold = stats(ColdSamples);

  // The final cold rep left a fully populated cache; warm runs never
  // write back, so it stays as built.
  runOnce(Cached); // Warmup.
  std::vector<double> WarmBinSamples;
  for (unsigned I = 0; I < Reps; ++I)
    WarmBinSamples.push_back(runOnce(Cached));
  Stats WarmBin = stats(WarmBinSamples);

  // Heap allocations for one whole warm suite run (this TU defines
  // RELC_BENCH_COUNT_ALLOCS, so global operator new feeds allocCount()
  // binary-wide).
  uint64_t AllocWarm = allocationsDuring([&] { runOnce(Cached); });
  std::filesystem::remove_all(CacheDir);

  std::printf("\n  cache cold        : %7.2f ms median (certify + store)\n",
              Cold.Median);
  std::printf("  cache warm (bin)  : %7.2f ms median (mean %.2f +/- %.2f)  "
              "speedup vs cold: %.2fx  allocs: %llu\n",
              WarmBin.Median, WarmBin.Mean, WarmBin.Ci95,
              Cold.Median / WarmBin.Median,
              (unsigned long long)AllocWarm);

  // All timing fields are medians of interleaved (or repeated) samples;
  // keys stay sorted so diffs of committed files read cleanly.
  std::ofstream J("BENCH_pipeline.json");
  char Buf[160];
  J << "{\n";
  J << "  \"alloc_count_warm\": " << AllocWarm << ",\n";
  std::snprintf(Buf, sizeof(Buf), "  \"cache_cold_ms\": %.3f,\n", Cold.Median);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"cache_warm_ms\": %.3f,\n",
                WarmBin.Median);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"cache_warm_speedup\": %.3f,\n",
                Cold.Median / WarmBin.Median);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"codelint_off_ms\": %.3f,\n",
                ClOff.Median);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"codelint_overhead_pct\": %.3f,\n",
                ClPct);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"guard_overhead_pct\": %.3f,\n",
                GuardPct);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"guarded_jobs_1_ms\": %.3f,\n",
                GuardStats.Median);
  J << Buf;
  J << "  \"hardware_threads\": " << HwThreads << ",\n";
  for (size_t I = 0; I < Widths.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "  \"jobs_%u_ms\": %.3f,\n", Widths[I],
                  ByWidth[I].Median);
    J << Buf;
  }
  J << "  \"programs\": " << suite().size() << ",\n";
  J << "  \"repetitions\": " << Reps << ",\n";
  std::snprintf(Buf, sizeof(Buf), "  \"speedup_j8_vs_j1\": %.3f,\n",
                ByWidth.front().Median / ByWidth.back().Median);
  J << Buf;
  std::snprintf(Buf, sizeof(Buf), "  \"warm_bin_ms\": %.3f\n",
                WarmBin.Median);
  J << Buf;
  J << "}\n";
  std::printf("\nwrote BENCH_pipeline.json\n");
  return 0;
}
