//===- bench/fig2_performance.cpp - Figure 2: generated vs handwritten -----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Figure 2: cycles per byte on 1 MiB inputs for the seven
// benchmark programs, relationally generated C ("Rupicola") against
// handwritten C, both compiled by the same host compiler at the same
// optimization level. Error bars are 95% confidence intervals over
// repeated runs (the paper uses 1000 runs of 1 MiB; we default to 200,
// which gives comparable intervals).
//
// Outputs both google-benchmark rows (bytes/sec + cycles_per_byte
// counters) and, afterwards, the paper-shaped summary table with the
// Rupicola/handwritten ratio per program, also written to
// BENCH_fig2.json.
//
//===----------------------------------------------------------------------===//

#include "fig2_kernels.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <fstream>

using namespace relc_bench;

namespace {

constexpr size_t kBufSize = 1 << 20; // 1 MiB, as in the paper.
constexpr unsigned kReps = 200;

/// Cross-checks that both implementations agree before any timing: the
/// bench refuses to compare semantically different programs.
void crossCheck() {
  for (const Kernel &T : kKernels) {
    std::vector<uint8_t> In = T.MakeInput(4096, 42);
    std::vector<uint8_t> A = In, B = In;
    uint64_t RA = T.RunGenerated(A.data(), A.size());
    uint64_t RB = T.RunHandwritten(B.data(), B.size());
    if (RA != RB || A != B) {
      std::fprintf(stderr,
                   "fig2: generated and handwritten '%s' disagree; refusing "
                   "to benchmark\n",
                   T.Name);
      std::exit(1);
    }
  }
}

void benchOne(benchmark::State &State, const Kernel &T, bool Generated) {
  std::vector<uint8_t> Input = T.MakeInput(kBufSize, 0xf19u + Generated);
  std::vector<uint8_t> Scratch = Input;
  uint64_t Sink = 0;
  for (auto _ : State) {
    if (T.Mutates)
      Scratch = Input; // Copy excluded? No: kept inside; both sides pay it.
    Sink ^= (Generated ? T.RunGenerated : T.RunHandwritten)(Scratch.data(),
                                                            Scratch.size());
    benchmark::DoNotOptimize(Sink);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(kBufSize));
  // cycles/byte from a clean measurement pass (no copy overhead).
  std::vector<uint8_t> Buf = Input;
  auto Runner = [&] {
    if (T.Mutates)
      std::memcpy(Buf.data(), Input.data(), Input.size());
    uint64_t R =
        (Generated ? T.RunGenerated : T.RunHandwritten)(Buf.data(),
                                                        Buf.size());
    benchmark::DoNotOptimize(R);
  };
  Stats S = cyclesPerByte(Runner, kBufSize, 24);
  State.counters["cycles_per_byte"] = S.Mean;
}

void registerAll() {
  for (const Kernel &T : kKernels) {
    benchmark::RegisterBenchmark(
        (std::string("fig2/") + T.Name + "/rupicola").c_str(),
        [&T](benchmark::State &S) { benchOne(S, T, true); });
    benchmark::RegisterBenchmark(
        (std::string("fig2/") + T.Name + "/handwritten_c").c_str(),
        [&T](benchmark::State &S) { benchOne(S, T, false); });
  }
}

/// The paper-shaped table: per program, cycles/byte ±95% CI for both
/// implementations, plus the ratio (1.00 = parity, the paper's claim).
/// The same numbers, their geomean ratio and the C compiler that built
/// both sides go to BENCH_fig2.json in the working directory.
void paperTable() {
  const double GHz = estimateGHz();
  std::printf("\n=== Figure 2: cycles per byte, 1 MiB input, %u runs, 95%% "
              "CI (lower is better) ===\n",
              kReps);
  std::printf("TSC ~%.2f GHz\n", GHz);
  std::printf("%-8s %22s %22s %8s\n", "program", "Rupicola (generated C)",
              "handwritten C", "ratio");
  std::ofstream J("BENCH_fig2.json");
  J << "{\n  \"bench\": \"fig2_performance\",\n  \"c_compiler\": \""
    << RELC_C_COMPILER << "\",\n  \"c_flags\": \"" << RELC_C_FLAGS
    << "\",\n  \"buffer_bytes\": " << kBufSize << ",\n  \"reps\": "
    << kReps << ",\n  \"programs\": [\n";
  double LogSum = 0;
  for (const Kernel &T : kKernels) {
    std::vector<uint8_t> Input = T.MakeInput(kBufSize, 0xbeef);
    std::vector<uint8_t> Buf = Input;
    // Generated and handwritten passes alternate, and which goes first
    // flips every rep, so host drift moves both sides alike. The first
    // two reps are warm-up.
    std::vector<double> GenCpb, RefCpb;
    for (unsigned Rep = 0; Rep < kReps + 2; ++Rep)
      for (bool Gen : {Rep % 2 == 0, Rep % 2 != 0}) {
        uint64_t C0 = cycleCount();
        if (T.Mutates)
          std::memcpy(Buf.data(), Input.data(), Input.size());
        uint64_t R = (Gen ? T.RunGenerated : T.RunHandwritten)(Buf.data(),
                                                               Buf.size());
        benchmark::DoNotOptimize(R);
        if (Rep >= 2)
          (Gen ? GenCpb : RefCpb)
              .push_back(double(cycleCount() - C0) / double(kBufSize));
      }
    Stats G = stats(GenCpb);
    Stats H = stats(RefCpb);
    const double Ratio = H.Mean > 0 ? G.Mean / H.Mean : 0.0;
    LogSum += std::log(Ratio);
    std::printf("%-8s %13.3f ± %6.3f %13.3f ± %6.3f %7.2fx\n", T.Name,
                G.Mean, G.Ci95, H.Mean, H.Ci95, Ratio);
    char Row[256];
    std::snprintf(Row, sizeof(Row),
                  "    {\"name\": \"%s\", \"gen_cycles_per_byte\": %.4f, "
                  "\"gen_ci95\": %.4f, \"ref_cycles_per_byte\": %.4f, "
                  "\"ref_ci95\": %.4f, \"ratio\": %.4f}%s\n",
                  T.Name, G.Mean, G.Ci95, H.Mean, H.Ci95, Ratio,
                  &T == &kKernels[std::size(kKernels) - 1] ? "" : ",");
    J << Row;
  }
  const double Geomean = std::exp(LogSum / double(std::size(kKernels)));
  char Tail[128];
  std::snprintf(Tail, sizeof(Tail),
                "  ],\n  \"geomean_ratio\": %.4f,\n  \"tsc_ghz\": %.3f\n}\n",
                Geomean, GHz);
  J << Tail;
  std::printf("geomean ratio %.3fx\n", Geomean);
  std::printf("(paper: ratios within optimizing-compiler fluctuation of "
              "1.0x across GCC/Clang; one missed vectorization in upstr "
              "with GCC)\n");
  std::printf("wrote BENCH_fig2.json\n");
}

} // namespace

int main(int argc, char **argv) {
  crossCheck();
  registerAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  paperTable();
  return 0;
}
