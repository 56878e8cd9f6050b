//===- perfbench/gencode.cpp - gen-code: Figure 2 -------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// One op is one pass of the seven generated kernels (the C relc-gen
// emitted into <build>/generated; see CMakeLists.txt for how they are
// compiled) over seeded 1 MiB inputs, interleaved kernel by kernel with
// the handwritten kernels of bench/ref.
// Every output — return value and, for the in-place kernels, the whole
// buffer — is compared with bench/ref's; the compiler is never the
// reference. No certification layer runs here.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "ref_impls.h"
#include "relc_generated.h"

#include "common.h"

#include "cgen/CEmit.h"
#include "core/Compiler.h"
#include "programs/Programs.h"

#include <cmath>
#include <map>
#include <cstdio>
#include <cstring>

extern "C" {
// kernels.c: m3s's per-word driver loops.
uint64_t perfbench_gen_m3s(const uint8_t *S, size_t N);
uint64_t perfbench_ref_m3s(const uint8_t *S, size_t N);
}

namespace perfbench {
namespace {

using relc_bench::asciiBytes;
using relc_bench::dnaBytes;
using relc_bench::randomBytes;
using relc_bench::utf8Bytes;

constexpr size_t kBufSize = 1 << 20;
constexpr size_t kProbeBytes = 64 << 10;
/// Seeded inputs per kernel; passes cycle through them.
constexpr unsigned kVariants = 2;

struct Kernel {
  const char *Name; ///< The suite program the kernel was generated from.
  std::vector<uint8_t> (*MakeInput)(size_t, uint64_t);
  uint64_t (*Gen)(uint8_t *, size_t);
  uint64_t (*Ref)(uint8_t *, size_t);
  bool Mutates; ///< Works in place: the buffer is an output too.
};

const Kernel kKernels[] = {
    {"fnv1a", randomBytes,
     [](uint8_t *S, size_t N) -> uint64_t { return relc_fnv1a(uintptr_t(S), N); },
     [](uint8_t *S, size_t N) -> uint64_t { return ref_fnv1a(S, N); }, false},
    {"utf8", utf8Bytes,
     [](uint8_t *S, size_t N) -> uint64_t { return relc_utf8(uintptr_t(S), N); },
     [](uint8_t *S, size_t N) -> uint64_t { return ref_utf8(S, N); }, false},
    {"upstr", asciiBytes,
     [](uint8_t *S, size_t N) -> uint64_t {
       relc_upstr(uintptr_t(S), N);
       return 0;
     },
     [](uint8_t *S, size_t N) -> uint64_t {
       ref_upstr(S, N);
       return 0;
     },
     true},
    {"m3s", randomBytes,
     [](uint8_t *S, size_t N) -> uint64_t { return perfbench_gen_m3s(S, N); },
     [](uint8_t *S, size_t N) -> uint64_t { return perfbench_ref_m3s(S, N); },
     false},
    {"ip", randomBytes,
     [](uint8_t *S, size_t N) -> uint64_t { return relc_ip_chk(uintptr_t(S), N); },
     [](uint8_t *S, size_t N) -> uint64_t { return ref_ip_chk(S, N); }, false},
    {"fasta", dnaBytes,
     [](uint8_t *S, size_t N) -> uint64_t {
       relc_fasta(uintptr_t(S), N);
       return 0;
     },
     [](uint8_t *S, size_t N) -> uint64_t {
       ref_fasta(S, N);
       return 0;
     },
     true},
    {"crc32", randomBytes,
     [](uint8_t *S, size_t N) -> uint64_t { return relc_crc32(uintptr_t(S), N); },
     [](uint8_t *S, size_t N) -> uint64_t { return ref_crc32(S, N); }, false},
};

/// The seeded inputs and per-kernel samples of one run.
class KernelBench {
public:
  explicit KernelBench(uint64_t Seed) : Gen(std::size(kKernels)), Ref(Gen) {
    std::vector<size_t> Idx;
    for (size_t I = 0; I < std::size(kKernels); ++I)
      Idx.push_back(I);
    Rng G(Seed ^ 0x67656e636f6465ULL);
    G.shuffle(Idx);
    Order = Idx;
    for (size_t I = 0; I < std::size(kKernels); ++I)
      for (unsigned V = 0; V < kVariants; ++V)
        Inputs[I][V] = kKernels[I].MakeInput(kBufSize, G.next() | 1);
    BufG.resize(kBufSize);
    BufR.resize(kBufSize);
  }

  /// One pass: every kernel, generated and handwritten back to back (which
  /// goes first alternates by pass), outputs compared. Returns the
  /// generated kernels' total time in ms; a mismatch sets *Why.
  double pass(unsigned PassNo, Tracer *T, uint32_t Op, std::string *Why) {
    double GenMs = 0;
    for (size_t I : Order) {
      const Kernel &K = kKernels[I];
      const std::vector<uint8_t> &In = Inputs[I][PassNo % kVariants];
      uint64_t RG = 0, RR = 0;
      // In-place kernels work on a fresh copy of the input; the others
      // read the input itself.
      auto Buffer = [&](std::vector<uint8_t> &Scratch) {
        if (!K.Mutates)
          return const_cast<uint8_t *>(In.data());
        std::memcpy(Scratch.data(), In.data(), kBufSize);
        return Scratch.data();
      };
      auto RunGen = [&] {
        uint8_t *Buf = Buffer(BufG);
        Scope S(T, "cgen.gen", -1, Op, K.Name);
        int64_t T0 = nowNs();
        RG = K.Gen(Buf, kBufSize);
        int64_t Ns = nowNs() - T0;
        Gen[I].push_back(double(Ns) / double(kBufSize));
        GenMs += double(Ns) / 1e6;
      };
      auto RunRef = [&] {
        uint8_t *Buf = Buffer(BufR);
        Scope S(T, "cgen.ref", -1, Op, K.Name);
        int64_t T0 = nowNs();
        RR = K.Ref(Buf, kBufSize);
        Ref[I].push_back(double(nowNs() - T0) / double(kBufSize));
      };
      if (PassNo % 2 == 0) {
        RunGen();
        RunRef();
      } else {
        RunRef();
        RunGen();
      }
      if (RG != RR || (K.Mutates && BufG != BufR))
        *Why = std::string(K.Name) + ": generated output differs from "
                                     "bench/ref on pass " +
               std::to_string(PassNo);
    }
    return GenMs;
  }

  /// Geomean over kernels of the median over passes of generated /
  /// handwritten time. Each ratio pairs two runs of the same pass, back to
  /// back, so host drift cancels.
  double genVsRef() const {
    double LogSum = 0;
    for (size_t I = 0; I < Gen.size(); ++I) {
      std::vector<double> Ratio;
      for (size_t P = 0; P < Gen[I].size(); ++P)
        Ratio.push_back(Gen[I][P] / Ref[I][P]);
      LogSum += std::log(median(Ratio));
    }
    return std::exp(LogSum / double(Gen.size()));
  }

  /// The cgen.* per-layer metrics: medians of the recorded samples, and
  /// the size of the C cgen::emitFunction prints for each program.
  void cgenMetrics(RunResult &R) const {
    for (size_t I = 0; I < std::size(kKernels); ++I) {
      const std::string P = std::string("cgen.") + kKernels[I].Name;
      R.set(P + ".gen_ns_per_byte", median(Gen[I]), "ns/byte");
      R.set(P + ".ref_ns_per_byte", median(Ref[I]), "ns/byte");
      const relc::programs::ProgramDef *Def =
          relc::programs::findProgram(kKernels[I].Name);
      relc::core::Compiler C;
      relc::Result<relc::core::CompileResult> CR =
          C.compileFn(Def->Model, Def->Spec, Def->Hints);
      relc::cgen::CEmitOptions EOpts;
      EOpts.NamePrefix = "relc_";
      relc::Result<std::string> Code =
          CR ? relc::cgen::emitFunction(CR->Fn, EOpts)
             : relc::Result<std::string>(relc::Error("compile failed"));
      if (!Code)
        R.fail(std::string(kKernels[I].Name) + ": C emission failed");
      R.set(P + ".c_bytes", Code ? double(Code->size()) : 0, "bytes");
    }
  }

  std::vector<std::vector<double>> Gen, Ref; ///< ns/byte, per kernel.

private:
  std::vector<size_t> Order;
  std::vector<uint8_t> Inputs[std::size(kKernels)][kVariants];
  std::vector<uint8_t> BufG, BufR;
};

} // namespace

SpeedProbe::SpeedProbe(Kind K) : K(K) {
  if (K == Kind::Kernels) {
    Scratch.resize(kProbeBytes);
    for (size_t I = 0; I < std::size(kKernels); ++I)
      Inputs.push_back(kKernels[I].MakeInput(kProbeBytes, 0x70726f6265ULL + I));
  }
  Last = Clock::now();
}

void SpeedProbe::maybeRun() {
  if (msSince(Last) >= kIntervalMs)
    run();
}

void SpeedProbe::run() {
  // Run twice and time the second, so that what ran before (a 1 MiB
  // kernel, a certify) does not decide how warm the caches are.
  uint64_t Sink = 0;
  int64_t T0 = 0;
  for (int Rep = 0; Rep < 2; ++Rep) {
    T0 = nowNs();
    if (K == Kind::Kernels) {
      for (size_t I = 0; I < std::size(kKernels); ++I) {
        std::memcpy(Scratch.data(), Inputs[I].data(), kProbeBytes);
        Sink ^= kKernels[I].Ref(Scratch.data(), kProbeBytes);
      }
    } else {
      std::map<std::string, uint64_t> M;
      for (uint64_t I = 0; I < 3000; ++I)
        M[std::to_string(I * 2654435761u) + "-probe-key"] = I;
      for (uint64_t I = 0; I < 3000; ++I)
        Sink += M[std::to_string(I * 40503u) + "-probe-key"];
    }
  }
  const int64_t Ns = nowNs() - T0;
  Last = Clock::now();
  Runs.emplace_back(Last - std::chrono::nanoseconds(Ns / 2), double(Ns) / 1e6);
  if (Sink == 0x5eed)
    std::fprintf(stderr, " "); // Keeps the probe's results live.
}

double SpeedProbe::medianMs() const {
  std::vector<double> Ms;
  for (const auto &Run : Runs)
    Ms.push_back(Run.second);
  return median(Ms);
}

double SpeedProbe::slowdownAt(Clock::time_point T) const {
  if (Runs.empty())
    return 1;
  std::vector<double> Near;
  double NearestMs = 0, NearestDist = 1e300;
  for (const auto &[At, Ms] : Runs) {
    const double Dist =
        std::abs(std::chrono::duration<double, std::milli>(At - T).count());
    if (Dist <= kNearMs)
      Near.push_back(Ms);
    if (Dist < NearestDist) {
      NearestDist = Dist;
      NearestMs = Ms;
    }
  }
  // The probe's median on the reference host (NOTES.md): normalized times
  // read as they would on a host that runs the probe this fast.
  const double NominalMs = K == Kind::Kernels ? 0.67 : 2.1;
  return (Near.empty() ? NearestMs : median(Near)) / NominalMs;
}

void genCheck(const Options &O, RunResult &R) {
  constexpr unsigned Passes = 40;
  KernelBench B(O.Seed);
  std::string Why;
  for (unsigned P = 0; P < Passes && Why.empty(); ++P)
    B.pass(P, nullptr, 0, &Why);
  if (!Why.empty())
    R.fail(Why);
  R.set("gen_vs_ref", B.genVsRef(), "ratio");
  if (O.Trace)
    B.cgenMetrics(R);
}

int runGenCode(const Options &O, SpeedProbe &Probe, RunResult &R) {
  // Set-up: seeded inputs, one checked pass over every input, and two
  // discarded warm-up passes.
  SetupTimer Setup(Probe);
  std::unique_ptr<KernelBench> B;
  for (unsigned K = 0; K < kSetupReps; ++K) {
    Setup.begin();
    B = std::make_unique<KernelBench>(O.Seed);
    std::string Why;
    for (unsigned P = 0; P < kVariants + 2; ++P)
      B->pass(P, nullptr, 0, &Why);
    if (!Why.empty()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Why.c_str());
      return 1;
    }
    Setup.end();
  }
  Setup.report(R);
  B->Gen.assign(B->Gen.size(), {});
  B->Ref.assign(B->Ref.size(), {});

  std::vector<OpTime> Untraced;
  std::vector<double> TracedMs;
  Tracer T;
  const Clock::time_point Start = Clock::now();
  const double Budget = double(O.Seconds) * 1000.0;
  for (uint32_t Op = 0; msSince(Start) < Budget; ++Op) {
    ++R.Attempted;
    const bool Traced = O.Trace && Op % 2 == 1;
    std::string Why;
    const Clock::time_point At = Clock::now();
    double Ms = B->pass(Op, Traced ? &T : nullptr, Op, &Why);
    if (Traced)
      TracedMs.push_back(Ms);
    else
      Untraced.push_back(OpTime{At, Ms});
    if (!Why.empty()) {
      ++R.Failed;
      R.fail(Why);
    }
    Probe.maybeRun();
  }
  const double WindowS = msSince(Start) / 1000.0;
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  latencyMetrics(Untraced, WindowS, Probe, R);
  R.set("gen_vs_ref", B->genVsRef(), "ratio");
  if (O.Trace) {
    B->cgenMetrics(R);
    R.set("trace.overhead_ms", pairedDiff(TracedMs, msOf(Untraced)), "ms");
    if (!T.write(O.TraceDir + "/" + O.Workload + ".trace.json"))
      R.fail("could not write the span file");
  }
  return 0;
}

} // namespace perfbench
