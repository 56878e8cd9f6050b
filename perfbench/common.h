//===- perfbench/common.h - Shared plumbing of the repo benchmark -*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// What every workload of the benchmark shares: the run options, the
// result it prints (correct / attempted / failed / metrics), quantiles,
// the seeded generator, the span recorder of traced runs, and the
// reference certificate set every certification workload compares its
// output against.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_PERFBENCH_COMMON_H
#define RELC_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< Scratch space for caches and sockets.
  std::string TraceDir; ///< Where a traced run writes its span file.
};

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr unsigned kSetupReps = 3;

/// What one run prints as its last line.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;
  std::vector<std::string> Problems;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Records a failed correctness check (printed to stderr at the end).
  void fail(const std::string &Why);
};

double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// The median of A[I] - B[I] over the pairs both have: the tracing
/// overhead from ops that ran side by side, so host drift cancels.
double pairedDiff(const std::vector<double> &A, const std::vector<double> &B);

/// Peak resident set (VmHWM) of process \p Pid, or of this process when
/// \p Pid is 0, in MiB.
double peakRssMb(long Pid = 0);

/// Deterministic splitmix64 stream: the same seed gives the same inputs on
/// every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return size_t(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// The suite's program names in the run's seeded order.
std::vector<std::string> seededProgramOrder(uint64_t Seed);

//===----------------------------------------------------------------------===//
// Spans of traced runs: name, start, end, parent, op id — kept in memory,
// written as Chrome trace-event JSON when the run ends.
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = "";
  std::string Prog; ///< Program the span belongs to ("" for none).
  int32_t Parent = -1;
  uint32_t Op = 0;
  int64_t T0 = 0, T1 = 0;
};

class Tracer {
public:
  int32_t begin(const char *Name, int32_t Parent, uint32_t Op,
                const std::string &Prog = "") {
    Spans.push_back(Span{Name, Prog, Parent, Op, nowNs(), 0});
    return int32_t(Spans.size() - 1);
  }
  void end(int32_t Id) { Spans[size_t(Id)].T1 = nowNs(); }

  /// Appends \p O's spans (parent links re-based).
  void merge(const Tracer &O);

  /// Per span name, the self time (ms) summed within each op, for every
  /// op in \p Ops (0 where the name never occurred); and the same keyed
  /// "<name>.<prog>" for spans that belong to a program.
  std::map<std::string, std::vector<double>>
  selfMsPerOp(const std::vector<uint32_t> &Ops) const;

  bool write(const std::string &Path) const;

  std::vector<Span> Spans;
};

/// RAII span; a null tracer records nothing (the untraced ops).
class Scope {
public:
  Scope(Tracer *T, const char *Name, int32_t Parent, uint32_t Op,
        const std::string &Prog = "")
      : T(T), Id(T ? T->begin(Name, Parent, Op, Prog) : -1) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t id() const { return Id; }

private:
  Tracer *T;
  int32_t Id;
};

/// Per-layer metrics from spans: sets "<layer>_ms" to the median per-op
/// self time of each span name in \p Layers (0 where it never ran), and
/// "<layer>_ms.<prog>" for the layers reported per program. Returns the
/// sum of the per-layer medians.
double layerMetrics(const Tracer &T, const std::vector<uint32_t> &Ops,
                    const std::vector<const char *> &Layers, RunResult &R);

//===----------------------------------------------------------------------===//
// The reference certificate set, made at set-up.
//===----------------------------------------------------------------------===//

struct RefCert {
  std::string Json, Bin;
};
using RefSet = std::map<std::string, RefCert>;

/// Certifies the whole suite in-process without a cache and checks every
/// certificate with the independent checker (cert::Rederive) and the two
/// faces against each other. False with *Why on any failure.
bool buildReference(RefSet &Out, std::string *Why);

//===----------------------------------------------------------------------===//
// Shared result shaping.
//===----------------------------------------------------------------------===//

/// The post-window generated-vs-handwritten check the three certification
/// workloads end with (gencode.cpp): 40 interleaved passes over seeded
/// 1 MiB inputs, every output compared with bench/ref. Sets gen_vs_ref and,
/// in traced runs, the cgen.* metrics.
void genCheck(const Options &O, RunResult &R);

/// The host-speed probe: a fixed piece of work no change to relc can
/// touch, timed at intervals through set-up and the window. The host this
/// benchmark runs on drifts by 10-40% over seconds to minutes, and the
/// probe tracks it; every end-to-end time is divided by the slowdown the
/// probe saw around it (see NOTES.md). It comes in two kinds, each like
/// the workloads it measures the host for:
///   Heap     a fixed round of std::map<std::string> inserts and lookups
///            (allocation and pointer chasing, like compiling and
///            certifying): cold-suite, warm-suite, daemon-mixed;
///   Kernels  bench/ref's handwritten kernels over fixed 64 KiB inputs
///            (streaming byte loops): gen-code.
class SpeedProbe {
public:
  enum class Kind { Heap, Kernels };
  explicit SpeedProbe(Kind K);
  /// Runs the probe if at least kIntervalMs passed since its last run.
  void maybeRun();
  void run();
  double medianMs() const;
  /// The probe's median over the runs within kNearMs of \p T (or the
  /// nearest run), relative to its median on the reference host.
  double slowdownAt(Clock::time_point T) const;

  static constexpr double kIntervalMs = 200;
  static constexpr double kNearMs = 400;

private:
  Kind K;
  std::vector<std::vector<uint8_t>> Inputs;
  std::vector<uint8_t> Scratch;
  std::vector<std::pair<Clock::time_point, double>> Runs; ///< Midpoint, ms.
  Clock::time_point Last;
};

/// Set-up times: each set-up is bracketed by probe runs and divided by the
/// slowdown around it; setup_s is the median over the kSetupReps set-ups.
class SetupTimer {
public:
  explicit SetupTimer(SpeedProbe &P) : Probe(P) {}
  void begin();
  void end();
  void report(RunResult &R) const;

private:
  SpeedProbe &Probe;
  Clock::time_point T0;
  std::vector<double> Raw, Normalized;
};

/// One op of a window: when it started and how long it took, as measured.
struct OpTime {
  Clock::time_point At;
  double Ms = 0;
};

inline std::vector<double> msOf(const std::vector<OpTime> &Ops) {
  std::vector<double> Ms;
  for (const OpTime &Op : Ops)
    Ms.push_back(Op.Ms);
  return Ms;
}

/// Sets p50_ms, tail_ms (p90) and ops_per_s from the window's ops, each
/// op's latency divided by the slowdown around it, over \p WindowS seconds
/// of traffic; prints the as-measured values and the count beyond the
/// tail on stderr.
void latencyMetrics(const std::vector<OpTime> &Ops, double WindowS,
                    const SpeedProbe &Probe, RunResult &R);

/// The workloads. Each runs \p Probe through its set-up and window.
int runColdSuite(const Options &O, SpeedProbe &Probe, RunResult &R);
int runWarmSuite(const Options &O, SpeedProbe &Probe, RunResult &R);
int runDaemonMixed(const Options &O, SpeedProbe &Probe, RunResult &R);
int runGenCode(const Options &O, SpeedProbe &Probe, RunResult &R);

} // namespace perfbench

#endif // RELC_PERFBENCH_COMMON_H
