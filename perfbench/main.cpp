//===- perfbench/main.cpp - The repository benchmark harness --------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <cold-suite|warm-suite|daemon-mixed|gen-code>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --trace-dir <dir>
//
// Runs one workload for <s> seconds and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Progress
// and every failed check go to stderr. Exit 0 means the run completed (its
// correctness is the "correct" field); any other exit means it could not
// run at all. See NOTES.md for the workloads and the metrics.
//
//===----------------------------------------------------------------------===//

#define RELC_BENCH_COUNT_ALLOCS
#include "bench_common.h"

#include "common.h"

#include "cert/Binary.h"
#include "cert/Reader.h"
#include "cert/Rederive.h"
#include "cert/Writer.h"
#include "programs/Programs.h"
#include "service/Service.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace perfbench {

void RunResult::fail(const std::string &Why) {
  Correct = false;
  if (Problems.size() < 20)
    Problems.push_back(Why);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Linear interpolation between closest ranks.
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double pairedDiff(const std::vector<double> &A, const std::vector<double> &B) {
  std::vector<double> D;
  for (size_t I = 0; I < std::min(A.size(), B.size()); ++I)
    D.push_back(A[I] - B[I]);
  return median(D);
}

double peakRssMb(long Pid) {
  // VmHWM, not getrusage: ru_maxrss also counts the image the process
  // was before exec (here, the python that started it).
  std::ifstream F(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                      : std::string("/proc/self/status"));
  std::string Key;
  while (F >> Key) {
    if (Key == "VmHWM:") {
      double Kb = 0;
      F >> Kb;
      return Kb / 1024.0;
    }
    std::getline(F, Key);
  }
  return 0;
}

std::vector<std::string> seededProgramOrder(uint64_t Seed) {
  std::vector<std::string> Names;
  for (const relc::programs::ProgramDef &P : relc::programs::allPrograms())
    Names.push_back(P.Name);
  Rng G(Seed ^ 0x6f7264657273ULL);
  G.shuffle(Names);
  return Names;
}

void Tracer::merge(const Tracer &O) {
  const int32_t Base = int32_t(Spans.size());
  for (Span S : O.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

std::map<std::string, std::vector<double>>
Tracer::selfMsPerOp(const std::vector<uint32_t> &Ops) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.T1 - S.T0;
  std::map<uint32_t, size_t> OpIndex;
  for (size_t I = 0; I < Ops.size(); ++I)
    OpIndex[Ops[I]] = I;
  std::map<std::string, std::vector<double>> Out;
  auto Add = [&](const std::string &Key, size_t Op, double Ms) {
    std::vector<double> &V = Out[Key];
    V.resize(Ops.size(), 0.0);
    V[Op] += Ms;
  };
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    auto It = OpIndex.find(S.Op);
    if (It == OpIndex.end())
      continue;
    double SelfMs = double(S.T1 - S.T0 - ChildNs[I]) / 1e6;
    Add(S.Name, It->second, SelfMs);
    if (!S.Prog.empty())
      Add(std::string(S.Name) + "." + S.Prog, It->second, SelfMs);
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream F(Path, std::ios::trunc);
  if (!F)
    return false;
  const int64_t Base = Spans.empty() ? 0 : Spans.front().T0;
  F << "{\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%u,\"prog\":\"%s\"}}\n",
                  I ? "," : "", S.Name, S.Op, double(S.T0 - Base) / 1e3,
                  double(S.T1 - S.T0) / 1e3, I, S.Parent, S.Op,
                  S.Prog.c_str());
    F << Buf;
  }
  F << "]}\n";
  return bool(F);
}

double layerMetrics(const Tracer &T, const std::vector<uint32_t> &Ops,
                    const std::vector<const char *> &Layers, RunResult &R) {
  std::map<std::string, std::vector<double>> Self = T.selfMsPerOp(Ops);
  std::vector<double> Zeros(Ops.size(), 0.0);
  double Sum = 0;
  for (const char *L : Layers) {
    auto It = Self.find(L);
    double M = median(It == Self.end() ? Zeros : It->second);
    R.set(std::string(L) + "_ms", M, "ms");
    Sum += M;
  }
  // Per-program breakdowns of the layers the metric list names per program.
  for (const char *L : {"validate.diff", "core.compile"})
    for (const relc::programs::ProgramDef &P : relc::programs::allPrograms()) {
      auto It = Self.find(std::string(L) + "." + P.Name);
      if (It != Self.end())
        R.set(std::string(L) + "_ms." + P.Name, median(It->second), "ms");
    }
  return Sum;
}

bool buildReference(RefSet &Out, std::string *Why) {
  relc::service::Request Req; // The whole suite, no cache, both faces.
  relc::service::Response Resp = relc::service::certify(Req);
  if (Resp.Exit != 0 ||
      Resp.Programs.size() != relc::programs::allPrograms().size()) {
    *Why = "reference certify exited " + std::to_string(Resp.Exit);
    return false;
  }
  Out.clear();
  for (const relc::service::ProgramReply &P : Resp.Programs) {
    const relc::programs::ProgramDef &Def = *P.Outcome.Def;
    std::optional<relc::cert::Certificate> C =
        relc::cert::Reader::parse(P.CertJson);
    if (P.TvVerdict != "proved" || !C) {
      *Why = "reference " + P.Name + ": tv " + P.TvVerdict;
      return false;
    }
    relc::cert::CheckResult CR = relc::cert::Rederive::check(
        *C, Def.Model, Def.Hints.EntryFacts, Def.Spec, P.Outcome.Compiled.Fn);
    if (!CR.Accepted) {
      *Why = "reference " + P.Name + " rejected by the checker: " +
             relc::cert::rejectName(CR.Why) + " " + CR.Detail;
      return false;
    }
    std::optional<relc::cert::Certificate> FromBin =
        relc::cert::BinReader::parse(P.CertBin);
    if (!FromBin || relc::cert::Writer::write(*FromBin) != P.CertJson) {
      *Why = "reference " + P.Name + ": binary face disagrees with JSON";
      return false;
    }
    Out[P.Name] = RefCert{P.CertJson, P.CertBin};
  }
  return true;
}

void SetupTimer::begin() {
  Probe.run();
  T0 = Clock::now();
}

void SetupTimer::end() {
  const Clock::time_point Mid = T0 + (Clock::now() - T0) / 2;
  Raw.push_back(msSince(T0) / 1000.0);
  Probe.run();
  Normalized.push_back(Raw.back() / Probe.slowdownAt(Mid));
}

void SetupTimer::report(RunResult &R) const {
  std::fprintf(stderr, "perfbench: set-up %.4f s as measured\n", median(Raw));
  R.set("setup_s", median(Normalized), "s");
}

void latencyMetrics(const std::vector<OpTime> &Ops, double WindowS,
                    const SpeedProbe &Probe, RunResult &R) {
  constexpr double TailQ = 0.9;
  std::vector<double> Raw, Norm;
  double RawSum = 0, NormSum = 0;
  for (const OpTime &Op : Ops) {
    Raw.push_back(Op.Ms);
    Norm.push_back(Op.Ms / Probe.slowdownAt(Op.At));
    RawSum += Raw.back();
    NormSum += Norm.back();
  }
  const double Tail = quantile(Norm, TailQ);
  size_t Beyond = 0;
  for (double X : Norm)
    Beyond += X > Tail;
  const double RawOps = WindowS > 0 ? double(Ops.size()) / WindowS : 0;
  std::fprintf(stderr,
               "perfbench: %zu ops; tail = p%g (%zu samples beyond)%s; as "
               "measured: p50_ms %.4f tail_ms %.4f ops_per_s %.3f; probe "
               "median %.4f ms\n",
               Ops.size(), TailQ * 100, Beyond,
               Beyond < 10 ? " -- fewer than 10, tail is under-sampled" : "",
               median(Raw), quantile(Raw, TailQ), RawOps, Probe.medianMs());
  R.set("p50_ms", median(Norm), "ms");
  R.set("tail_ms", Tail, "ms");
  // Throughput scales by the slowdown averaged over the time ops took.
  R.set("ops_per_s", NormSum > 0 ? RawOps * RawSum / NormSum : 0, "1/s");
}

} // namespace perfbench

using namespace perfbench;

namespace {

const char *const kWorkloads[] = {"cold-suite", "warm-suite", "daemon-mixed",
                                  "gen-code"};

/// Every per-layer metric a traced run prints. A layer the workload does
/// not run in the benchmark's process reads 0 there.
std::vector<std::pair<std::string, std::string>> perLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> M;
  std::vector<std::string> Progs;
  for (const relc::programs::ProgramDef &P : relc::programs::allPrograms())
    Progs.push_back(P.Name);
  M.push_back({"validate.diff_ms", "ms"});
  for (const std::string &P : Progs)
    M.push_back({"validate.diff_ms." + P, "ms"});
  for (const char *N :
       {"analysis.analyze_ms", "codelint.analyze_ms", "tv.validate_ms",
        "validate.replay_ms", "cert.write_ms", "pipeline.cache_store_ms",
        "core.compile_ms"})
    M.push_back({N, "ms"});
  for (const std::string &P : Progs)
    M.push_back({"core.compile_ms." + P, "ms"});
  for (const char *N :
       {"pipeline.key_ms", "pipeline.cache_lookup_ms", "service.self_ms",
        "trace.overhead_ms", "daemon.hot_ms", "daemon.warm_ms",
        "daemon.cold_ms", "service.dispatch_ms"})
    M.push_back({N, "ms"});
  M.push_back({"service.wire_encode_us", "us"});
  M.push_back({"service.wire_decode_us", "us"});
  M.push_back({"service.reply_bytes", "bytes"});
  for (const char *N :
       {"service.memo_hits", "service.cache_hits", "service.cache_misses",
        "service.cache_stores", "service.busy_rejections",
        "service.worker_spawns", "service.worker_restarts",
        "service.worker_retries", "service.from_memo", "service.from_disk",
        "service.from_live"})
    M.push_back({N, "count/op"});
  for (const std::string &P : Progs) {
    M.push_back({"cgen." + P + ".gen_ns_per_byte", "ns/byte"});
    M.push_back({"cgen." + P + ".ref_ns_per_byte", "ns/byte"});
    M.push_back({"cgen." + P + ".c_bytes", "bytes"});
  }
  M.push_back({"host.probe_ms", "ms"});
  M.push_back({"alloc.per_op", "count/op"});
  M.push_back({"tv.terms", "count/op"});
  M.push_back({"cert.json_bytes", "bytes/op"});
  M.push_back({"cert.bin_bytes", "bytes/op"});
  for (const char *N : {"pipeline.cache_hits", "pipeline.cache_misses",
                        "pipeline.cache_stores", "pipeline.cache_bin_hits"})
    M.push_back({N, "count/op"});
  return M;
}

const char *const kEndToEnd[] = {"setup_s",     "p50_ms",  "tail_ms",
                                 "ops_per_s",   "peak_rss_mb",
                                 "gen_vs_ref"};

/// The counts that must repeat exactly from run to run.
bool isExactCount(const std::string &Name, const std::string &Unit) {
  return Unit == "count/op" || Unit == "bytes/op" ||
         (Name.size() > 8 && Name.compare(Name.size() - 8, 8, ".c_bytes") == 0);
}

/// FNV-1a over the harness binary \p Self and relcd: which build a record
/// of exact counts belongs to.
uint64_t buildId(const char *Self) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const char *Path : {Self, PERFBENCH_RELCD}) {
    std::ifstream F(Path, std::ios::binary);
    char Buf[1 << 16];
    while (F.read(Buf, sizeof(Buf)) || F.gcount() > 0)
      for (std::streamsize I = 0; I < F.gcount(); ++I)
        H = (H ^ uint8_t(Buf[I])) * 0x100000001b3ULL;
  }
  return H;
}

/// Compares this run's exact counts with the ones an earlier traced run of
/// the same workload and the same build recorded in the trace directory
/// (recording them if none did).
void checkExactRecord(const Options &O, const char *Self, RunResult &R) {
  char Id[17];
  std::snprintf(Id, sizeof(Id), "%016llx", (unsigned long long)buildId(Self));
  const std::string Path =
      O.TraceDir + "/exact-" + O.Workload + "-" + Id + ".txt";
  std::map<std::string, std::string> Now;
  for (const auto &[Name, M] : R.Metrics)
    if (isExactCount(Name, M.Unit)) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
      Now[Name] = Buf;
    }
  std::ifstream In(Path);
  if (!In) {
    std::ofstream Out(Path, std::ios::trunc);
    for (const auto &[Name, V] : Now)
      Out << Name << ' ' << V << '\n';
    return;
  }
  std::string Name, V;
  while (In >> Name >> V) {
    auto It = Now.find(Name);
    if (It != Now.end() && It->second != V)
      R.fail("exact count " + Name + " = " + It->second +
             ", an earlier run of this workload and build read " + V);
  }
}

void printNumber(std::string &Out, double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, Ec == std::errc() ? End : Buf);
}

std::string resultJson(const RunResult &R, bool Trace) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const std::string &Name) {
    auto It = R.Metrics.find(Name);
    Out += First ? "" : ", ";
    First = false;
    Out += "\"" + Name + "\": {\"value\": ";
    printNumber(Out, It->second.Value);
    Out += ", \"unit\": \"" + It->second.Unit + "\"}";
  };
  if (Trace) {
    for (const auto &[Name, Unit] : perLayerMetrics())
      Emit(Name);
  } else {
    for (const char *Name : kEndToEnd)
      Emit(Name);
  }
  Out += "}}";
  return Out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cold-suite|warm-suite|"
               "daemon-mixed|gen-code> --seed <n> --seconds <s> --trace "
               "<0|1> --work-dir <dir> --trace-dir <dir>\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = unsigned(std::strtoul(Val.c_str(), nullptr, 10));
    else if (Flag == "--trace")
      O.Trace = Val == "1";
    else if (Flag == "--work-dir")
      O.WorkDir = Val;
    else if (Flag == "--trace-dir")
      O.TraceDir = Val;
    else
      return usage();
  }
  if (argc % 2 == 0 || O.WorkDir.empty() || O.TraceDir.empty() ||
      O.Seconds == 0 ||
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char *W) { return O.Workload == W; }) ==
          std::end(kWorkloads))
    return usage();
  std::error_code Ec;
  fs::create_directories(O.WorkDir, Ec);
  fs::create_directories(O.TraceDir, Ec);

  RunResult R;
  if (O.Trace)
    for (const auto &[Name, Unit] : perLayerMetrics())
      R.set(Name, 0, Unit);

  SpeedProbe Probe(O.Workload == "gen-code" ? SpeedProbe::Kind::Kernels
                                            : SpeedProbe::Kind::Heap);
  int Rc = 0;
  if (O.Workload == "cold-suite")
    Rc = runColdSuite(O, Probe, R);
  else if (O.Workload == "warm-suite")
    Rc = runWarmSuite(O, Probe, R);
  else if (O.Workload == "daemon-mixed")
    Rc = runDaemonMixed(O, Probe, R);
  else
    Rc = runGenCode(O, Probe, R);
  if (Rc != 0)
    return Rc;

  if (O.Trace) {
    R.set("host.probe_ms", Probe.medianMs(), "ms");
    checkExactRecord(O, argv[0], R);
  }
  if (R.Attempted == 0)
    R.fail("no op completed");
  for (const auto &[Name, M] : R.Metrics)
    if (!std::isfinite(M.Value))
      R.fail("metric " + Name + " is not finite");
  if (!O.Trace)
    for (const char *Name : kEndToEnd)
      if (!R.Metrics.count(Name) || R.Metrics[Name].Value <= 0)
        R.fail(std::string("end-to-end metric ") + Name + " is missing or 0");
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", P.c_str());
  std::printf("%s\n", resultJson(R, O.Trace).c_str());
  std::fflush(stdout);
  return 0;
}
