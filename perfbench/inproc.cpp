//===- perfbench/inproc.cpp - cold-suite and warm-suite -------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The two in-process workloads. One op is one service::certify of the
// whole suite at -j 1 with both certificate faces and no C:
//
//   cold-suite  into a cache directory emptied before each op — the
//               "model -> accepted certificate" path, every layer live;
//   warm-suite  against a cache primed at set-up — the relc-lint / CI
//               re-run path, where no certification layer runs.
//
// A traced run alternates untraced ops with a replay of the pipeline's
// per-program chain through the same public layer calls, in pipeline
// order, with a span around each call.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include "common.h"

#include "analysis/Analysis.h"
#include "cert/Binary.h"
#include "cert/Writer.h"
#include "codelint/Codelint.h"
#include "pipeline/Pipeline.h"
#include "programs/Programs.h"
#include "service/Service.h"
#include "tv/Tv.h"
#include "validate/Validate.h"

#include <cstdio>
#include <filesystem>

namespace fs = std::filesystem;

namespace perfbench {
namespace {

using namespace relc;

/// Everything an op's checks compare against.
struct Suite {
  bool Warm = false;
  std::vector<std::string> Order; ///< Seeded program order.
  RefSet Ref;
  std::string CacheDir;
};

service::Request suiteRequest(const Suite &S) {
  service::Request R;
  R.Programs = S.Order;
  R.Jobs = 1;
  R.CacheDir = S.CacheDir;
  R.WantCertJson = true;
  R.WantCertBin = true;
  R.EmitC = false;
  return R;
}

void emptyDir(const std::string &Dir) {
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(Dir, Ec);
}

/// The counts an op must repeat exactly.
struct ExactCounts {
  uint64_t Allocs = 0, TvTerms = 0, JsonBytes = 0, BinBytes = 0;
  uint64_t Hits = 0, Misses = 0, Stores = 0, BinHits = 0;
  bool operator==(const ExactCounts &) const = default;
};

/// Whether op counts \p C repeat \p First. A cold op's allocation count
/// is left out: every cache store names its temp files ".tmp.<pid>.<n>",
/// and once that name outgrows the short-string buffer (a six-digit pid
/// and n >= 1000) each name costs one more allocation.
bool repeats(ExactCounts C, const ExactCounts &First, bool Warm) {
  if (!Warm)
    C.Allocs = First.Allocs;
  return C == First;
}

/// Checks one certify response against the plan and the reference set.
bool checkResponse(const Suite &S, const service::Response &Resp,
                   std::string *Why) {
  if (Resp.Exit != 0 || Resp.Programs.size() != S.Order.size()) {
    *Why = "certify exited " + std::to_string(Resp.Exit);
    return false;
  }
  const service::Provenance Want =
      S.Warm ? service::Provenance::DiskCache : service::Provenance::Live;
  for (size_t I = 0; I < Resp.Programs.size(); ++I) {
    const service::ProgramReply &P = Resp.Programs[I];
    const RefCert &Ref = S.Ref.at(S.Order[I]);
    if (P.Name != S.Order[I] || P.Status != service::ProgramStatus::Certified ||
        P.TvVerdict != "proved" || P.From != Want) {
      *Why = P.Name + ": " + service::statusName(P.Status) + ", tv " +
             P.TvVerdict + ", from " + service::provenanceName(P.From);
      return false;
    }
    if (P.CertJson != Ref.Json || P.CertBin != Ref.Bin) {
      *Why = P.Name + ": certificate differs from the reference set";
      return false;
    }
  }
  const pipeline::CacheStats &C = Resp.Stats.Cache;
  const unsigned N = unsigned(S.Order.size());
  bool CacheOk = S.Warm ? C.Hits == N && C.BinHits == N && C.Misses == 0 &&
                              C.Stores == 0
                        : C.Hits == 0 && C.Misses == N && C.Stores == N;
  if (!CacheOk) {
    *Why = "cache traffic " + std::to_string(C.Hits) + " hits, " +
           std::to_string(C.Misses) + " misses, " + std::to_string(C.Stores) +
           " stores";
    return false;
  }
  return true;
}

ExactCounts countsOf(const service::Response &Resp, uint64_t Allocs) {
  ExactCounts E;
  E.Allocs = Allocs;
  for (const service::ProgramReply &P : Resp.Programs) {
    E.TvTerms += P.Outcome.TvTerms;
    E.JsonBytes += P.CertJson.size();
    E.BinBytes += P.CertBin.size();
  }
  E.Hits = Resp.Stats.Cache.Hits;
  E.Misses = Resp.Stats.Cache.Misses;
  E.Stores = Resp.Stats.Cache.Stores;
  E.BinHits = Resp.Stats.Cache.BinHits;
  return E;
}

/// One untraced op: the certify call is the timed region.
bool certifyOp(const Suite &S, double *Ms, ExactCounts *Counts,
               std::string *Why) {
  service::Request Req = suiteRequest(S);
  service::Response Resp;
  uint64_t A0 = relc_bench::allocCount().load(std::memory_order_relaxed);
  Clock::time_point T0 = Clock::now();
  Resp = service::certify(Req);
  *Ms = msSince(T0);
  uint64_t Allocs = relc_bench::allocCount().load(std::memory_order_relaxed) - A0;
  *Counts = countsOf(Resp, Allocs);
  return checkResponse(S, Resp, Why);
}

/// The layers a replayed chain records, in pipeline order.
const std::vector<const char *> kLayers = {
    "core.compile",     "pipeline.key",     "pipeline.cache_lookup",
    "validate.replay",  "analysis.analyze", "tv.validate",
    "codelint.analyze", "validate.diff",    "cert.write",
    "pipeline.cache_store"};

/// Replays service::certify's per-program chain through the public layer
/// calls, in pipeline order (compile -> key -> lookup -> replay / analysis
/// / tv / codelint -> diff -> cert writers -> store), each under a span.
/// On a warm op the lookup hits and nothing after it runs. With a null
/// tracer the same replay runs without spans.
bool replayOp(const Suite &S, Tracer *T, uint32_t Op, std::string *Why) {
  Scope OpSpan(T, "op", -1, Op);
  pipeline::PipelineOptions PO;
  PO.CacheDir = S.CacheDir;
  pipeline::CertCache Cache(S.CacheDir);
  for (const std::string &Name : S.Order) {
    const programs::ProgramDef &P = *programs::findProgram(Name);
    const RefCert &Ref = S.Ref.at(Name);
    Scope Prog(T, "program", OpSpan.id(), Op, Name);
    const int32_t Parent = Prog.id();

    Result<core::CompileResult> R = Error("not compiled");
    {
      Scope L(T, "core.compile", Parent, Op, Name);
      core::Compiler C;
      R = C.compileFn(P.Model, P.Spec, P.Hints);
    }
    if (!R) {
      *Why = Name + ": compile failed";
      return false;
    }
    core::CompileResult Compiled = R.take();
    bedrock::Module Linked;
    Linked.Functions.push_back(Compiled.Fn);
    validate::ValidationOptions VO = P.VOpts;
    VO.Hints = P.Hints;

    pipeline::CertKey Key;
    uint64_t OptsHash = 0;
    {
      Scope L(T, "pipeline.key", Parent, Op, Name);
      Key = pipeline::certKeyFor(P.Model, P.Hints, P.Spec, Compiled.Fn);
      OptsHash = pipeline::optionsHashFor(VO, PO);
    }
    std::optional<pipeline::CertEntry> Hit;
    {
      Scope L(T, "pipeline.cache_lookup", Parent, Op, Name);
      Hit = Cache.lookup(Key, OptsHash);
    }
    if (S.Warm) {
      if (!Hit || Hit->TvCertificate != Ref.Json || Hit->TvCertBin != Ref.Bin) {
        *Why = Name + ": warm replay missed the cache or read a different "
                      "certificate";
        return false;
      }
      continue;
    }
    if (Hit) {
      *Why = Name + ": cold replay hit the cache";
      return false;
    }

    Status Replayed = Status::success();
    {
      Scope L(T, "validate.replay", Parent, Op, Name);
      Replayed = validate::replayDerivation(P.Model, Compiled);
    }
    analysis::AnalysisReport AR;
    {
      Scope L(T, "analysis.analyze", Parent, Op, Name);
      AR = analysis::analyzeProgram(Compiled.Fn, P.Spec, P.Model,
                                    P.Hints.EntryFacts);
    }
    tv::TvReport TvRep;
    {
      Scope L(T, "tv.validate", Parent, Op, Name);
      TvRep = tv::validateTranslation(P.Model, P.Spec, Compiled.Fn,
                                      P.Hints.EntryFacts);
    }
    codelint::Report CL;
    {
      Scope L(T, "codelint.analyze", Parent, Op, Name);
      CL = codelint::analyzeFunction(Compiled.Fn, P.Spec, P.Model,
                                     P.Hints.EntryFacts);
    }
    Status Diff = Status::success();
    {
      Scope L(T, "validate.diff", Parent, Op, Name);
      Diff = validate::differentialCertify(P.Model, P.Spec, Compiled, Linked,
                                           VO);
    }
    if (!Replayed || AR.hasErrors() ||
        TvRep.TheVerdict != tv::Verdict::Proved ||
        CL.overall() == codelint::Verdict::Unsafe || !Diff) {
      *Why = Name + ": a layer rejected the program in the replay";
      return false;
    }
    std::string Json, Bin;
    {
      Scope L(T, "cert.write", Parent, Op, Name);
      cert::Certificate C = cert::fromTvReport(
          TvRep, {Key.ModelHash, Key.SpecHash, Key.CodeHash});
      C.Codelint = cert::codelintRecOf(CL);
      Json = cert::Writer::write(C);
      Bin = cert::BinWriter::write(C);
    }
    if (Json != Ref.Json || Bin != Ref.Bin) {
      *Why = Name + ": replayed certificate differs from the reference set";
      return false;
    }
    pipeline::CertEntry E;
    E.Program = Name;
    E.OptsHash = OptsHash;
    E.ReplayOk = E.AnalysisOk = E.TvRan = E.CodelintRan = true;
    E.DifferentialOk = true;
    E.AnalysisWarnings = AR.numWarnings();
    E.TvVerdict = tv::verdictName(TvRep.TheVerdict);
    E.TvLoops = TvRep.Loops.size();
    E.TvTerms = TvRep.NumTerms;
    E.TvCertificate = std::move(Json);
    E.TvCertBin = std::move(Bin);
    E.CodelintVerdict = codelint::verdictName(CL.overall());
    Status Stored = Status::success();
    {
      Scope L(T, "pipeline.cache_store", Parent, Op, Name);
      Stored = Cache.store(Key, E);
    }
    if (!Stored) {
      *Why = Name + ": cache store failed";
      return false;
    }
  }
  return true;
}

/// One set-up: the reference set, the cache (primed for warm-suite), and
/// the discarded warm-up ops.
bool setUp(Suite &S, std::string *Why) {
  if (!buildReference(S.Ref, Why))
    return false;
  emptyDir(S.CacheDir);
  double Ms;
  ExactCounts C;
  if (S.Warm) {
    Suite Prime = S;
    Prime.Warm = false;
    if (!certifyOp(Prime, &Ms, &C, Why))
      return false;
  }
  for (unsigned I = 0; I < (S.Warm ? 20u : 1u); ++I) {
    if (!S.Warm)
      emptyDir(S.CacheDir);
    if (!certifyOp(S, &Ms, &C, Why))
      return false;
  }
  return true;
}

int runSuite(const Options &O, bool Warm, SpeedProbe &Probe, RunResult &R) {
  Suite S;
  S.Warm = Warm;
  S.Order = seededProgramOrder(O.Seed);
  S.CacheDir = O.WorkDir + "/cache";

  SetupTimer Setup(Probe);
  for (unsigned K = 0; K < kSetupReps; ++K) {
    Setup.begin();
    std::string Why;
    if (!setUp(S, &Why)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Why.c_str());
      return 1;
    }
    Setup.end();
  }
  Setup.report(R);

  std::vector<OpTime> Untraced;
  std::vector<double> TracedMs, ReplayMs;
  std::vector<uint32_t> TracedOps;
  Tracer T;
  ExactCounts First;
  bool HaveFirst = false;
  const Clock::time_point Start = Clock::now();
  const double Budget = double(O.Seconds) * 1000.0;
  for (uint32_t Op = 0; msSince(Start) < Budget; ++Op) {
    if (!Warm)
      emptyDir(S.CacheDir);
    ++R.Attempted;
    std::string Why;
    bool Ok;
    // A traced run rotates through three kinds of op: the untraced
    // certify (for service.self_ms), the replay with spans, and the same
    // replay without them (their difference is the tracing overhead).
    const unsigned Kind = O.Trace ? Op % 3 : 0;
    if (Kind != 0) {
      Clock::time_point T0 = Clock::now();
      Ok = replayOp(S, Kind == 1 ? &T : nullptr, Op, &Why);
      (Kind == 1 ? TracedMs : ReplayMs).push_back(msSince(T0));
      if (Kind == 1)
        TracedOps.push_back(Op);
    } else {
      double Ms;
      ExactCounts C;
      const Clock::time_point At = Clock::now();
      Ok = certifyOp(S, &Ms, &C, &Why);
      Untraced.push_back(OpTime{At, Ms});
      if (Ok && HaveFirst && !repeats(C, First, Warm))
        R.fail("op " + std::to_string(Op) +
               ": exact counts differ from the first op's");
      if (Ok && !HaveFirst) {
        First = C;
        HaveFirst = true;
      }
    }
    if (!Ok) {
      ++R.Failed;
      R.fail("op " + std::to_string(Op) + ": " + Why);
    }
    Probe.maybeRun();
  }
  const double WindowS = msSince(Start) / 1000.0;
  R.set("peak_rss_mb", peakRssMb(), "MiB");
  // Throughput counts every op of the window; an untraced run has no other.
  latencyMetrics(Untraced, WindowS, Probe, R);

  if (O.Trace) {
    const double P50 = median(msOf(Untraced));
    const double LayerSum = layerMetrics(T, TracedOps, kLayers, R);
    R.set("service.self_ms", P50 - LayerSum, "ms");
    R.set("trace.overhead_ms", pairedDiff(TracedMs, ReplayMs), "ms");
    R.set("alloc.per_op", double(First.Allocs), "count/op");
    R.set("tv.terms", double(First.TvTerms), "count/op");
    R.set("cert.json_bytes", double(First.JsonBytes), "bytes/op");
    R.set("cert.bin_bytes", double(First.BinBytes), "bytes/op");
    R.set("pipeline.cache_hits", double(First.Hits), "count/op");
    R.set("pipeline.cache_misses", double(First.Misses), "count/op");
    R.set("pipeline.cache_stores", double(First.Stores), "count/op");
    R.set("pipeline.cache_bin_hits", double(First.BinHits), "count/op");
    std::fprintf(stderr,
                 "perfbench: untraced p50 %.3f ms = layers %.3f + service "
                 "self %.3f; replay p50 %.3f ms traced, %.3f ms untraced\n",
                 P50, LayerSum, P50 - LayerSum, median(TracedMs),
                 median(ReplayMs));
    if (!T.write(O.TraceDir + "/" + O.Workload + ".trace.json"))
      R.fail("could not write the span file");
  }
  genCheck(O, R);
  return 0;
}

} // namespace

int runColdSuite(const Options &O, SpeedProbe &Probe, RunResult &R) {
  return runSuite(O, false, Probe, R);
}
int runWarmSuite(const Options &O, SpeedProbe &Probe, RunResult &R) {
  return runSuite(O, true, Probe, R);
}

} // namespace perfbench
