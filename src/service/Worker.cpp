//===- service/Worker.cpp - relcd certification worker ---------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Worker.h"

#include "service/Service.h"
#include "support/Fault.h"

#include <new>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

namespace relc {
namespace service {

wire::Message runCertify(const wire::CertifyRequest &Canon,
                         const WorkerConfig &Cfg) {
  Request R;
  R.Programs = Canon.Programs;
  R.Validate = Canon.Validate;
  R.Analyze = Canon.Analyze;
  R.Tv = Canon.Tv;
  R.Codelint = Canon.Codelint;
  R.Jobs = Cfg.Jobs;
  R.CacheDir = Cfg.CacheDir;
  R.LayerTimeoutMs = Canon.LayerTimeoutMs;
  R.TvStepBudget = Canon.TvStepBudget;
  R.KeepGoing = Canon.KeepGoing;
  R.WantCertJson = Canon.WantCertJson;
  R.WantCertBin = Canon.WantCertBin;
  R.EmitC = false;

  Response Resp = certify(R);

  wire::Message Reply;
  if (!Resp.UsageError.empty()) {
    Reply.TheKind = wire::Kind::ErrorReply;
    Reply.Error.Reason = "unknown-program";
    Reply.Error.Detail = Resp.UsageError;
    return Reply;
  }

  Reply.TheKind = wire::Kind::CertifyReply;
  Reply.Reply.Exit = uint8_t(Resp.Exit);
  Reply.Reply.CacheHits = Resp.Stats.Cache.Hits;
  Reply.Reply.CacheMisses = Resp.Stats.Cache.Misses;
  Reply.Reply.CacheStores = Resp.Stats.Cache.Stores;
  for (const ProgramReply &PR : Resp.Programs) {
    wire::ProgramResult P;
    P.Name = PR.Name;
    P.Status = uint8_t(PR.Status);
    P.From = uint8_t(PR.From);
    P.Error = PR.Error;
    P.DegradedNote = PR.DegradedNote;
    P.TvVerdict = PR.TvVerdict;
    P.CodelintVerdict = PR.CodelintVerdict;
    P.CertJson = PR.CertJson;
    P.CertBin = PR.CertBin;
    Reply.Reply.Programs.push_back(std::move(P));
  }
  return Reply;
}

namespace {

void applyLimit(int Resource, uint64_t Value) {
  rlimit L{};
  L.rlim_cur = Value;
  L.rlim_max = Value;
  ::setrlimit(Resource, &L); // Best-effort; the wall deadline backstops.
}

} // namespace

void workerMain(int Fd, const WorkerConfig &Cfg) {
  // Allocation failure must be a *classifiable* death: RLIMIT_AS turns
  // a runaway job into bad_alloc, and this turns bad_alloc into the
  // one exit code the supervisor names "worker-oom".
  std::set_new_handler([] { _exit(kWorkerOomExit); });
  if (Cfg.MemLimitMb)
    applyLimit(RLIMIT_AS, Cfg.MemLimitMb << 20);
  if (Cfg.CpuLimitSec)
    applyLimit(RLIMIT_CPU, Cfg.CpuLimitSec);

  std::string Buf;
  for (;;) {
    size_t FrameSize = 0;
    std::string_view Payload;
    wire::FrameStatus FS = wire::splitFrame(Buf, &FrameSize, &Payload);
    if (FS == wire::FrameStatus::Ok) {
      wire::Message Req;
      std::string Reason;
      wire::Message Reply;
      if (!wire::decode(Payload, &Req, &Reason)) {
        Reply.TheKind = wire::Kind::ErrorReply;
        Reply.Error.Reason = Reason;
      } else if (Req.TheKind != wire::Kind::CertifyRequest) {
        Reply.TheKind = wire::Kind::ErrorReply;
        Reply.Error.Reason = "unknown-request-kind";
      } else {
        // svc-worker-oom: starve this job for memory *for real*. A forked
        // worker inherits the parent's already-mapped heap (malloc arenas,
        // free lists), which RLIMIT_AS cannot revoke — so an absolute
        // limit only bites once a job outgrows that inherited slack. The
        // hog allocates until operator new fails, driving the genuine
        // bad_alloc → new-handler → exit-77 → "worker-oom" path no matter
        // how much slack the fork carried over. Bounded so that arming
        // the site without a mem limit degrades into a plain exit-77
        // rather than eating the machine.
        if (fault::fire(fault::Site::SvcWorkerOom,
                        Req.Certify.Programs.empty()
                            ? std::string("all")
                            : Req.Certify.Programs.front())) {
          std::vector<char *> Hog;
          for (unsigned I = 0; I < 4096; ++I)
            Hog.push_back(new char[1 << 20]);
          _exit(kWorkerOomExit);
        }
        Reply = runCertify(Req.Certify, Cfg);
      }
      Buf.erase(0, FrameSize);
      if (!wire::sendFrame(Fd, Reply))
        _exit(0); // Supervisor went away; nothing left to serve.
      continue;
    }
    if (FS != wire::FrameStatus::NeedMore)
      _exit(1); // Corrupt supervisor channel: unrecoverable.

    char Tmp[65536];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      _exit(0);
    }
    if (N == 0)
      _exit(0); // Clean EOF: the supervisor closed its end.
    Buf.append(Tmp, size_t(N));
  }
}

} // namespace service
} // namespace relc
