//===- service/Server.cpp - relcd daemon core ------------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "core/Rule.h"
#include "service/Service.h"
#include "service/Worker.h"
#include "support/Fault.h"
#include "support/Hash.h"
#include "support/StringExtras.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace relc {
namespace service {

namespace {

/// Poll slice: every blocking wait wakes at least this often to check
/// the stop flag, so shutdown latency is bounded without signals.
constexpr int kPollSliceMs = 100;

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

Server::Server(ServerOptions O) : Opts(std::move(O)) {}

Server::~Server() {
  requestStop();
  if (Started)
    wait();
}

Status Server::start() {
  sockaddr_un Addr{};
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Error("relcd: socket path unusable (empty or longer than " +
                 std::to_string(sizeof(Addr.sun_path) - 1) + " bytes): '" +
                 Opts.SocketPath + "'");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  // Socket ownership lock: two daemons racing onto the same path could
  // both probe a stale socket dead, both unlink, and the loser would
  // silently serve nothing. The flock on the `.lock` sibling makes
  // ownership atomic — the loser fails here, by name, before touching
  // the socket file. The lock file is never unlinked (unlinking would
  // let a third daemon lock a fresh inode while the old one is still
  // held); the flock dies with the process, so crashes leave no stale
  // ownership behind.
  const std::string LockPath = Opts.SocketPath + ".lock";
  LockFd = ::open(LockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (LockFd < 0)
    return Error("relcd: cannot open socket lock " + LockPath + ": " +
                 std::strerror(errno));
  if (::flock(LockFd, LOCK_EX | LOCK_NB) != 0) {
    ::close(LockFd);
    LockFd = -1;
    return Error("relcd: socket-in-use: another relcd holds " + LockPath +
                 " (socket " + Opts.SocketPath + ")");
  }

  // Warm the registry fingerprint once: every ping and memo key reuses
  // it instead of refolding the rule registry per request.
  RegistryFingerprint = core::standardRegistryFingerprint();

  auto FailWith = [this](Status S) {
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    ::close(LockFd);
    LockFd = -1;
    return S;
  };

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return FailWith(
        Error(std::string("relcd: socket: ") + std::strerror(errno)));

  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    if (errno != EADDRINUSE)
      return FailWith(Error("relcd: bind " + Opts.SocketPath + ": " +
                            std::strerror(errno)));
    // The path exists and we hold the lock, so no *locked* daemon owns
    // it. A predecessor killed mid-request leaves a stale socket file
    // behind; probe it — only a live (pre-lock-era, or foreign) daemon
    // answers.
    int Probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    bool Alive =
        Probe >= 0 &&
        ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
            0;
    if (Probe >= 0)
      ::close(Probe);
    if (Alive)
      return FailWith(
          Error("relcd: address-in-use: another relcd is serving " +
                Opts.SocketPath));
    ::unlink(Opts.SocketPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0)
      return FailWith(Error("relcd: bind " + Opts.SocketPath + ": " +
                            std::strerror(errno)));
  }

  if (::listen(ListenFd, 128) != 0)
    return FailWith(
        Error(std::string("relcd: listen: ") + std::strerror(errno)));

  // Spawn the worker pool before the daemon goes multi-threaded, so the
  // initial forks happen from a quiet process.
  if (Opts.Workers > 0) {
    SupervisorOptions SupO;
    SupO.Workers = Opts.Workers;
    SupO.RetryLimit = Opts.WorkerRetries;
    SupO.JobWallMs = Opts.JobWallMs;
    SupO.BackoffBaseMs = Opts.WorkerBackoffBaseMs;
    SupO.BackoffCapMs = Opts.WorkerBackoffCapMs;
    SupO.BackoffSeed = RegistryFingerprint;
    SupO.Worker.CacheDir = Opts.CacheDir;
    SupO.Worker.Jobs = Opts.Jobs;
    SupO.Worker.MemLimitMb = Opts.WorkerMemLimitMb;
    SupO.Worker.CpuLimitSec = Opts.WorkerCpuLimitSec;
    if (!Opts.CacheDir.empty())
      SupO.CrashDir = Opts.CacheDir + "/crash-reports";
    Sup = std::make_unique<Supervisor>(SupO);
    if (Status S = Sup->start(); !S) {
      Sup.reset();
      return FailWith(S);
    }
  }

  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  return Status::success();
}

void Server::requestStop() {
  // Begin the graceful drain; the accept loop owns the rest (listener
  // close, in-flight wait, hard stop, worker-pool teardown). When the
  // accept loop never started (start() failed), hard-stop directly.
  if (!Draining.exchange(true, std::memory_order_acq_rel))
    DrainCount.fetch_add(1);
  if (!Started)
    Stop.store(true, std::memory_order_release);
}

bool Server::draining() const {
  return Draining.load(std::memory_order_acquire);
}

bool Server::stopping() const {
  return Stop.load(std::memory_order_acquire);
}

void Server::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  std::unique_lock<std::mutex> L(DrainMu);
  DrainCv.wait(L, [this] { return ActiveConns.load() == 0; });
}

wire::Stats Server::stats() const {
  wire::Stats S;
  S.Requests = Requests.load();
  S.CertifyRequests = CertifyRequests.load();
  S.MemoHits = MemoHits.load();
  S.CacheHits = CacheHits.load();
  S.CacheMisses = CacheMisses.load();
  S.CacheStores = CacheStores.load();
  S.BusyRejections = BusyRejections.load();
  S.ProtocolRejections = ProtocolRejections.load();
  S.FaultedRequests = FaultedRequests.load();
  S.ActiveConnections = ActiveConns.load();
  S.Workers = Opts.Workers;
  if (Sup) {
    SupervisorCounters C = Sup->counters();
    S.WorkerSpawns = C.Spawns;
    S.WorkerRestarts = C.Restarts;
    S.WorkerSpawnFailures = C.SpawnFailures;
    S.WorkerCrashes = C.Crashes;
    S.WorkerOoms = C.Ooms;
    S.WorkerTimeouts = C.Timeouts;
    S.WorkerRetries = C.Retries;
    S.WorkerDegraded = C.DegradedReplies;
  }
  S.Drains = DrainCount.load();
  S.CacheDir = Opts.CacheDir;
  return S;
}

void Server::acceptLoop() {
  while (!draining()) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, kPollSliceMs);
    if (R <= 0)
      continue; // Timeout or EINTR: re-check the stop flag.
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    uint64_t ConnId = NextConnId.fetch_add(1);
    // svc-accept: injected accept-side failure — the connection is
    // dropped exactly as if accept() had failed, and the client's
    // connect/retry logic must absorb it.
    if (fault::fireWithRetry(fault::Site::SvcAccept, Opts.SocketPath)) {
      ::close(Fd);
      continue;
    }
    if (ActiveConns.load() >= Opts.MaxClients) {
      // Connection-level backpressure: one named reply, then close.
      BusyRejections.fetch_add(1);
      wire::Message E;
      E.TheKind = wire::Kind::ErrorReply;
      E.Error.Reason = "server-busy";
      E.Error.Detail = "connection cap reached (max-clients " +
                       std::to_string(Opts.MaxClients) + ")";
      writeFrame(Fd, ConnId, E);
      ::close(Fd);
      continue;
    }
    ActiveConns.fetch_add(1);
    std::thread([this, Fd, ConnId] { serveConnection(Fd, ConnId); }).detach();
  }

  // Graceful drain: stop listening first (new connects are refused by
  // the OS, and the socket path disappears), let in-flight jobs finish
  // up to the drain deadline — connections stay open and get named
  // "server-busy" replies for new certify work — then hard-stop.
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(Opts.SocketPath.c_str());
  auto DrainT0 = std::chrono::steady_clock::now();
  while (Inflight.load() > 0 &&
         msSince(DrainT0) < double(Opts.DrainTimeoutMs))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Stop.store(true, std::memory_order_release);
  if (Sup)
    Sup->stop(); // Unsticks any over-deadline jobs with a named loss.
  if (LockFd >= 0) {
    ::close(LockFd); // Releases the flock; the lock file stays.
    LockFd = -1;
  }
}

void Server::serveConnection(int Fd, uint64_t ConnId) {
  const std::string ConnKey = std::to_string(ConnId);
  std::string Buf;
  auto FrameStart = std::chrono::steady_clock::now();

  while (!stopping()) {
    size_t FrameSize = 0;
    std::string_view Payload;
    wire::FrameStatus FS = wire::splitFrame(Buf, &FrameSize, &Payload);

    if (FS == wire::FrameStatus::Ok) {
      wire::Message Req;
      std::string Reason;
      if (!wire::decode(Payload, &Req, &Reason)) {
        ProtocolRejections.fetch_add(1);
        wire::Message E;
        E.TheKind = wire::Kind::ErrorReply;
        E.Error.Reason = Reason;
        writeFrame(Fd, ConnId, E);
        break;
      }
      Buf.erase(0, FrameSize);
      FrameStart = std::chrono::steady_clock::now();
      Requests.fetch_add(1);
      wire::Message Reply = dispatch(Req);
      if (!writeFrame(Fd, ConnId, Reply))
        break;
      if (Req.TheKind == wire::Kind::ShutdownRequest)
        break;
      continue;
    }

    if (FS != wire::FrameStatus::NeedMore) {
      // Named frame rejection: the peer learns exactly why.
      ProtocolRejections.fetch_add(1);
      wire::Message E;
      E.TheKind = wire::Kind::ErrorReply;
      E.Error.Reason = wire::frameStatusReason(FS);
      writeFrame(Fd, ConnId, E);
      break;
    }

    // Slow-loris guard: once a frame has started arriving, the rest
    // must follow within the window.
    if (!Buf.empty() && msSince(FrameStart) > double(Opts.ReadTimeoutMs)) {
      ProtocolRejections.fetch_add(1);
      wire::Message E;
      E.TheKind = wire::Kind::ErrorReply;
      E.Error.Reason = "request-timeout";
      E.Error.Detail = "frame incomplete after " +
                       std::to_string(Opts.ReadTimeoutMs) + " ms";
      writeFrame(Fd, ConnId, E);
      break;
    }

    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, kPollSliceMs);
    if (R < 0 && errno != EINTR)
      break;
    if (R <= 0)
      continue;
    // svc-read: injected read-side I/O failure — the connection drops
    // with no reply, exactly like a real failed read.
    if (fault::fireWithRetry(fault::Site::SvcRead, ConnKey))
      break;
    char Tmp[65536];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0) {
      // EOF between frames is a clean disconnect; EOF mid-frame is the
      // named truncation (the peer may have shut down only its write
      // side, so the reply can still land).
      if (!Buf.empty()) {
        ProtocolRejections.fetch_add(1);
        wire::Message E;
        E.TheKind = wire::Kind::ErrorReply;
        E.Error.Reason = "truncated-frame";
        E.Error.Detail =
            "peer closed after " + std::to_string(Buf.size()) + " bytes";
        writeFrame(Fd, ConnId, E);
      }
      break;
    }
    if (Buf.empty())
      FrameStart = std::chrono::steady_clock::now();
    Buf.append(Tmp, size_t(N));
  }

  ::close(Fd);
  {
    std::lock_guard<std::mutex> L(DrainMu);
    ActiveConns.fetch_sub(1);
    DrainCv.notify_all();
  }
}

bool Server::writeFrame(int Fd, uint64_t ConnId, const wire::Message &Reply) {
  // svc-write: injected write-side I/O failure — the reply is lost and
  // the connection drops, exactly like a peer that died mid-read.
  if (fault::fireWithRetry(fault::Site::SvcWrite, std::to_string(ConnId)))
    return false;
  return wire::sendFrame(Fd, Reply);
}

wire::Message Server::dispatch(const wire::Message &Req) {
  wire::Message Reply;
  switch (Req.TheKind) {
  case wire::Kind::PingRequest:
    Reply.TheKind = wire::Kind::PongReply;
    Reply.ThePong.ApiVersion = kApiVersion;
    Reply.ThePong.SchemaVersion = wire::kSchemaVersion;
    Reply.ThePong.RegistryFingerprint = RegistryFingerprint;
    Reply.ThePong.Pid = uint64_t(::getpid());
    return Reply;
  case wire::Kind::StatsRequest:
    Reply.TheKind = wire::Kind::StatsReply;
    Reply.TheStats = stats();
    return Reply;
  case wire::Kind::ShutdownRequest:
    Reply.TheKind = wire::Kind::ShutdownReply;
    requestStop();
    return Reply;
  case wire::Kind::CertifyRequest:
    CertifyRequests.fetch_add(1);
    return handleCertify(Req.Certify);
  default:
    // Well-formed frame, but not a request (a reply kind, say).
    ProtocolRejections.fetch_add(1);
    Reply.TheKind = wire::Kind::ErrorReply;
    Reply.Error.Reason = "unknown-request-kind";
    return Reply;
  }
}

wire::Message Server::handleCertify(const wire::CertifyRequest &WReq) {
  wire::Message Reply;
  if (draining()) {
    // Drain discipline: in-flight jobs finish; *new* certify work is
    // backpressure, named like any other busy refusal so retrying
    // clients treat it as transient.
    BusyRejections.fetch_add(1);
    Reply.TheKind = wire::Kind::ErrorReply;
    Reply.Error.Reason = "server-busy";
    Reply.Error.Detail = "server draining";
    return Reply;
  }

  // Canonicalize: a request that carries no budget gets the server's
  // defaults, so every dispatched certification is bounded — and the
  // memo key is computed over the budgets that actually apply.
  wire::CertifyRequest Canon = WReq;
  if (Canon.LayerTimeoutMs == 0)
    Canon.LayerTimeoutMs = Opts.DefaultLayerTimeoutMs;
  if (Canon.TvStepBudget == 0)
    Canon.TvStepBudget = Opts.DefaultTvStepBudget;

  // svc-dispatch: injected dispatch failure — a named, never-cached
  // degraded outcome carrying the fault's description.
  const std::string DispatchKey =
      Canon.Programs.empty() ? "all" : join(Canon.Programs, ",");
  if (std::optional<fault::Hit> H =
          fault::fireWithRetry(fault::Site::SvcDispatch, DispatchKey)) {
    FaultedRequests.fetch_add(1);
    Reply.TheKind = wire::Kind::ErrorReply;
    Reply.Error.Reason = "injected-fault";
    Reply.Error.Detail = H->describe();
    return Reply;
  }

  // Reply memo: a fully-certified reply is a pure function of (canonical
  // request bytes, registry fingerprint, wire schema, cache directory),
  // so the hot path is one digest + map lookup. Degraded or failed
  // replies never enter (the wire-level face of "degraded verdicts are
  // never cached").
  wire::Message CanonMsg;
  CanonMsg.TheKind = wire::Kind::CertifyRequest;
  CanonMsg.Certify = Canon;
  const uint64_t RequestDigest =
      hash::fnv1a64(wire::encode(CanonMsg),
                    RegistryFingerprint ^ uint64_t(wire::kSchemaVersion));
  const uint64_t MemoKey = hash::fnv1a64(Opts.CacheDir, RequestDigest);
  {
    std::lock_guard<std::mutex> L(MemoMu);
    auto It = MemoIndex.find(MemoKey);
    if (It != MemoIndex.end()) {
      MemoLru.splice(MemoLru.begin(), MemoLru, It->second);
      MemoHits.fetch_add(1);
      Reply.TheKind = wire::Kind::CertifyReply;
      Reply.Reply = It->second->second;
      // Provenance is per-answer, not per-entry: THIS reply came from
      // the memo.
      for (wire::ProgramResult &P : Reply.Reply.Programs)
        P.From = uint8_t(Provenance::Memo);
      return Reply;
    }
  }

  // Certify-level backpressure: admission is capped; an over-cap
  // request is refused by name immediately so the client can back off.
  if (Inflight.fetch_add(1) >= Opts.MaxInflight) {
    Inflight.fetch_sub(1);
    BusyRejections.fetch_add(1);
    Reply.TheKind = wire::Kind::ErrorReply;
    Reply.Error.Reason = "server-busy";
    Reply.Error.Detail = "certify admission cap reached (max-inflight " +
                         std::to_string(Opts.MaxInflight) + ")";
    return Reply;
  }

  // The job itself: through the supervised worker pool when configured
  // (crash-only: a lost worker degrades to a named worker-* reply),
  // else in-process on this connection thread. Both paths are the same
  // runCertify projection, so the replies are byte-identical.
  if (Sup) {
    // The job key picks fault targets, backoff jitter and crash-report
    // names, so it leaves the cache directory out: the same request is
    // the same job in every daemon, whatever directory it caches in.
    const std::string JobKey = DispatchKey + "#" + hash::hex16(RequestDigest);
    Reply = Sup->runJob(Canon, JobKey);
  } else {
    WorkerConfig Cfg;
    Cfg.CacheDir = Opts.CacheDir;
    Cfg.Jobs = Opts.Jobs;
    Reply = runCertify(Canon, Cfg);
  }
  Inflight.fetch_sub(1);

  if (Reply.TheKind == wire::Kind::ErrorReply) {
    if (Reply.Error.Reason == "server-busy")
      BusyRejections.fetch_add(1);
    return Reply;
  }

  CacheHits.fetch_add(Reply.Reply.CacheHits);
  CacheMisses.fetch_add(Reply.Reply.CacheMisses);
  CacheStores.fetch_add(Reply.Reply.CacheStores);

  if (Reply.Reply.Exit == 0) {
    std::lock_guard<std::mutex> L(MemoMu);
    if (MemoIndex.find(MemoKey) == MemoIndex.end()) {
      MemoLru.emplace_front(MemoKey, Reply.Reply);
      MemoIndex[MemoKey] = MemoLru.begin();
      while (MemoLru.size() > Opts.MemoCapacity) {
        MemoIndex.erase(MemoLru.back().first);
        MemoLru.pop_back();
      }
    }
  }
  return Reply;
}

} // namespace service
} // namespace relc
