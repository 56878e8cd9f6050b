//===- service/Supervisor.cpp - relcd worker-pool supervisor ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Supervisor.h"

#include "support/Backoff.h"
#include "support/Fault.h"
#include "support/Hash.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include <filesystem>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace relc {
namespace service {

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

wire::Message busyReply(const std::string &Detail) {
  wire::Message M;
  M.TheKind = wire::Kind::ErrorReply;
  M.Error.Reason = "server-busy";
  M.Error.Detail = Detail;
  return M;
}

} // namespace

const char *lossName(Loss L) {
  switch (L) {
  case Loss::Crashed:
    return "worker-crashed";
  case Loss::Oom:
    return "worker-oom";
  case Loss::Timeout:
    return "worker-timeout";
  }
  return "worker-crashed";
}

Loss classifyExit(int WaitStatus, bool KilledByDeadline,
                  std::string *Detail) {
  if (KilledByDeadline) {
    *Detail = "killed after the per-job wall deadline";
    return Loss::Timeout;
  }
  if (WIFEXITED(WaitStatus)) {
    int Code = WEXITSTATUS(WaitStatus);
    if (Code == kWorkerOomExit) {
      *Detail = "allocation failure (exit " + std::to_string(Code) + ")";
      return Loss::Oom;
    }
    *Detail = "unexpected exit code " + std::to_string(Code);
    return Loss::Crashed;
  }
  if (WIFSIGNALED(WaitStatus)) {
    int Sig = WTERMSIG(WaitStatus);
    if (Sig == SIGXCPU) {
      *Detail = "cpu rlimit exceeded (SIGXCPU)";
      return Loss::Timeout;
    }
    const char *Name = strsignal(Sig);
    *Detail = "killed by signal " + std::to_string(Sig) +
              (Name ? std::string(" (") + Name + ")" : std::string());
    return Loss::Crashed;
  }
  *Detail = "unrecognized wait status " + std::to_string(WaitStatus);
  return Loss::Crashed;
}

Supervisor::Supervisor(SupervisorOptions O) : Opts(std::move(O)) {
  Slots.resize(Opts.Workers ? Opts.Workers : 1);
}

Supervisor::~Supervisor() { stop(); }

Status Supervisor::start() {
  if (!Opts.CrashDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Opts.CrashDir, Ec);
  }
  // Pre-fork the pool before the daemon goes multi-threaded; a slot
  // that cannot spawn now is retried lazily per job.
  for (int I = 0; I < int(Slots.size()); ++I)
    (void)ensureSpawned(I, "pool-start");
  return Status::success();
}

void Supervisor::stop() {
  if (Stopping.exchange(true))
    return;
  std::lock_guard<std::mutex> L(Mu);
  for (Slot &S : Slots) {
    if (S.Pid < 0)
      continue;
    ::kill(S.Pid, SIGKILL);
    if (!S.Busy) {
      // Idle: reap and tear down here. Busy slots are reaped by the
      // runJob thread that owns them, which observes EOF and returns a
      // named loss without retrying (Stopping is set).
      int St = 0;
      ::waitpid(S.Pid, &St, 0);
      ::close(S.Fd);
      S.Pid = -1;
      S.Fd = -1;
    }
  }
  IdleCv.notify_all();
}

SupervisorCounters Supervisor::counters() const {
  SupervisorCounters C;
  C.Spawns = Spawns.load();
  C.Restarts = Restarts.load();
  C.SpawnFailures = SpawnFailures.load();
  C.Crashes = Crashes.load();
  C.Ooms = Ooms.load();
  C.Timeouts = Timeouts.load();
  C.Retries = Retries.load();
  C.DegradedReplies = DegradedReplies.load();
  C.JobsRun = JobsRun.load();
  C.CrashReports = CrashReportsWritten.load();
  return C;
}

int Supervisor::acquireSlot() {
  std::unique_lock<std::mutex> L(Mu);
  auto T0 = std::chrono::steady_clock::now();
  for (;;) {
    if (Stopping.load())
      return -1;
    for (int I = 0; I < int(Slots.size()); ++I)
      if (!Slots[I].Busy) {
        Slots[I].Busy = true;
        return I;
      }
    if (msSince(T0) > double(Opts.AcquireTimeoutMs))
      return -1;
    IdleCv.wait_for(L, std::chrono::milliseconds(50));
  }
}

void Supervisor::releaseSlot(int Idx) {
  std::lock_guard<std::mutex> L(Mu);
  Slots[Idx].Busy = false;
  IdleCv.notify_one();
}

Status Supervisor::ensureSpawned(int Idx, const std::string &JobKey) {
  Slot &S = Slots[Idx];
  if (S.Pid >= 0)
    return Status::success();
  if (Stopping.load())
    return Error("supervisor draining");
  // svc-worker-spawn: a deterministic fork failure — the attempt is
  // charged exactly like a real EAGAIN from fork().
  if (std::optional<fault::Hit> H =
          fault::fire(fault::Site::SvcWorkerSpawn, JobKey)) {
    SpawnFailures.fetch_add(1);
    return Error(H->describe());
  }
  int Sp[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp) != 0) {
    SpawnFailures.fetch_add(1);
    return Error(std::string("socketpair: ") + std::strerror(errno));
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    SpawnFailures.fetch_add(1);
    int E = errno;
    ::close(Sp[0]);
    ::close(Sp[1]);
    return Error(std::string("fork: ") + std::strerror(E));
  }
  if (Pid == 0) {
    ::close(Sp[0]);
    workerMain(Sp[1], Opts.Worker); // Never returns.
  }
  ::close(Sp[1]);
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Stopping.load()) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      ::close(Sp[0]);
      return Error("supervisor draining");
    }
    Spawns.fetch_add(1);
    if (S.EverSpawned)
      Restarts.fetch_add(1);
    S.EverSpawned = true;
    S.Pid = Pid;
    S.Fd = Sp[0];
  }
  return Status::success();
}

void Supervisor::writeCrashReport(const std::string &JobKey, unsigned Attempt,
                                  Loss L, const std::string &Detail,
                                  int WaitStatus, long MaxRssKb, pid_t Pid) {
  if (Opts.CrashDir.empty())
    return;
  uint64_t Seq = CrashSeq.fetch_add(1);
  std::string Path = Opts.CrashDir + "/crash-" + std::to_string(Pid) + "-" +
                     std::to_string(Seq) + ".txt";
  std::ofstream Out(Path);
  if (!Out)
    return;
  Out << "relcd worker crash report\n"
      << "job:         " << JobKey << "\n"
      << "attempt:     " << (Attempt + 1) << "/" << (Opts.RetryLimit + 1)
      << "\n"
      << "loss:        " << lossName(L) << "\n"
      << "detail:      " << Detail << "\n"
      << "wait-status: " << WaitStatus << "\n"
      << "worker-pid:  " << Pid << "\n"
      << "max-rss-kb:  " << MaxRssKb << "\n";
  if (fault::armed())
    Out << "fault-spec:  " << fault::activeSpec() << "\n";
  CrashReportsWritten.fetch_add(1);
}

Loss Supervisor::reapLoss(int Idx, bool KilledByDeadline,
                          const std::string &JobKey, unsigned Attempt,
                          std::string *Detail) {
  // Detach the slot under the lock first, so stop() can never observe
  // (and kill) a pid this thread is about to reap — after wait4 the pid
  // is free for reuse.
  pid_t Pid = -1;
  int Fd = -1;
  {
    std::lock_guard<std::mutex> L(Mu);
    Slot &S = Slots[Idx];
    Pid = S.Pid;
    Fd = S.Fd;
    S.Pid = -1;
    S.Fd = -1;
  }
  int St = 0;
  rusage RU{};
  if (Pid >= 0) {
    // Idempotent teardown: the worker may already be dead (that is how
    // we got here), but a hung or protocol-corrupt worker needs the
    // kill so the wait below cannot block.
    ::kill(Pid, SIGKILL);
    ::wait4(Pid, &St, 0, &RU);
  }
  if (Fd >= 0)
    ::close(Fd);
  Loss TheLoss = classifyExit(St, KilledByDeadline, Detail);
  switch (TheLoss) {
  case Loss::Crashed:
    Crashes.fetch_add(1);
    break;
  case Loss::Oom:
    Ooms.fetch_add(1);
    break;
  case Loss::Timeout:
    Timeouts.fetch_add(1);
    break;
  }
  writeCrashReport(JobKey, Attempt, TheLoss, *Detail, St,
                   RU.ru_maxrss, Pid);
  return TheLoss;
}

bool Supervisor::attemptJob(int Idx, const wire::CertifyRequest &Canon,
                            const std::string &JobKey, unsigned Attempt,
                            wire::Message *Reply, Loss *TheLoss,
                            std::string *Detail) {
  Slot &S = Slots[Idx];

  // Parent-side deterministic chaos. The per-key ordinals live in this
  // process, so transient clauses heal across worker restarts exactly
  // like every other site; the worker child consults nothing.
  int CrashSig = 0;
  bool Hang = false;
  if (std::optional<fault::Hit> H =
          fault::fire(fault::Site::SvcWorkerCrash, JobKey))
    CrashSig = H->Value ? int(H->Value) : SIGKILL;
  else if (fault::fire(fault::Site::SvcWorkerHang, JobKey))
    Hang = true;

  // A *real* signal, delivered before the job frame goes out: the worker
  // is blocked in recv and cannot outrun the kill, so the loss is
  // deterministic. (Killing *after* the send races a fast worker — its
  // reply bytes survive in the socketpair buffer and the parent would
  // read a complete frame from a dead child.)
  if (CrashSig)
    ::kill(S.Pid, CrashSig);

  wire::Message Req;
  Req.TheKind = wire::Kind::CertifyRequest;
  Req.Certify = Canon;
  if (!wire::sendFrame(S.Fd, Req)) {
    *TheLoss = reapLoss(Idx, false, JobKey, Attempt, Detail);
    return false;
  }

  std::string Buf;
  auto T0 = std::chrono::steady_clock::now();
  for (;;) {
    double Remaining = double(Opts.JobWallMs) - msSince(T0);
    if (Remaining <= 0) {
      *TheLoss = reapLoss(Idx, true, JobKey, Attempt, Detail);
      return false;
    }
    pollfd P{S.Fd, POLLIN, 0};
    int R = ::poll(&P, 1, int(Remaining < 50 ? Remaining + 1 : 50));
    if (R < 0 && errno != EINTR) {
      *TheLoss = reapLoss(Idx, false, JobKey, Attempt, Detail);
      return false;
    }
    if (R <= 0)
      continue;
    char Tmp[65536];
    ssize_t N = ::recv(S.Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      *TheLoss = reapLoss(Idx, false, JobKey, Attempt, Detail);
      return false;
    }
    if (N == 0) {
      // EOF: the worker died mid-job.
      *TheLoss = reapLoss(Idx, false, JobKey, Attempt, Detail);
      return false;
    }
    if (Hang) {
      // svc-worker-hang: the reply is withheld — drop the bytes and let
      // the wall deadline fire, exercising the timeout/kill path end to
      // end against a genuinely live worker.
      continue;
    }
    Buf.append(Tmp, size_t(N));
    size_t FrameSize = 0;
    std::string_view Payload;
    wire::FrameStatus FS = wire::splitFrame(Buf, &FrameSize, &Payload);
    if (FS == wire::FrameStatus::NeedMore)
      continue;
    std::string Reason;
    if (FS != wire::FrameStatus::Ok ||
        !wire::decode(Payload, Reply, &Reason)) {
      // A worker that speaks garbage is as dead as one that crashed.
      *TheLoss = reapLoss(Idx, false, JobKey, Attempt, Detail);
      *Detail += "; worker reply rejected (" +
                 (Reason.empty() ? std::string(wire::frameStatusReason(FS))
                                 : Reason) +
                 ")";
      return false;
    }
    return true;
  }
}

wire::Message Supervisor::runJob(const wire::CertifyRequest &Canon,
                                 const std::string &JobKey) {
  // Jitter decorrelated per job, deterministic per (seed, job).
  backoff::Schedule Delay({Opts.BackoffBaseMs, Opts.BackoffCapMs,
                           hash::fnv1a64(JobKey, Opts.BackoffSeed)});
  const unsigned Attempts = Opts.RetryLimit + 1;
  std::string AttemptLog;
  Loss LastLoss = Loss::Crashed;
  std::string LastDetail;

  for (unsigned A = 0; A < Attempts; ++A) {
    if (A) {
      Retries.fetch_add(1);
      unsigned D = Delay.next();
      if (!Stopping.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(D));
    }
    if (Stopping.load())
      return busyReply("server draining");

    int Idx = acquireSlot();
    if (Idx < 0)
      return busyReply(Stopping.load()
                           ? "server draining"
                           : "no idle worker within " +
                                 std::to_string(Opts.AcquireTimeoutMs) +
                                 " ms");

    if (Status S = ensureSpawned(Idx, JobKey); !S) {
      releaseSlot(Idx);
      LastLoss = Loss::Crashed;
      LastDetail = "spawn failed: " + S.takeError().str();
    } else {
      wire::Message Reply;
      if (attemptJob(Idx, Canon, JobKey, A, &Reply, &LastLoss,
                     &LastDetail)) {
        JobsRun.fetch_add(1);
        releaseSlot(Idx);
        return Reply;
      }
      releaseSlot(Idx);
    }

    if (!AttemptLog.empty())
      AttemptLog += "; ";
    AttemptLog += "attempt " + std::to_string(A + 1) + ": " +
                  lossName(LastLoss) + " (" + LastDetail + ")";
    if (Stopping.load())
      break; // Draining: the loss is final, do not retry.
  }

  DegradedReplies.fetch_add(1);
  wire::Message E;
  E.TheKind = wire::Kind::ErrorReply;
  if (Opts.RetryLimit == 0) {
    E.Error.Reason = lossName(LastLoss);
    E.Error.Detail = LastDetail + " (job '" + JobKey + "')";
  } else {
    E.Error.Reason = "worker-retries-exhausted";
    E.Error.Detail = AttemptLog + " (job '" + JobKey + "')";
  }
  return E;
}

} // namespace service
} // namespace relc
