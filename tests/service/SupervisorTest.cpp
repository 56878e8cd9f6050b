//===- tests/service/SupervisorTest.cpp - Crash-only worker supervision ----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The crash-only certification contract (DESIGN.md §4.12), end to end: a
// daemon in worker mode serves byte-identical certificates through
// forked, supervised workers; a worker killed by signal, OOMed, or
// hung past the wall deadline costs one retry, never the daemon; jobs
// that cannot complete degrade to *named* worker-* statuses that are
// never memoized; shutdown drains in-flight jobs gracefully; and the
// probe-then-unlink socket race is closed by the flock on the `.lock`
// sibling. The chaos soak at the bottom runs hundreds of concurrent
// requests under injected SIGKILL/SIGSEGV faults and then audits a
// surviving certificate with the independent checker — supervision is
// trusted for availability only, never for certificate content.
//
//===----------------------------------------------------------------------===//

#include "cert/Binary.h"
#include "cert/Rederive.h"
#include "cert/Writer.h"
#include "core/Compiler.h"
#include "programs/Programs.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/Service.h"
#include "service/Supervisor.h"
#include "support/Backoff.h"
#include "support/Fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

// fork() is unsupported under ThreadSanitizer; detect it for both
// compilers (clang: __has_feature, gcc: __SANITIZE_THREAD__).
#if defined(__SANITIZE_THREAD__)
#define RELC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RELC_UNDER_TSAN 1
#endif
#endif
#ifndef RELC_UNDER_TSAN
#define RELC_UNDER_TSAN 0
#endif

// RLIMIT_AS is incompatible with AddressSanitizer's shadow reservation,
// so the real-OOM test needs plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define RELC_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RELC_UNDER_ASAN 1
#endif
#endif
#ifndef RELC_UNDER_ASAN
#define RELC_UNDER_ASAN 0
#endif

using namespace relc;
using namespace relc::service;

namespace {

#ifndef _WIN32

struct TempPaths {
  std::string Sock;
  std::string CacheDir;
  explicit TempPaths(const std::string &Tag) {
    std::string Base =
        "/tmp/relc-sup-" + Tag + "-" + std::to_string(uint64_t(::getpid()));
    Sock = Base + ".sock";
    CacheDir = Base + ".cache";
    std::filesystem::remove(Sock);
    std::filesystem::remove(Sock + ".lock");
    std::filesystem::remove_all(CacheDir);
  }
  ~TempPaths() {
    std::filesystem::remove(Sock);
    std::filesystem::remove(Sock + ".lock");
    std::filesystem::remove_all(CacheDir);
  }
};

//===----------------------------------------------------------------------===//
// Loss classification: pure unit pins, no processes involved.
//===----------------------------------------------------------------------===//

/// Linux wait-status encodings (what wait4 actually reports).
int exitedStatus(int Code) { return (Code & 0xff) << 8; }
int signaledStatus(int Sig) { return Sig & 0x7f; }

TEST(SupervisorTest, LossNamesArePinned) {
  EXPECT_STREQ(lossName(Loss::Crashed), "worker-crashed");
  EXPECT_STREQ(lossName(Loss::Oom), "worker-oom");
  EXPECT_STREQ(lossName(Loss::Timeout), "worker-timeout");
}

TEST(SupervisorTest, ClassifyExitCoversEveryLossShape) {
  std::string D;

  // Death by signal: worker-crashed, naming the signal.
  EXPECT_EQ(classifyExit(signaledStatus(SIGSEGV), false, &D), Loss::Crashed);
  EXPECT_NE(D.find("signal 11"), std::string::npos) << D;
  EXPECT_EQ(classifyExit(signaledStatus(SIGKILL), false, &D), Loss::Crashed);
  EXPECT_NE(D.find("signal 9"), std::string::npos) << D;

  // The OOM exit code: worker-oom.
  EXPECT_EQ(classifyExit(exitedStatus(kWorkerOomExit), false, &D), Loss::Oom);

  // Any other unexpected exit: worker-crashed with the code.
  EXPECT_EQ(classifyExit(exitedStatus(5), false, &D), Loss::Crashed);
  EXPECT_NE(D.find("5"), std::string::npos) << D;

  // RLIMIT_CPU delivers SIGXCPU: a runaway loop is a timeout, not a
  // crash.
  EXPECT_EQ(classifyExit(signaledStatus(SIGXCPU), false, &D), Loss::Timeout);

  // A kill the supervisor itself delivered after the wall deadline is a
  // timeout regardless of how the death reads.
  EXPECT_EQ(classifyExit(signaledStatus(SIGKILL), true, &D), Loss::Timeout);
  EXPECT_NE(D.find("deadline"), std::string::npos) << D;
}

//===----------------------------------------------------------------------===//
// Everything below forks workers.
//===----------------------------------------------------------------------===//

#if !RELC_UNDER_TSAN

wire::Message certifyMsg(std::vector<std::string> Programs,
                         uint64_t TvStepBudget = 0) {
  wire::Message M;
  M.TheKind = wire::Kind::CertifyRequest;
  M.Certify.Programs = std::move(Programs);
  M.Certify.TvStepBudget = TvStepBudget;
  return M;
}

/// A worker-mode server with tight-but-safe supervision knobs.
ServerOptions workerOptions(const TempPaths &P, unsigned Workers,
                            unsigned Retries, unsigned JobWallMs = 60000) {
  ServerOptions SO;
  SO.SocketPath = P.Sock;
  SO.CacheDir = P.CacheDir;
  SO.Workers = Workers;
  SO.WorkerRetries = Retries;
  SO.JobWallMs = JobWallMs;
  SO.WorkerBackoffBaseMs = 5; // Fast retries: keep the suite quick.
  SO.WorkerBackoffCapMs = 40;
  return SO;
}

TEST(SupervisorTest, WorkerModeServesByteIdenticalCertificates) {
  TempPaths P("basic");
  ServerOptions SO = workerOptions(P, 2, 2);
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));

  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
  EXPECT_EQ(R->Reply.Exit, 0);
  ASSERT_EQ(R->Reply.Programs.size(), 1u);
  EXPECT_EQ(R->Reply.Programs[0].Status, uint8_t(ProgramStatus::Certified));
  EXPECT_EQ(R->Reply.Programs[0].TvVerdict, "proved");

  // The whole point of routing both paths through runCertify: a worker
  // answer is byte-identical to the in-process (relc-gen) artifacts.
  Request Direct;
  Direct.Programs = {"fnv1a"};
  Direct.LayerTimeoutMs = SO.DefaultLayerTimeoutMs;
  Response DirectResp = certify(Direct);
  ASSERT_EQ(DirectResp.Programs.size(), 1u);
  EXPECT_EQ(R->Reply.Programs[0].CertJson, DirectResp.Programs[0].CertJson);
  EXPECT_EQ(R->Reply.Programs[0].CertBin, DirectResp.Programs[0].CertBin);

  // Worker-side cache traffic rides the reply into the daemon's stats.
  wire::Stats S = Srv.stats();
  EXPECT_EQ(S.Workers, 2u);
  EXPECT_GE(S.WorkerSpawns, 2u); // The pool pre-forks.
  EXPECT_EQ(S.WorkerCrashes, 0u);
  EXPECT_GE(S.CacheStores, 1u); // The cold run stored, inside the worker.

  // A repeat is memoized parent-side — no worker round trip at all.
  Result<wire::Message> Warm = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(Warm));
  ASSERT_EQ(Warm->TheKind, wire::Kind::CertifyReply);
  EXPECT_EQ(Warm->Reply.Programs[0].From, uint8_t(Provenance::Memo));
  EXPECT_EQ(Warm->Reply.Programs[0].CertBin, R->Reply.Programs[0].CertBin);

  Srv.requestStop();
  Srv.wait();
}

TEST(SupervisorTest, InjectedCrashIsNamedAndNeverMemoized) {
  TempPaths P("crash");
  // RetryLimit 0: fail fast with the *specific* loss name.
  ServerOptions SO = workerOptions(P, 1, 0);
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));

  {
    fault::ScopedFaults Faults("svc-worker-crash:persistent");
    Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
    ASSERT_TRUE(bool(R));
    ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
    EXPECT_EQ(R->Error.Reason, "worker-crashed");
    EXPECT_NE(R->Error.Detail.find("signal 9"), std::string::npos)
        << R->Error.Detail;
    // The detail names the job so crash reports and logs correlate.
    EXPECT_NE(R->Error.Detail.find("fnv1a"), std::string::npos)
        << R->Error.Detail;
  }
  wire::Stats S = Srv.stats();
  EXPECT_EQ(S.WorkerCrashes, 1u);
  EXPECT_EQ(S.WorkerDegraded, 1u);
  EXPECT_EQ(S.WorkerRetries, 0u);
  EXPECT_EQ(S.CacheStores, 0u); // The crashed job certified nothing.

  // Disarmed, the same request certifies live — the degraded reply left
  // no residue in the memo, and the pool respawned the lost worker.
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
  EXPECT_EQ(R->Reply.Exit, 0);
  EXPECT_EQ(R->Reply.Programs[0].From, uint8_t(Provenance::Live));
  EXPECT_EQ(Srv.stats().MemoHits, 0u);
  EXPECT_GE(Srv.stats().WorkerRestarts, 1u);

  Srv.requestStop();
  Srv.wait();
}

TEST(SupervisorTest, SigsegvPayloadIsDeliveredAndNamed) {
  TempPaths P("segv");
  ServerOptions SO = workerOptions(P, 1, 0);
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));
  fault::ScopedFaults Faults("svc-worker-crash:persistent:v=11");
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(R->Error.Reason, "worker-crashed");
#if RELC_UNDER_ASAN
  // ASan installs its own SIGSEGV handler in the worker: the delivered
  // signal is intercepted, a report is printed, and the process _exits
  // with ASan's exitcode (1) instead of dying by the signal. The loss is
  // still classified worker-crashed; only the kernel signature differs.
  EXPECT_NE(R->Error.Detail.find("exit code 1"), std::string::npos)
      << R->Error.Detail;
#else
  EXPECT_NE(R->Error.Detail.find("signal 11"), std::string::npos)
      << R->Error.Detail;
#endif
  Srv.requestStop();
  Srv.wait();
}

TEST(SupervisorTest, HangIsNamedWorkerTimeout) {
  TempPaths P("hang");
  ServerOptions SO = workerOptions(P, 1, 0, /*JobWallMs=*/400);
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));
  {
    fault::ScopedFaults Faults("svc-worker-hang:persistent");
    Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
    ASSERT_TRUE(bool(R));
    ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
    EXPECT_EQ(R->Error.Reason, "worker-timeout");
    EXPECT_NE(R->Error.Detail.find("deadline"), std::string::npos)
        << R->Error.Detail;
  }
  wire::Stats S = Srv.stats();
  EXPECT_EQ(S.WorkerTimeouts, 1u);
  EXPECT_EQ(S.WorkerDegraded, 1u);
  // The daemon survived its hung worker and still serves.
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
  EXPECT_EQ(R->Reply.Exit, 0);
  Srv.requestStop();
  Srv.wait();
}

TEST(SupervisorTest, TransientCrashIsAbsorbedByRetries) {
  TempPaths P("transient");
  ServerOptions SO = workerOptions(P, 1, 2);
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));

  fault::ScopedFaults Faults("svc-worker-crash:transient:n=1");
  // The first attempt loses its worker; the retry completes the job —
  // the client sees a normal, full-strength reply, not a degradation.
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
  EXPECT_EQ(R->Reply.Exit, 0);
  EXPECT_EQ(R->Reply.Programs[0].Status, uint8_t(ProgramStatus::Certified));

  wire::Stats S = Srv.stats();
  EXPECT_EQ(S.WorkerCrashes, 1u);
  EXPECT_EQ(S.WorkerRetries, 1u);
  EXPECT_GE(S.WorkerRestarts, 1u);
  EXPECT_EQ(S.WorkerDegraded, 0u);
  Srv.requestStop();
  Srv.wait();
}

TEST(SupervisorTest, PersistentCrashExhaustsRetriesAndWritesReports) {
  TempPaths P("exhaust");
  ServerOptions SO = workerOptions(P, 1, 2);
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));

  fault::ScopedFaults Faults("svc-worker-crash:persistent");
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(R->Error.Reason, "worker-retries-exhausted");
  // The detail is a per-attempt log: all three losses, named.
  EXPECT_NE(R->Error.Detail.find("attempt 1"), std::string::npos);
  EXPECT_NE(R->Error.Detail.find("attempt 3"), std::string::npos);
  EXPECT_NE(R->Error.Detail.find("worker-crashed"), std::string::npos);

  wire::Stats S = Srv.stats();
  EXPECT_EQ(S.WorkerCrashes, 3u);
  EXPECT_EQ(S.WorkerRetries, 2u);
  EXPECT_EQ(S.WorkerDegraded, 1u);

  // Every loss left a crash-report artifact: request key, signal,
  // rusage — the operator's evidence trail.
  unsigned Reports = 0;
  std::string OneReport;
  for (const auto &E :
       std::filesystem::directory_iterator(P.CacheDir + "/crash-reports")) {
    ++Reports;
    OneReport = E.path().string();
  }
  EXPECT_EQ(Reports, 3u);
  ASSERT_FALSE(OneReport.empty());
  std::ifstream In(OneReport);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("job:"), std::string::npos);
  EXPECT_NE(Text.find("fnv1a"), std::string::npos);
  EXPECT_NE(Text.find("worker-crashed"), std::string::npos);
  EXPECT_NE(Text.find("max-rss-kb:"), std::string::npos);

  Srv.requestStop();
  Srv.wait();
}

TEST(SupervisorTest, SpawnFailureIsChargedLikeACrash) {
  TempPaths P("spawn");
  ServerOptions SO = workerOptions(P, 1, 1);
  Server Srv(SO); // The initial pool fails to spawn — that is not fatal.
  fault::ScopedFaults Faults("svc-worker-spawn:persistent");
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(R->Error.Reason, "worker-retries-exhausted");
  EXPECT_NE(R->Error.Detail.find("spawn"), std::string::npos)
      << R->Error.Detail;
  wire::Stats S = Srv.stats();
  EXPECT_GE(S.WorkerSpawnFailures, 2u); // Initial pool + per-attempt.
  EXPECT_EQ(S.WorkerDegraded, 1u);
  Srv.requestStop();
  Srv.wait();
}

#if !RELC_UNDER_ASAN
TEST(SupervisorTest, RealOomUnderRlimitIsNamedWorkerOom) {
  TempPaths P("oom");
  ServerOptions SO = workerOptions(P, 1, 0);
  // An absolute RLIMIT_AS cannot revoke the heap the fork inherited
  // (malloc arenas survive with their free lists intact), so a fixed
  // "small" limit is no guarantee a small job dies. The svc-worker-oom
  // site makes the job's demand unbounded — the worker allocates until
  // operator new *really* fails under the limit, exercising the genuine
  // bad_alloc → new-handler → exit-77 path end to end.
  SO.WorkerMemLimitMb = 64;
  fault::ScopedFaults Armed("svc-worker-oom:persistent");
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(R->Error.Reason, "worker-oom") << R->Error.Detail;
  EXPECT_NE(R->Error.Detail.find("allocation failure (exit 77)"),
            std::string::npos)
      << R->Error.Detail;
  EXPECT_EQ(Srv.stats().WorkerOoms, 1u);
  Srv.requestStop();
  Srv.wait();
}
#endif // !RELC_UNDER_ASAN

//===----------------------------------------------------------------------===//
// Graceful drain.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, DrainFinishesInflightAndRefusesNewByName) {
  TempPaths P("drain");
  // One worker, no retries, a short wall deadline: the hung in-flight
  // job resolves (as worker-timeout) well inside the drain window.
  ServerOptions SO = workerOptions(P, 1, 0, /*JobWallMs=*/800);
  SO.DrainTimeoutMs = 10000;
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));

  Client A, B;
  ASSERT_TRUE(bool(A.connect(P.Sock)));
  ASSERT_TRUE(bool(B.connect(P.Sock)));

  fault::ScopedFaults Faults("svc-worker-hang:persistent");
  std::atomic<bool> GotInflightReply{false};
  wire::Message InflightReply;
  std::thread T([&] {
    Result<wire::Message> R = A.roundTrip(certifyMsg({"fnv1a"}), 30000);
    if (R) {
      InflightReply = *R;
      GotInflightReply.store(true);
    }
  });
  // Let the job reach its worker, then begin the drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Srv.requestStop();
  ASSERT_TRUE(Srv.draining());

  // New certify work on an existing connection: named busy, not a drop.
  Result<wire::Message> R = B.roundTrip(certifyMsg({"crc32"}), 10000);
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(R->Error.Reason, "server-busy");
  EXPECT_NE(R->Error.Detail.find("draining"), std::string::npos);

  // Ping still answers during the drain: only certification is refused.
  wire::Message Ping;
  Ping.TheKind = wire::Kind::PingRequest;
  R = B.roundTrip(Ping, 10000);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R->TheKind, wire::Kind::PongReply);

  // The in-flight job finished (with its named loss — the hang ran into
  // the wall deadline), and the daemon exited cleanly after it.
  T.join();
  ASSERT_TRUE(GotInflightReply.load());
  ASSERT_EQ(InflightReply.TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(InflightReply.Error.Reason, "worker-timeout");
  Srv.wait();
  wire::Stats S = Srv.stats();
  EXPECT_EQ(S.Drains, 1u);
  EXPECT_GE(S.BusyRejections, 1u);
  // The socket path was unlinked at drain start; the lock file remains
  // by design (unlinking it would reopen the ownership race).
  EXPECT_FALSE(std::filesystem::exists(P.Sock));
  EXPECT_TRUE(std::filesystem::exists(P.Sock + ".lock"));
}

//===----------------------------------------------------------------------===//
// The socket-ownership flock, raced for real from two processes.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, TwoDaemonsRacingOnePathHaveExactlyOneWinner) {
  TempPaths P("race");
  const std::string LoserMark = P.CacheDir + ".loser";
  std::filesystem::remove(LoserMark);

  auto Child = [&]() -> pid_t {
    pid_t Pid = fork();
    if (Pid != 0)
      return Pid;
    // Child: one start() attempt, exit code = verdict.
    ServerOptions SO;
    SO.SocketPath = P.Sock;
    Server Srv(SO);
    Status S = Srv.start();
    if (!S) {
      bool Named =
          S.error().str().find("socket-in-use") != std::string::npos;
      std::ofstream(LoserMark) << "lost\n";
      _exit(Named ? 1 : 2);
    }
    // Winner: hold the socket until the loser has lost (or 10s), so the
    // race cannot degenerate into two sequential wins.
    for (int I = 0; I < 1000; ++I) {
      if (std::filesystem::exists(LoserMark))
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Srv.requestStop();
    Srv.wait();
    _exit(0);
  };

  pid_t A = Child();
  ASSERT_GT(A, 0);
  pid_t B = Child();
  ASSERT_GT(B, 0);

  int StatusA = 0, StatusB = 0;
  ASSERT_EQ(::waitpid(A, &StatusA, 0), A);
  ASSERT_EQ(::waitpid(B, &StatusB, 0), B);
  ASSERT_TRUE(WIFEXITED(StatusA));
  ASSERT_TRUE(WIFEXITED(StatusB));
  int ExitA = WEXITSTATUS(StatusA), ExitB = WEXITSTATUS(StatusB);
  // Exactly one winner; the loser failed with the *named* refusal, not
  // a silent non-serving daemon or an unlink of the winner's socket.
  EXPECT_TRUE((ExitA == 0 && ExitB == 1) || (ExitA == 1 && ExitB == 0))
      << "exit codes " << ExitA << " / " << ExitB;
  std::filesystem::remove(LoserMark);
}

//===----------------------------------------------------------------------===//
// Client-side retry: the backoff schedule is pinned with a fake clock.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, ClientRetryScheduleMatchesBackoffExactly) {
  // Nothing listens here: every attempt fails with ECONNREFUSED/ENOENT.
  const std::string Dead =
      "/tmp/relc-sup-dead-" + std::to_string(uint64_t(::getpid())) + ".sock";
  std::filesystem::remove(Dead);

  RetryPolicy Policy;
  Policy.Attempts = 4;
  Policy.BaseMs = 25;
  Policy.CapMs = 1000;
  Policy.Seed = 0;
  std::vector<unsigned> Slept;
  Policy.SleepFn = [&Slept](unsigned Ms) { Slept.push_back(Ms); };

  Client C;
  unsigned Retries = 0;
  wire::Message Ping;
  Ping.TheKind = wire::Kind::PingRequest;
  Result<wire::Message> R =
      C.roundTripWithRetry(Dead, Ping, Policy, 1000, &Retries);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("cannot connect"), std::string::npos);
  EXPECT_EQ(Retries, 3u);

  // The fake clock recorded exactly the schedule backoff::Schedule
  // computes for this policy — pinned values, same as BackoffTest's
  // golden sequence.
  backoff::Schedule Expect({Policy.BaseMs, Policy.CapMs, Policy.Seed});
  ASSERT_EQ(Slept.size(), 3u);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(Slept[I], Expect.next()) << "delay " << I;
  EXPECT_EQ(Slept, (std::vector<unsigned>{29, 26, 61}));
}

TEST(SupervisorTest, ClientRetryAbsorbsBusyThenReturnsTheBusyReply) {
  TempPaths P("busyretry");
  ServerOptions SO;
  SO.SocketPath = P.Sock;
  SO.MaxInflight = 0; // Every certify is refused at admission.
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));

  RetryPolicy Policy;
  Policy.Attempts = 3;
  std::vector<unsigned> Slept;
  Policy.SleepFn = [&Slept](unsigned Ms) { Slept.push_back(Ms); };
  Client C;
  unsigned Retries = 0;
  Result<wire::Message> R = C.roundTripWithRetry(
      P.Sock, certifyMsg({"fnv1a"}), Policy, 10000, &Retries);
  // server-busy is transient by contract: retried, and after the budget
  // runs out the busy reply itself comes back (it IS a round trip).
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(R->Error.Reason, "server-busy");
  EXPECT_EQ(Retries, 2u);
  EXPECT_EQ(Slept.size(), 2u);
  EXPECT_EQ(Srv.stats().BusyRejections, 3u);
  Srv.requestStop();
  Srv.wait();
}

//===----------------------------------------------------------------------===//
// Fault-matrix rows for the three worker sites: every injection is
// absorbed (byte-identical to baseline) or named, never worse.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, WorkerFaultMatrixAbsorbedOrNamed) {
  TempPaths Base("matrix-base");
  std::string BaselineJson, BaselineBin;
  {
    ServerOptions SO = workerOptions(Base, 1, 2, /*JobWallMs=*/600);
    Server Srv(SO);
    ASSERT_TRUE(bool(Srv.start()));
    Client C;
    ASSERT_TRUE(bool(C.connect(Base.Sock)));
    Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
    ASSERT_TRUE(bool(R));
    ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
    BaselineJson = R->Reply.Programs[0].CertJson;
    BaselineBin = R->Reply.Programs[0].CertBin;
    Srv.requestStop();
    Srv.wait();
  }

  struct Row {
    const char *Spec;
    bool ExpectAbsorbed; ///< else: a named worker-* degradation.
    const char *Reason;  ///< Expected name when degraded.
  };
  const Row Rows[] = {
      {"svc-worker-spawn:transient:n=1", true, ""},
      {"svc-worker-crash:transient:n=1", true, ""},
      {"svc-worker-hang:transient:n=1", true, ""},
      {"svc-worker-spawn:persistent", false, "worker-retries-exhausted"},
      {"svc-worker-crash:persistent", false, "worker-retries-exhausted"},
      {"svc-worker-hang:persistent", false, "worker-retries-exhausted"},
  };
  for (const Row &Rw : Rows) {
    SCOPED_TRACE(std::string("fault spec: ") + Rw.Spec);
    TempPaths P("matrix");
    ServerOptions SO = workerOptions(P, 1, 2, /*JobWallMs=*/600);
    Server Srv(SO);
    fault::ScopedFaults Faults(Rw.Spec);
    ASSERT_TRUE(bool(Srv.start()));
    Client C;
    ASSERT_TRUE(bool(C.connect(P.Sock)));
    Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}), 60000);
    ASSERT_TRUE(bool(R));
    if (Rw.ExpectAbsorbed) {
      // (a) the retry allowance absorbed the transient: byte-identical
      // to the fault-free baseline.
      ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
      EXPECT_EQ(R->Reply.Exit, 0);
      EXPECT_EQ(R->Reply.Programs[0].CertJson, BaselineJson);
      EXPECT_EQ(R->Reply.Programs[0].CertBin, BaselineBin);
    } else {
      // (b) the injection survived every retry: degraded by name.
      ASSERT_EQ(R->TheKind, wire::Kind::ErrorReply);
      EXPECT_EQ(R->Error.Reason, Rw.Reason) << R->Error.Detail;
    }
    // Either way the daemon itself is healthy.
    wire::Message Ping;
    Ping.TheKind = wire::Kind::PingRequest;
    Result<wire::Message> Pong = C.roundTrip(Ping);
    ASSERT_TRUE(bool(Pong));
    EXPECT_EQ(Pong->TheKind, wire::Kind::PongReply);
    Srv.requestStop();
    Srv.wait();
  }
}

//===----------------------------------------------------------------------===//
// Fault targets follow the request, not the daemon: the worker job key
// leaves out the cache directory, which these tests name by process id.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, FaultTargetsDoNotDependOnTheCacheDirectory) {
  // The same p-targeted persistent crash clause and the same cold
  // requests against two daemons with different cache directories: the
  // same requests degrade in both, and the clause picks some, not all.
  constexpr unsigned Requests = 12;
  auto DegradedRequests = [](const std::string &Tag) {
    TempPaths P(Tag);
    Server Srv(workerOptions(P, 1, 1));
    std::vector<unsigned> Degraded;
    if (!Srv.start()) {
      ADD_FAILURE() << "daemon did not start";
      return Degraded;
    }
    fault::ScopedFaults Faults("svc-worker-crash:persistent:p=0.5:seed=3");
    Client C;
    EXPECT_TRUE(bool(C.connect(P.Sock)));
    for (unsigned I = 0; I < Requests; ++I) {
      Result<wire::Message> R =
          C.roundTrip(certifyMsg({"fnv1a"}, 2000000000 + I), 60000);
      if (!R) {
        ADD_FAILURE() << "request " << I << " lost";
        continue;
      }
      if (R->TheKind == wire::Kind::ErrorReply) {
        EXPECT_EQ(R->Error.Reason, "worker-retries-exhausted");
        Degraded.push_back(I);
      } else {
        EXPECT_EQ(R->Reply.Exit, 0);
      }
    }
    Srv.requestStop();
    Srv.wait();
    return Degraded;
  };
  std::vector<unsigned> A = DegradedRequests("jobkey-a");
  std::vector<unsigned> B = DegradedRequests("jobkey-b");
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.empty());
  EXPECT_LT(A.size(), Requests);
}

//===----------------------------------------------------------------------===//
// The chaos soak: concurrent clients under SIGKILL/SIGSEGV injection.
// Contract: every request resolves as ok-or-named-degraded, zero daemon
// deaths or hangs, and a surviving certificate passes the independent
// checker afterwards.
//===----------------------------------------------------------------------===//

TEST(SupervisorTest, ChaosSoakOkOrNamedDegradedNeverLost) {
  TempPaths P("soak");
  ServerOptions SO = workerOptions(P, 4, 2);
  SO.MaxClients = 128;
  Server Srv(SO);
  ASSERT_TRUE(bool(Srv.start()));

  // Two clauses on the crash site: ~35% of job keys lose their first
  // attempt to SIGKILL and heal (the retry allowance must absorb every
  // one), and a disjoint ~6% are SIGSEGV'd on every attempt (those must
  // degrade by name). Job keys depend on the request alone, so the seeds
  // pick the same victims on every run: seeded chaos, not flake.
  fault::ScopedFaults Faults(
      "svc-worker-crash:transient:n=1:p=0.35:seed=7,"
      "svc-worker-crash:persistent:p=0.06:seed=13:v=11");

  constexpr unsigned Threads = 8, Rounds = 200;
  std::atomic<unsigned> Ok{0}, Degraded{0}, Busy{0}, Lost{0};
  std::atomic<unsigned> ContractViolations{0};
  const std::set<std::string> NamedDegradations = {
      "worker-crashed", "worker-oom", "worker-timeout",
      "worker-retries-exhausted"};

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Client C;
      RetryPolicy Policy;
      Policy.Attempts = 3;
      Policy.BaseMs = 5;
      Policy.CapMs = 50;
      Policy.Seed = T;
      for (unsigned R = 0; R < Rounds; ++R) {
        // Mixed load: mostly hot (memo after first completion), with a
        // deterministic cold slice (unique budget = unique job) and two
        // programs so job keys vary.
        unsigned I = T * Rounds + R;
        wire::Message Req;
        if (I % 7 == 3)
          Req = certifyMsg({"crc32"});
        else if (I % 11 == 5)
          Req = certifyMsg({"fnv1a"}, 2000000000 + I); // Cold, live run.
        else
          Req = certifyMsg({"fnv1a"});
        Result<wire::Message> Reply =
            C.roundTripWithRetry(P.Sock, Req, Policy, 120000);
        if (!Reply) {
          Lost.fetch_add(1); // Transport loss even after retries.
          continue;
        }
        if (Reply->TheKind == wire::Kind::CertifyReply) {
          if (Reply->Reply.Exit == 0)
            Ok.fetch_add(1);
          else
            ContractViolations.fetch_add(1);
          continue;
        }
        if (Reply->TheKind != wire::Kind::ErrorReply) {
          ContractViolations.fetch_add(1);
          continue;
        }
        if (NamedDegradations.count(Reply->Error.Reason))
          Degraded.fetch_add(1);
        else if (Reply->Error.Reason == "server-busy")
          Busy.fetch_add(1);
        else
          ContractViolations.fetch_add(1);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  // Every request resolved inside the contract: a full-strength reply
  // or a named degradation/backpressure — nothing lost, nothing hung
  // (join returned), nothing mislabeled.
  EXPECT_EQ(Lost.load(), 0u);
  EXPECT_EQ(ContractViolations.load(), 0u);
  EXPECT_EQ(Ok.load() + Degraded.load() + Busy.load(),
            Threads * Rounds);
  EXPECT_GT(Ok.load(), 0u);
  EXPECT_GT(Degraded.load(), 0u); // The persistent clause actually bit.

  // The daemon never died: it still answers, with coherent supervision
  // counters, and the chaos actually exercised the pool.
  Client C;
  ASSERT_TRUE(bool(C.connect(P.Sock)));
  wire::Message Ping;
  Ping.TheKind = wire::Kind::PingRequest;
  ASSERT_TRUE(bool(C.roundTrip(Ping)));
  wire::Stats S = Srv.stats();
  EXPECT_GT(S.WorkerCrashes, 0u);
  EXPECT_GT(S.WorkerRetries, 0u);
  EXPECT_GT(S.WorkerRestarts, 0u);
  EXPECT_EQ(S.WorkerDegraded, Degraded.load());
  EXPECT_EQ(S.Drains, 0u);

  // Post-soak: a surviving certificate is not merely well-formed — it
  // is byte-identical to the fault-free in-process artifacts and passes
  // the independent checker's full re-derivation. Supervision chaos
  // cannot have touched certificate content.
  fault::disarm();
  Result<wire::Message> R = C.roundTrip(certifyMsg({"fnv1a"}));
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->TheKind, wire::Kind::CertifyReply);
  ASSERT_EQ(R->Reply.Exit, 0);
  const wire::ProgramResult &PR = R->Reply.Programs[0];

  Request Direct;
  Direct.Programs = {"fnv1a"};
  Direct.LayerTimeoutMs = SO.DefaultLayerTimeoutMs;
  Response DirectResp = certify(Direct);
  ASSERT_EQ(DirectResp.Programs.size(), 1u);
  EXPECT_EQ(PR.CertJson, DirectResp.Programs[0].CertJson);
  EXPECT_EQ(PR.CertBin, DirectResp.Programs[0].CertBin);

  const programs::ProgramDef *Def = programs::findProgram("fnv1a");
  ASSERT_NE(Def, nullptr);
  core::Compiler Compiler;
  Result<core::CompileResult> CR =
      Compiler.compileFn(Def->Model, Def->Spec, Def->Hints);
  ASSERT_TRUE(bool(CR));
  // relc-check's acceptance rule: decode the image, and the JSON face is
  // its rendering.
  cert::ReadError RE;
  std::optional<cert::Certificate> Cert =
      cert::BinReader::parse(PR.CertBin, &RE);
  ASSERT_TRUE(Cert.has_value()) << RE.Detail;
  EXPECT_EQ(cert::Writer::write(*Cert), PR.CertJson);
  cert::CheckResult Check = cert::Rederive::check(
      *Cert, Def->Model, Def->Hints.EntryFacts, Def->Spec, CR->Fn);
  EXPECT_TRUE(Check.Accepted) << Check.Detail;

  Srv.requestStop();
  Srv.wait();
  EXPECT_EQ(Srv.stats().ActiveConnections, 0u);
}

#endif // !RELC_UNDER_TSAN

#endif // !_WIN32

} // namespace
