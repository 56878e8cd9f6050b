//===- perfbench/daemon.cpp - daemon-mixed: relcd under mixed traffic -----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A real `relcd serve -workers 2` process, driven over its socket by
// kConnections closed-loop connections that share one seeded request
// plan. The plan is built in blocks of 20 requests — 6 hot, 11 warm,
// 3 cold, in a seeded order — so the median lands in the warm class and
// the tail in the cold class:
//
//   hot   a repeat of a shape primed into the reply memo at set-up;
//   warm  the five programs primed into the disk cache, varied only in
//         program order, KeepGoing and certificate faces (none of which
//         enter the cache key), so it misses the memo, takes a worker
//         dispatch, and replays from the disk cache;
//   cold  one program outside the warm set with a fresh LayerTimeoutMs
//         salt (budgets enter the cache key), so it certifies live in a
//         worker.
//
// Warm shapes cycle through 720 shapes, far more than the memo's 64
// entries, so each arrives after its last memo entry was evicted. Every
// reply is checked, and at the end the stats deltas and the reply
// provenance must equal the plan's class counts exactly.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "service/Client.h"
#include "service/Server.h"
#include "service/Service.h"

#include <algorithm>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace fs = std::filesystem;

namespace perfbench {
namespace {

using namespace relc;
namespace wire = service::wire;
using service::Client;

constexpr unsigned kConnections = 3;
/// The window is cut into slices this long; between two, the connections
/// go idle while the host-speed probe runs.
constexpr double kSliceMs = SpeedProbe::kIntervalMs;
constexpr unsigned kBlock = 20, kHotPerBlock = 6, kColdPerBlock = 3;
constexpr unsigned kWarmPerBlock = kBlock - kHotPerBlock - kColdPerBlock;
/// Every kSampleEvery-th request of the window is kept for the codec
/// timings of a traced run.
constexpr unsigned kSampleEvery = 8;

/// The cold class certifies only these (cheap, ~5 ms live); the warm and
/// hot classes use the rest. A salted cold request overwrites its
/// program's cache entry, so the two sets never overlap.
const std::vector<std::string> kColdSet = {"fnv1a", "crc32"};

enum class Class : uint8_t { Hot, Warm, Cold };
const char *const kClassNames[] = {"hot", "warm", "cold"};

struct Shape {
  std::vector<std::string> Programs;
  bool KeepGoing = false;
  bool Json = true, Bin = true;
  uint32_t Salt = 0; ///< LayerTimeoutMs; 0 = the server default.
};

struct Item {
  Class C = Class::Hot;
  Shape S;
};

wire::Message requestOf(const Shape &S) {
  wire::Message M;
  M.TheKind = wire::Kind::CertifyRequest;
  M.Certify.Programs = S.Programs;
  M.Certify.KeepGoing = S.KeepGoing;
  M.Certify.WantCertJson = S.Json;
  M.Certify.WantCertBin = S.Bin;
  M.Certify.LayerTimeoutMs = S.Salt;
  return M;
}

/// The seeded request stream, generated block by block on demand.
class Plan {
public:
  explicit Plan(uint64_t Seed) : G(Seed ^ 0x6461656d6f6eULL) {
    for (const std::string &P : seededProgramOrder(Seed))
      if (std::find(kColdSet.begin(), kColdSet.end(), P) == kColdSet.end())
        WarmSet.push_back(P);
    for (const std::string &P : WarmSet)
      Hot.push_back(Shape{{P}, false, true, true, 0});
    // Every order of the warm programs x KeepGoing x certificate faces:
    // 720 shapes of identical work.
    std::vector<std::string> Perm = WarmSet;
    std::sort(Perm.begin(), Perm.end());
    do
      for (bool KG : {false, true})
        for (auto [J, Bi] : {std::pair{true, true}, std::pair{true, false},
                             std::pair{false, true}})
          Warm.push_back(Shape{Perm, KG, J, Bi, 0});
    while (std::next_permutation(Perm.begin(), Perm.end()));
    G.shuffle(Warm);
  }

  const Item &at(size_t I) {
    while (Items.size() <= I)
      addBlock();
    return Items[I];
  }

  /// The request that primes the disk cache with every warm program. It
  /// asks for no certificate face, so it is none of the warm shapes.
  Shape primeShape() const { return Shape{WarmSet, false, false, false, 0}; }

  std::vector<std::string> WarmSet;
  std::vector<Shape> Hot, Warm;

private:
  void addBlock() {
    std::vector<Class> Slots;
    Slots.insert(Slots.end(), kHotPerBlock, Class::Hot);
    Slots.insert(Slots.end(), kWarmPerBlock, Class::Warm);
    Slots.insert(Slots.end(), kColdPerBlock, Class::Cold);
    G.shuffle(Slots);
    for (Class C : Slots) {
      Item It;
      It.C = C;
      if (C == Class::Hot) {
        // Hot shapes go round in a fresh seeded order each cycle, so a hot
        // entry is re-used within ~2 cycles: far inside the memo's reach.
        if (HotCycle.empty()) {
          for (size_t I = 0; I < Hot.size(); ++I)
            HotCycle.push_back(I);
          G.shuffle(HotCycle);
        }
        It.S = Hot[HotCycle.back()];
        HotCycle.pop_back();
      } else if (C == Class::Warm) {
        It.S = Warm[NextWarm++ % Warm.size()];
      } else {
        const uint32_t N = NextCold++;
        It.S = Shape{{kColdSet[N % kColdSet.size()]}, false, true, true,
                     service::ServerOptions().DefaultLayerTimeoutMs + 1 + N};
      }
      Items.push_back(std::move(It));
    }
  }

  Rng G;
  std::vector<Item> Items;
  std::vector<size_t> HotCycle;
  size_t NextWarm = 0;
  uint32_t NextCold = 0;
};

service::Provenance expectedFrom(Class C) {
  return C == Class::Hot    ? service::Provenance::Memo
         : C == Class::Warm ? service::Provenance::DiskCache
                            : service::Provenance::Live;
}

/// Checks one reply against the plan item and the reference set; counts
/// each program result in From[provenance].
bool checkReply(const Item &It, const Result<wire::Message> &R,
                const RefSet &Ref, uint64_t From[3], std::string *Why) {
  if (!R) {
    *Why = "lost round trip: " + R.error().str();
    return false;
  }
  if (R->TheKind != wire::Kind::CertifyReply) {
    *Why = R->TheKind == wire::Kind::ErrorReply
               ? "refused: " + R->Error.Reason + " " + R->Error.Detail
               : "unexpected reply kind";
    return false;
  }
  const wire::CertifyReply &Rep = R->Reply;
  if (Rep.Exit != 0 || Rep.Programs.size() != It.S.Programs.size()) {
    *Why = "certify exited " + std::to_string(Rep.Exit);
    return false;
  }
  for (size_t I = 0; I < Rep.Programs.size(); ++I) {
    const wire::ProgramResult &P = Rep.Programs[I];
    const RefCert &RC = Ref.at(It.S.Programs[I]);
    if (P.From < 3)
      ++From[P.From];
    if (P.Name != It.S.Programs[I] ||
        P.Status != uint8_t(service::ProgramStatus::Certified) ||
        P.TvVerdict != "proved" || P.From != uint8_t(expectedFrom(It.C))) {
      *Why = std::string(kClassNames[int(It.C)]) + " " + P.Name + ": tv " +
             P.TvVerdict + ", from " +
             service::provenanceName(service::Provenance(P.From));
      return false;
    }
    if (P.CertJson != (It.S.Json ? RC.Json : "") ||
        P.CertBin != (It.S.Bin ? RC.Bin : "")) {
      *Why = P.Name + ": certificate differs from the reference set";
      return false;
    }
  }
  return true;
}

/// One relcd process: spawned, waited for, stopped.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Spawns `relcd serve` in \p Dir and waits for its "serving on" line.
  bool start(const std::string &Dir, std::string *Why) {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
    fs::create_directories(Dir, Ec);
    Socket = Dir + "/relcd.sock";
    CacheDir = Dir + "/cache";
    // Everything the child needs is built before fork.
    std::vector<std::string> Env;
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "RELC_", 5) != 0)
        Env.push_back(*E);
    std::vector<char *> Envp;
    for (std::string &S : Env)
      Envp.push_back(S.data());
    Envp.push_back(nullptr);
    const char *Argv[] = {"relcd",    "serve",      "-socket", "relcd.sock",
                          "-cache-dir", "cache",    "-workers", "2",
                          nullptr};
    int P[2];
    if (::pipe2(P, O_CLOEXEC) != 0) {
      *Why = "pipe failed";
      return false;
    }
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(P[1], STDOUT_FILENO);
      if (::chdir(Dir.c_str()) == 0)
        ::execve(PERFBENCH_RELCD, const_cast<char **>(Argv), Envp.data());
      ::_exit(127);
    }
    ::close(P[1]);
    OutFd = P[0];
    if (Pid < 0) {
      *Why = "fork failed";
      return false;
    }
    // relcd prints "relcd: serving on ..." once the socket is bound and
    // the worker pool is up.
    std::string Line;
    const Clock::time_point T0 = Clock::now();
    while (Line.find('\n') == std::string::npos) {
      pollfd Pfd{OutFd, POLLIN, 0};
      if (msSince(T0) > 20000 || ::poll(&Pfd, 1, 1000) < 0) {
        *Why = "relcd did not come up";
        return false;
      }
      char C;
      ssize_t N = Pfd.revents ? ::read(OutFd, &C, 1) : 0;
      if (N == 1)
        Line += C;
      else if (Pfd.revents) {
        *Why = "relcd exited before serving";
        return false;
      }
    }
    if (Line.rfind("relcd: serving on", 0) != 0) {
      *Why = "relcd said: " + Line;
      return false;
    }
    return true;
  }

  /// Peak RSS of relcd and its workers (VmHWM), in MiB.
  double peakRssMb() const {
    double Mb = perfbench::peakRssMb(Pid);
    for (pid_t W : children())
      Mb += perfbench::peakRssMb(W);
    return Mb;
  }

  /// Asks relcd to drain and exit; kills it if it does not.
  void stop() {
    if (Pid <= 0)
      return;
    Client C;
    if (C.connect(Socket, 2000)) {
      wire::Message Down;
      Down.TheKind = wire::Kind::ShutdownRequest;
      (void)C.roundTrip(Down, 10000);
    }
    int St = 0;
    const Clock::time_point T0 = Clock::now();
    while (::waitpid(Pid, &St, WNOHANG) == 0) {
      if (msSince(T0) > 15000) {
        // Workers it leaves behind share the harness's process group, which
        // run.py kills when the harness exits.
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &St, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(OutFd);
    Pid = -1;
  }

  std::string Socket, CacheDir;

private:
  std::vector<pid_t> children() const {
    std::vector<pid_t> Out;
    DIR *D = ::opendir("/proc");
    if (!D)
      return Out;
    while (dirent *E = ::readdir(D)) {
      pid_t P = pid_t(std::atoi(E->d_name));
      if (P <= 0)
        continue;
      std::ifstream F(std::string("/proc/") + E->d_name + "/stat");
      std::string Stat((std::istreambuf_iterator<char>(F)), {});
      size_t Close = Stat.rfind(')');
      if (Close == std::string::npos)
        continue;
      char State;
      int PPid = 0;
      if (std::sscanf(Stat.c_str() + Close + 1, " %c %d", &State, &PPid) ==
              2 &&
          PPid == Pid)
        Out.push_back(P);
    }
    ::closedir(D);
    return Out;
  }

  pid_t Pid = -1;
  int OutFd = -1;
};

Result<wire::Message> stats(Client &C) {
  wire::Message M;
  M.TheKind = wire::Kind::StatsRequest;
  return C.roundTrip(M, 10000);
}

/// One request's record.
struct Sample {
  size_t Index = 0;
  Class C = Class::Hot;
  OpTime Time;
};

/// What the connections hand back.
struct Traffic {
  std::vector<Sample> Samples;
  std::vector<std::pair<wire::Message, wire::Message>> Kept;
  std::vector<std::string> Failures;
  uint64_t Failed = 0;
  uint64_t From[3] = {0, 0, 0};
  Tracer T;
};

/// Closed-loop traffic over plan indices [First, Limit), where Limit is
/// the first block boundary after the deadline. Every kSliceMs the
/// connections finish their requests and wait while the probe runs with
/// relcd idle, so the probe measures the host, not the traffic.
class Driver {
public:
  Driver(Plan &P, const RefSet &Ref, const std::string &Socket, bool Trace)
      : P(P), Ref(Ref), Socket(Socket), Trace(Trace) {}

  /// Runs the window; returns the seconds of traffic (pauses excluded).
  double run(size_t First, double Ms, unsigned Conns, SpeedProbe &Probe,
             Traffic &Out) {
    const Clock::time_point Start = Clock::now();
    double PausedMs = 0;
    Next = First;
    Limit = SIZE_MAX;
    Deadline = Start + std::chrono::microseconds(int64_t(Ms * 1e3));
    Active = Conns;
    std::vector<Traffic> Per(Conns);
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I < Conns; ++I)
      Ts.emplace_back([this, &Per, I] { connection(Per[I]); });
    for (;;) {
      std::unique_lock<std::mutex> L(Mu);
      if (Cv.wait_for(L, std::chrono::microseconds(int64_t(kSliceMs * 1e3)),
                      [this] { return Active == 0; }))
        break;
      const Clock::time_point P0 = Clock::now();
      Paused = true;
      Cv.wait(L, [this] { return Waiting == Active; });
      L.unlock();
      Probe.run();
      L.lock();
      Paused = false;
      PausedMs += msSince(P0);
      L.unlock();
      Cv.notify_all();
    }
    for (std::thread &T : Ts)
      T.join();
    for (Traffic &T : Per) {
      Out.Samples.insert(Out.Samples.end(), T.Samples.begin(), T.Samples.end());
      for (auto &K : T.Kept)
        Out.Kept.push_back(std::move(K));
      Out.Failures.insert(Out.Failures.end(), T.Failures.begin(),
                          T.Failures.end());
      Out.Failed += T.Failed;
      for (int C = 0; C < 3; ++C)
        Out.From[C] += T.From[C];
      Out.T.merge(T.T);
    }
    std::sort(Out.Samples.begin(), Out.Samples.end(),
              [](const Sample &A, const Sample &B) { return A.Index < B.Index; });
    return (msSince(Start) - PausedMs) / 1000.0;
  }

  size_t end() const { return Limit; }

private:
  bool claim(size_t *I, Item *It) {
    std::unique_lock<std::mutex> L(Mu);
    if (Paused) {
      ++Waiting;
      Cv.notify_all();
      Cv.wait(L, [this] { return !Paused; });
      --Waiting;
    }
    if (Limit == SIZE_MAX && Clock::now() >= Deadline)
      Limit = (Next + kBlock - 1) / kBlock * kBlock;
    if (Next >= Limit)
      return false;
    *I = Next++;
    *It = P.at(*I);
    return true;
  }

  void done() {
    {
      std::lock_guard<std::mutex> L(Mu);
      --Active;
    }
    Cv.notify_all();
  }

  void connection(Traffic &Out) {
    Client C;
    if (!C.connect(Socket, 5000)) {
      Out.Failures.push_back("connect failed");
      done();
      return;
    }
    size_t I;
    Item It;
    while (claim(&I, &It)) {
      const bool Traced = Trace && (I / kBlock) % 2 == 1;
      wire::Message Req = requestOf(It.S);
      Result<wire::Message> R = Error("not sent");
      Clock::time_point T0 = Clock::now();
      {
        Scope S(Traced ? &Out.T : nullptr, kClassNames[int(It.C)], -1,
                uint32_t(I));
        R = C.roundTrip(Req, 60000);
      }
      Out.Samples.push_back(Sample{I, It.C, OpTime{T0, msSince(T0)}});
      std::string Why;
      if (!checkReply(It, R, Ref, Out.From, &Why)) {
        ++Out.Failed;
        if (Out.Failures.size() < 5)
          Out.Failures.push_back("request " + std::to_string(I) + ": " + Why);
        if (!R) {
          C.close();
          (void)C.connect(Socket, 5000);
        }
        continue;
      }
      if (Trace && I % kSampleEvery == 0)
        Out.Kept.emplace_back(std::move(Req), std::move(*R));
    }
    done();
  }

  Plan &P;
  const RefSet &Ref;
  const std::string Socket;
  const bool Trace;
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Next = 0, Limit = SIZE_MAX;
  Clock::time_point Deadline;
  bool Paused = false;
  unsigned Active = 0, Waiting = 0;
};

/// One set-up: relcd up, the warm programs certified into its cache, every
/// hot shape in its memo, and one discarded warm-up block.
bool setUp(const Options &O, unsigned Rep, Plan &P, const RefSet &Ref,
           Daemon &D, std::string *Why) {
  if (!D.start(O.WorkDir + "/relcd" + std::to_string(Rep), Why))
    return false;
  Client C;
  if (!C.connect(D.Socket, 5000)) {
    *Why = "connect failed";
    return false;
  }
  uint64_t From[3] = {0, 0, 0};
  Item Prime{Class::Cold, P.primeShape()};
  if (!checkReply(Prime, C.roundTrip(requestOf(Prime.S), 60000), Ref, From,
                  Why))
    return false;
  for (const Shape &S : P.Hot) {
    Item Warm{Class::Warm, S}; // First sight: a disk-cache replay.
    if (!checkReply(Warm, C.roundTrip(requestOf(S), 60000), Ref, From, Why))
      return false;
  }
  for (size_t I = 0; I < kBlock; ++I) {
    const Item &It = P.at(I);
    if (!checkReply(It, C.roundTrip(requestOf(It.S), 60000), Ref, From, Why))
      return false;
  }
  return true;
}

/// The codec work of one round trip on the run's own messages: request
/// encode + frame, reply encode + frame (what relcd does), and both
/// decodes. Each is repeated \p Reps times; returns per-round-trip µs.
void codecUs(const wire::Message &Req, const wire::Message &Rep,
             double *EncodeUs, double *DecodeUs, size_t *ReplyBytes) {
  constexpr unsigned Reps = 10;
  std::string FReq, FRep;
  int64_t T0 = nowNs();
  for (unsigned I = 0; I < Reps; ++I) {
    FReq = wire::frame(wire::encode(Req));
    FRep = wire::frame(wire::encode(Rep));
  }
  int64_t T1 = nowNs();
  wire::Message M;
  std::string Reason;
  for (unsigned I = 0; I < Reps; ++I) {
    (void)wire::decode(std::string_view(FReq).substr(wire::kHeaderSize), &M,
                       &Reason);
    (void)wire::decode(std::string_view(FRep).substr(wire::kHeaderSize), &M,
                       &Reason);
  }
  int64_t T2 = nowNs();
  *EncodeUs = double(T1 - T0) / 1e3 / Reps;
  *DecodeUs = double(T2 - T1) / 1e3 / Reps;
  *ReplyBytes = FRep.size();
}

/// The per-layer metrics of a traced run.
void tracedMetrics(const Plan &P, const RefSet &Ref, const Daemon &D,
                   const Traffic &Tr, RunResult &R) {
  // Blocks alternate untraced / traced; the overhead pairs each untraced
  // block's median with the next one's.
  std::map<size_t, std::vector<double>> ByBlock;
  for (const Sample &S : Tr.Samples)
    ByBlock[S.Index / kBlock].push_back(S.Time.Ms);
  std::vector<double> Traced, Untraced;
  for (const auto &[Block, Ms] : ByBlock)
    (Block % 2 == 1 ? Traced : Untraced).push_back(median(Ms));
  std::vector<double> ByClass[3];
  // Per-class round trips from the spans (self time = the whole span).
  for (const Span &S : Tr.T.Spans)
    for (int C = 0; C < 3; ++C)
      if (std::strcmp(S.Name, kClassNames[C]) == 0)
        ByClass[C].push_back(double(S.T1 - S.T0) / 1e6);
  R.set("daemon.hot_ms", median(ByClass[0]), "ms");
  R.set("daemon.warm_ms", median(ByClass[1]), "ms");
  R.set("daemon.cold_ms", median(ByClass[2]), "ms");
  R.set("trace.overhead_ms", pairedDiff(Traced, Untraced), "ms");

  // Codec timings on the run's own messages.
  std::vector<double> Enc, Dec, Bytes, WarmCodec;
  for (const auto &[Req, Rep] : Tr.Kept) {
    double E, Dd;
    size_t B;
    codecUs(Req, Rep, &E, &Dd, &B);
    Enc.push_back(E);
    Dec.push_back(Dd);
    Bytes.push_back(double(B));
    if (Req.Certify.Programs.size() == P.WarmSet.size())
      WarmCodec.push_back(E + Dd);
  }
  R.set("service.wire_encode_us", median(Enc), "us");
  R.set("service.wire_decode_us", median(Dec), "us");
  R.set("service.reply_bytes", median(Bytes), "bytes");

  // Dispatch: a warm round trip minus the same shapes certified in-process
  // against relcd's cache minus the wire codec.
  std::vector<double> InProc;
  for (size_t I = 0; I < 120; ++I) {
    const Shape &S = P.Warm[I % P.Warm.size()];
    service::Request Req;
    Req.Programs = S.Programs;
    Req.CacheDir = D.CacheDir;
    Req.LayerTimeoutMs = service::ServerOptions().DefaultLayerTimeoutMs;
    Req.TvStepBudget = service::ServerOptions().DefaultTvStepBudget;
    Req.KeepGoing = S.KeepGoing;
    Req.WantCertJson = S.Json;
    Req.WantCertBin = S.Bin;
    Clock::time_point T0 = Clock::now();
    service::Response Resp = service::certify(Req);
    InProc.push_back(msSince(T0));
    bool Ok = Resp.Exit == 0 && Resp.Programs.size() == S.Programs.size();
    for (const service::ProgramReply &PR : Resp.Programs)
      Ok = Ok && PR.From == service::Provenance::DiskCache &&
           PR.CertBin == (S.Bin ? Ref.at(PR.Name).Bin : "");
    if (!Ok)
      R.fail("in-process certify of a warm shape did not replay relcd's "
             "cache");
  }
  R.set("service.dispatch_ms",
        median(ByClass[1]) - median(InProc) - median(WarmCodec) / 1e3, "ms");
}

} // namespace

int runDaemonMixed(const Options &O, SpeedProbe &Probe, RunResult &R) {
  std::signal(SIGPIPE, SIG_IGN);
  Plan P(O.Seed);
  RefSet Ref;
  SetupTimer Setup(Probe);
  std::unique_ptr<Daemon> D;
  for (unsigned K = 0; K < kSetupReps; ++K) {
    if (D)
      D->stop();
    Setup.begin();
    std::string Why;
    if (!buildReference(Ref, &Why)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Why.c_str());
      return 1;
    }
    D = std::make_unique<Daemon>();
    if (!setUp(O, K, P, Ref, *D, &Why)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Why.c_str());
      return 1;
    }
    Setup.end();
  }
  Setup.report(R);

  Client StatsConn;
  if (!StatsConn.connect(D->Socket, 5000))
    return 1;
  Result<wire::Message> Before = stats(StatsConn);
  Traffic Tr;
  Driver Drv(P, Ref, D->Socket, O.Trace);
  const double TrafficS =
      Drv.run(kBlock, double(O.Seconds) * 1000.0, kConnections, Probe, Tr);
  Result<wire::Message> After = stats(StatsConn);
  R.set("peak_rss_mb", D->peakRssMb(), "MiB");

  const size_t N = Drv.end() - kBlock;
  R.Attempted = N;
  R.Failed = Tr.Failed + (N - Tr.Samples.size());
  for (const std::string &F : Tr.Failures)
    R.fail(F);
  std::vector<OpTime> Ops;
  uint64_t Planned[3] = {0, 0, 0};
  for (const Sample &S : Tr.Samples) {
    Ops.push_back(S.Time);
    ++Planned[int(S.C)];
  }
  latencyMetrics(Ops, TrafficS, Probe, R);

  // The plan check: what relcd counted must be exactly what was planned.
  const uint64_t Hot = Planned[0], Warm = Planned[1], Cold = Planned[2];
  if (Hot + Warm + Cold != N || N % kBlock != 0)
    R.fail("the window did not end on a block boundary");
  if (!Before || !After || After->TheKind != wire::Kind::StatsReply) {
    R.fail("stats request failed");
  } else {
    const wire::Stats &A = Before->TheStats, &B = After->TheStats;
    struct Count {
      const char *Name;
      uint64_t Got, Want;
    };
    const Count Counts[] = {
        {"memo_hits", B.MemoHits - A.MemoHits, Hot},
        {"cache_hits", B.CacheHits - A.CacheHits, P.WarmSet.size() * Warm},
        {"cache_misses", B.CacheMisses - A.CacheMisses, Cold},
        {"cache_stores", B.CacheStores - A.CacheStores, Cold},
        {"busy_rejections", B.BusyRejections - A.BusyRejections, 0},
        {"worker_spawns", B.WorkerSpawns - A.WorkerSpawns, 0},
        {"worker_restarts", B.WorkerRestarts - A.WorkerRestarts, 0},
        {"worker_retries", B.WorkerRetries - A.WorkerRetries, 0},
        {"from_memo", Tr.From[int(service::Provenance::Memo)], Hot},
        {"from_disk", Tr.From[int(service::Provenance::DiskCache)],
         P.WarmSet.size() * Warm},
        {"from_live", Tr.From[int(service::Provenance::Live)], Cold},
    };
    for (const Count &C : Counts) {
      if (C.Got != C.Want)
        R.fail(std::string("service.") + C.Name + " = " +
               std::to_string(C.Got) + ", the plan says " +
               std::to_string(C.Want));
      if (O.Trace)
        R.set(std::string("service.") + C.Name,
              N ? double(C.Got) / double(N) : 0, "count/op");
    }
  }
  std::fprintf(stderr,
               "perfbench: %zu requests (%llu hot, %llu warm, %llu cold) over "
               "%u connections\n",
               N, (unsigned long long)Hot, (unsigned long long)Warm,
               (unsigned long long)Cold, kConnections);

  if (O.Trace) {
    tracedMetrics(P, Ref, *D, Tr, R);
    if (!Tr.T.write(O.TraceDir + "/" + O.Workload + ".trace.json"))
      R.fail("could not write the span file");
  }
  D->stop();
  genCheck(O, R);
  return 0;
}

} // namespace perfbench
