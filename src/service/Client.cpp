//===- service/Client.cpp - relcd wire client ------------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "support/Backoff.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace relc {
namespace service {

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

Client::~Client() { close(); }

void Client::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Status Client::connect(const std::string &SocketPath, unsigned TimeoutMs) {
  close();
  sockaddr_un Addr{};
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path))
    return Error("relcd client: socket path unusable: '" + SocketPath + "'");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  auto T0 = std::chrono::steady_clock::now();
  int LastErr = 0;
  for (;;) {
    int S = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (S < 0)
      return Error(std::string("relcd client: socket: ") +
                   std::strerror(errno));
    if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      Fd = S;
      return Status::success();
    }
    LastErr = errno;
    ::close(S);
    if (msSince(T0) > double(TimeoutMs))
      return Error("relcd client: cannot connect to " + SocketPath + ": " +
                   std::strerror(LastErr));
    // The daemon may still be starting (or restarting): retry shortly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Result<wire::Message> Client::roundTrip(const wire::Message &Req,
                                        unsigned TimeoutMs) {
  if (Fd < 0)
    return Error("connection-lost: not connected");

  if (!wire::sendFrame(Fd, Req)) {
    int E = errno;
    close();
    return Error(std::string("connection-lost: send: ") + std::strerror(E));
  }

  std::string Buf;
  auto T0 = std::chrono::steady_clock::now();
  for (;;) {
    size_t FrameSize = 0;
    std::string_view Payload;
    wire::FrameStatus FS = wire::splitFrame(Buf, &FrameSize, &Payload);
    if (FS == wire::FrameStatus::Ok) {
      wire::Message Reply;
      std::string Reason;
      if (!wire::decode(Payload, &Reply, &Reason)) {
        close();
        return Error(Reason + ": reply payload rejected");
      }
      return Reply;
    }
    if (FS != wire::FrameStatus::NeedMore) {
      close();
      return Error(std::string(wire::frameStatusReason(FS)) +
                   ": reply frame rejected");
    }

    double Remaining = double(TimeoutMs) - msSince(T0);
    if (Remaining <= 0) {
      close();
      return Error("request-timeout: no complete reply within " +
                   std::to_string(TimeoutMs) + " ms");
    }
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, int(Remaining < 100 ? Remaining + 1 : 100));
    if (R < 0 && errno != EINTR) {
      close();
      return Error(std::string("connection-lost: poll: ") +
                   std::strerror(errno));
    }
    if (R <= 0)
      continue;
    char Tmp[65536];
    ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      int E = errno;
      close();
      return Error(std::string("connection-lost: recv: ") +
                   std::strerror(E));
    }
    if (N == 0) {
      close();
      return Buf.empty()
                 ? Error("connection-lost: server closed the connection")
                 : Error("truncated-frame: server closed mid-reply");
    }
    Buf.append(Tmp, size_t(N));
  }
}

Result<wire::Message> Client::roundTripWithRetry(
    const std::string &SocketPath, const wire::Message &Req,
    const RetryPolicy &Policy, unsigned TimeoutMs, unsigned *Retries) {
  backoff::Schedule Delay({Policy.BaseMs, Policy.CapMs, Policy.Seed});
  const unsigned Attempts = Policy.Attempts ? Policy.Attempts : 1;
  Result<wire::Message> Last = Error("connection-lost: not attempted");
  for (unsigned A = 0; A < Attempts; ++A) {
    if (A) {
      if (Retries)
        ++*Retries;
      unsigned D = Delay.next();
      if (Policy.SleepFn)
        Policy.SleepFn(D);
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(D));
    }
    if (!connected()) {
      // One quick connect probe per attempt; the backoff loop owns the
      // pacing (connect()'s internal retry window stays short so a
      // down daemon costs ~one refused connect per attempt).
      if (Status S = connect(SocketPath, 50); !S) {
        Last = S.takeError();
        continue;
      }
    }
    Result<wire::Message> R = roundTrip(Req, TimeoutMs);
    if (!R) {
      Last = std::move(R); // Lost connection: reconnect and retry.
      continue;
    }
    if (R->TheKind == wire::Kind::ErrorReply &&
        R->Error.Reason == "server-busy") {
      Last = std::move(R); // Backpressure: transient by contract.
      continue;
    }
    return R;
  }
  return Last;
}

} // namespace service
} // namespace relc
