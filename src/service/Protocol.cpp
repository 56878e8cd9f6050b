//===- service/Protocol.cpp - relcd wire schema v1 -------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/Bytes.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>

namespace relc {
namespace service {
namespace wire {

const char *frameStatusReason(FrameStatus S) {
  switch (S) {
  case FrameStatus::Ok:
  case FrameStatus::NeedMore:
    return "";
  case FrameStatus::BadMagic:
    return "bad-magic";
  case FrameStatus::UnknownVersion:
    return "unknown-schema-version";
  case FrameStatus::Oversized:
    return "oversized-frame";
  }
  return "";
}

namespace {

// Each message body, stated once: run by a bytes::Writer to encode and by
// a bytes::Reader to decode. Strings are u32-length-prefixed, lists
// u32-count-prefixed.

template <class Dir, class R> void certifyRequest(Dir &IO, R &Req) {
  IO.list(Req.Programs, [&](auto &P) { IO.str32(P); });
  IO.flag(Req.Validate);
  IO.flag(Req.Analyze);
  IO.flag(Req.Tv);
  IO.flag(Req.Codelint);
  IO.flag(Req.KeepGoing);
  IO.flag(Req.WantCertJson);
  IO.flag(Req.WantCertBin);
  IO.u32(Req.LayerTimeoutMs);
  IO.u64(Req.TvStepBudget);
}

template <class Dir, class R> void certifyReply(Dir &IO, R &Rep) {
  IO.u8(Rep.Exit);
  IO.list(Rep.Programs, [&](auto &P) {
    IO.str32(P.Name);
    IO.u8(P.Status);
    IO.u8(P.From);
    IO.str32(P.Error);
    IO.str32(P.DegradedNote);
    IO.str32(P.TvVerdict);
    IO.str32(P.CodelintVerdict);
    IO.str32(P.CertJson);
    IO.str32(P.CertBin);
  });
  IO.u64(Rep.CacheHits);
  IO.u64(Rep.CacheMisses);
  IO.u64(Rep.CacheStores);
}

template <class Dir, class P> void pong(Dir &IO, P &Pg) {
  IO.u32(Pg.ApiVersion);
  IO.u32(Pg.SchemaVersion);
  IO.u64(Pg.RegistryFingerprint);
  IO.u64(Pg.Pid);
}

template <class Dir, class S> void stats(Dir &IO, S &St) {
  IO.u64(St.Requests);
  IO.u64(St.CertifyRequests);
  IO.u64(St.MemoHits);
  IO.u64(St.CacheHits);
  IO.u64(St.CacheMisses);
  IO.u64(St.CacheStores);
  IO.u64(St.BusyRejections);
  IO.u64(St.ProtocolRejections);
  IO.u64(St.FaultedRequests);
  IO.u64(St.ActiveConnections);
  IO.u64(St.Workers);
  IO.u64(St.WorkerSpawns);
  IO.u64(St.WorkerRestarts);
  IO.u64(St.WorkerSpawnFailures);
  IO.u64(St.WorkerCrashes);
  IO.u64(St.WorkerOoms);
  IO.u64(St.WorkerTimeouts);
  IO.u64(St.WorkerRetries);
  IO.u64(St.WorkerDegraded);
  IO.u64(St.Drains);
  IO.str32(St.CacheDir);
}

/// The body of a message of kind \p K; false for a kind byte this schema
/// does not define.
template <class Dir, class M> bool body(Dir &IO, Kind K, M &Msg) {
  switch (K) {
  case Kind::CertifyRequest:
    certifyRequest(IO, Msg.Certify);
    return true;
  case Kind::CertifyReply:
    certifyReply(IO, Msg.Reply);
    return true;
  case Kind::PongReply:
    pong(IO, Msg.ThePong);
    return true;
  case Kind::StatsReply:
    stats(IO, Msg.TheStats);
    return true;
  case Kind::ErrorReply:
    IO.str32(Msg.Error.Reason);
    IO.str32(Msg.Error.Detail);
    return true;
  case Kind::PingRequest:
  case Kind::StatsRequest:
  case Kind::ShutdownRequest:
  case Kind::ShutdownReply:
    return true; // Kind byte only.
  }
  return false;
}

} // namespace

std::string frame(std::string_view Payload) {
  std::string Out;
  Out.reserve(kHeaderSize + Payload.size());
  Out.append(kMagic, sizeof(kMagic));
  bytes::putU32(Out, kSchemaVersion);
  bytes::putU32(Out, uint32_t(Payload.size()));
  Out += Payload;
  return Out;
}

FrameStatus splitFrame(std::string_view Buf, size_t *FrameSize,
                       std::string_view *Payload) {
  if (Buf.empty())
    return FrameStatus::NeedMore;
  // Reject a wrong magic from the very first byte: a garbage sender
  // learns immediately, not after feeding us 16 bytes.
  size_t MagicLen = std::min(Buf.size(), sizeof(kMagic));
  if (std::memcmp(Buf.data(), kMagic, MagicLen) != 0)
    return FrameStatus::BadMagic;
  if (Buf.size() < kHeaderSize)
    return FrameStatus::NeedMore;
  if (bytes::loadU32(Buf.data() + 8) != kSchemaVersion)
    return FrameStatus::UnknownVersion;
  uint32_t Length = bytes::loadU32(Buf.data() + 12);
  if (Length > kMaxFramePayload)
    return FrameStatus::Oversized;
  if (Buf.size() < kHeaderSize + Length)
    return FrameStatus::NeedMore;
  *FrameSize = kHeaderSize + Length;
  *Payload = Buf.substr(kHeaderSize, Length);
  return FrameStatus::Ok;
}

std::string encode(const Message &M) {
  std::string Out;
  bytes::Writer W(Out);
  W.u8(uint8_t(M.TheKind));
  body(W, M.TheKind, M);
  return Out;
}

bool decode(std::string_view Payload, Message *M, std::string *Reason) {
  bytes::Reader R(Payload);
  uint8_t KindByte = 0;
  R.u8(KindByte);
  if (!R.ok()) {
    *Reason = "malformed-frame";
    return false;
  }
  if (!body(R, Kind(KindByte), *M)) {
    *Reason = "unknown-request-kind";
    return false;
  }
  M->TheKind = Kind(KindByte);
  // The whole payload must be consumed: trailing garbage is malformed,
  // not ignored — ignoring it would let two different byte strings decode
  // to the same message.
  if (!R.done()) {
    *Reason = "malformed-frame";
    return false;
  }
  return true;
}

bool sendFrame(int Fd, const Message &M) {
  std::string F = frame(encode(M));
  size_t Off = 0;
  while (Off < F.size()) {
    ssize_t N = ::send(Fd, F.data() + Off, F.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += size_t(N);
  }
  return true;
}

} // namespace wire
} // namespace service
} // namespace relc
