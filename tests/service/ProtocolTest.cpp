//===- tests/service/ProtocolTest.cpp - Wire schema v1 ---------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The relcd wire protocol in isolation (no sockets): frame/splitFrame
// round trips, encode/decode for every message kind, and — pinned to
// their exact kebab-case reasons — every way a frame can be refused:
// bad-magic, unknown-schema-version, oversized-frame, malformed-frame,
// unknown-request-kind (truncated-frame and request-timeout are
// connection-level and live in ServiceTest). Hostile inputs (garbage,
// truncation at every byte, absurd counts) must produce named rejections,
// never crashes or allocations proportional to attacker-chosen counts.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

using namespace relc;
using namespace relc::service;

namespace {

wire::CertifyRequest sampleRequest() {
  wire::CertifyRequest R;
  R.Programs = {"fnv1a", "crc32"};
  R.Validate = true;
  R.Analyze = false;
  R.Tv = true;
  R.Codelint = false;
  R.KeepGoing = true;
  R.WantCertJson = false;
  R.WantCertBin = true;
  R.LayerTimeoutMs = 1234;
  R.TvStepBudget = 0xdeadbeefcafeull;
  return R;
}

std::string encodeFramed(const wire::Message &M) {
  return wire::frame(wire::encode(M));
}

/// Splits + decodes one framed message, asserting the frame is whole.
wire::Message decodeFramed(const std::string &F) {
  size_t FrameSize = 0;
  std::string_view Payload;
  EXPECT_EQ(wire::splitFrame(F, &FrameSize, &Payload), wire::FrameStatus::Ok);
  EXPECT_EQ(FrameSize, F.size());
  wire::Message M;
  std::string Reason;
  EXPECT_TRUE(wire::decode(Payload, &M, &Reason)) << Reason;
  return M;
}

TEST(ProtocolTest, CertifyRequestRoundTrip) {
  wire::Message In;
  In.TheKind = wire::Kind::CertifyRequest;
  In.Certify = sampleRequest();
  wire::Message Out = decodeFramed(encodeFramed(In));
  ASSERT_EQ(Out.TheKind, wire::Kind::CertifyRequest);
  EXPECT_EQ(Out.Certify.Programs, In.Certify.Programs);
  EXPECT_EQ(Out.Certify.Validate, In.Certify.Validate);
  EXPECT_EQ(Out.Certify.Analyze, In.Certify.Analyze);
  EXPECT_EQ(Out.Certify.Tv, In.Certify.Tv);
  EXPECT_EQ(Out.Certify.Codelint, In.Certify.Codelint);
  EXPECT_EQ(Out.Certify.KeepGoing, In.Certify.KeepGoing);
  EXPECT_EQ(Out.Certify.WantCertJson, In.Certify.WantCertJson);
  EXPECT_EQ(Out.Certify.WantCertBin, In.Certify.WantCertBin);
  EXPECT_EQ(Out.Certify.LayerTimeoutMs, In.Certify.LayerTimeoutMs);
  EXPECT_EQ(Out.Certify.TvStepBudget, In.Certify.TvStepBudget);
}

TEST(ProtocolTest, CertifyReplyRoundTrip) {
  wire::Message In;
  In.TheKind = wire::Kind::CertifyReply;
  In.Reply.Exit = 3;
  wire::ProgramResult P;
  P.Name = "fnv1a";
  P.Status = 1;
  P.From = 2;
  P.Error = "";
  P.DegradedNote = "tv step budget exhausted";
  P.TvVerdict = "inconclusive";
  P.CodelintVerdict = "safe";
  P.CertJson = "{\"schema\":2}";
  P.CertBin = std::string("\x00\x01\x02\xff binary", 11); // Embedded NULs.
  In.Reply.Programs.push_back(P);
  In.Reply.CacheHits = 5;
  In.Reply.CacheMisses = 2;
  In.Reply.CacheStores = 2;

  wire::Message Out = decodeFramed(encodeFramed(In));
  ASSERT_EQ(Out.TheKind, wire::Kind::CertifyReply);
  EXPECT_EQ(Out.Reply.Exit, 3);
  EXPECT_EQ(Out.Reply.CacheHits, 5u);
  EXPECT_EQ(Out.Reply.CacheMisses, 2u);
  EXPECT_EQ(Out.Reply.CacheStores, 2u);
  ASSERT_EQ(Out.Reply.Programs.size(), 1u);
  const wire::ProgramResult &Q = Out.Reply.Programs[0];
  EXPECT_EQ(Q.Name, P.Name);
  EXPECT_EQ(Q.Status, P.Status);
  EXPECT_EQ(Q.From, P.From);
  EXPECT_EQ(Q.DegradedNote, P.DegradedNote);
  EXPECT_EQ(Q.TvVerdict, P.TvVerdict);
  EXPECT_EQ(Q.CodelintVerdict, P.CodelintVerdict);
  EXPECT_EQ(Q.CertJson, P.CertJson);
  EXPECT_EQ(Q.CertBin, P.CertBin); // Byte-exact, NULs preserved.
}

TEST(ProtocolTest, KindOnlyMessagesRoundTrip) {
  for (wire::Kind K :
       {wire::Kind::PingRequest, wire::Kind::StatsRequest,
        wire::Kind::ShutdownRequest, wire::Kind::ShutdownReply}) {
    wire::Message In;
    In.TheKind = K;
    wire::Message Out = decodeFramed(encodeFramed(In));
    EXPECT_EQ(Out.TheKind, K);
  }
}

TEST(ProtocolTest, PongStatsErrorRoundTrip) {
  wire::Message Pong;
  Pong.TheKind = wire::Kind::PongReply;
  Pong.ThePong = {7, 1, 0x0cc54a61e044b695ull, 4242};
  wire::Message Out = decodeFramed(encodeFramed(Pong));
  ASSERT_EQ(Out.TheKind, wire::Kind::PongReply);
  EXPECT_EQ(Out.ThePong.ApiVersion, 7u);
  EXPECT_EQ(Out.ThePong.SchemaVersion, 1u);
  EXPECT_EQ(Out.ThePong.RegistryFingerprint, 0x0cc54a61e044b695ull);
  EXPECT_EQ(Out.ThePong.Pid, 4242u);

  wire::Message Stats;
  Stats.TheKind = wire::Kind::StatsReply;
  Stats.TheStats.Requests = 10;
  Stats.TheStats.CertifyRequests = 4;
  Stats.TheStats.MemoHits = 3;
  Stats.TheStats.Workers = 4;
  Stats.TheStats.WorkerSpawns = 9;
  Stats.TheStats.WorkerRestarts = 5;
  Stats.TheStats.WorkerSpawnFailures = 1;
  Stats.TheStats.WorkerCrashes = 3;
  Stats.TheStats.WorkerOoms = 1;
  Stats.TheStats.WorkerTimeouts = 1;
  Stats.TheStats.WorkerRetries = 6;
  Stats.TheStats.WorkerDegraded = 2;
  Stats.TheStats.Drains = 1;
  Stats.TheStats.CacheDir = "/tmp/cache";
  Out = decodeFramed(encodeFramed(Stats));
  ASSERT_EQ(Out.TheKind, wire::Kind::StatsReply);
  EXPECT_EQ(Out.TheStats.Requests, 10u);
  EXPECT_EQ(Out.TheStats.CertifyRequests, 4u);
  EXPECT_EQ(Out.TheStats.MemoHits, 3u);
  EXPECT_EQ(Out.TheStats.Workers, 4u);
  EXPECT_EQ(Out.TheStats.WorkerSpawns, 9u);
  EXPECT_EQ(Out.TheStats.WorkerRestarts, 5u);
  EXPECT_EQ(Out.TheStats.WorkerSpawnFailures, 1u);
  EXPECT_EQ(Out.TheStats.WorkerCrashes, 3u);
  EXPECT_EQ(Out.TheStats.WorkerOoms, 1u);
  EXPECT_EQ(Out.TheStats.WorkerTimeouts, 1u);
  EXPECT_EQ(Out.TheStats.WorkerRetries, 6u);
  EXPECT_EQ(Out.TheStats.WorkerDegraded, 2u);
  EXPECT_EQ(Out.TheStats.Drains, 1u);
  EXPECT_EQ(Out.TheStats.CacheDir, "/tmp/cache");

  wire::Message Err;
  Err.TheKind = wire::Kind::ErrorReply;
  Err.Error.Reason = "server-busy";
  Err.Error.Detail = "certify admission cap reached (max-inflight 16)";
  Out = decodeFramed(encodeFramed(Err));
  ASSERT_EQ(Out.TheKind, wire::Kind::ErrorReply);
  EXPECT_EQ(Out.Error.Reason, "server-busy");
  EXPECT_EQ(Out.Error.Detail,
            "certify admission cap reached (max-inflight 16)");
}

/// One message of kind \p K with every field away from its default.
wire::Message sampleMessage(wire::Kind K) {
  wire::Message M;
  M.TheKind = K;
  switch (K) {
  case wire::Kind::CertifyRequest:
    M.Certify = sampleRequest();
    break;
  case wire::Kind::CertifyReply: {
    M.Reply.Exit = 3;
    wire::ProgramResult P;
    P.Name = "fnv1a";
    P.Status = 1;
    P.From = 2;
    P.Error = "worker-crashed: signal 9";
    P.DegradedNote = "tv step budget exhausted";
    P.TvVerdict = "inconclusive";
    P.CodelintVerdict = "safe";
    P.CertJson = "{\"schema\":2}";
    P.CertBin = std::string("\x00\x01\x02\xff binary", 11);
    M.Reply.Programs = {P, P};
    M.Reply.Programs[1].Name = "crc32";
    M.Reply.CacheHits = 5;
    M.Reply.CacheMisses = 2;
    M.Reply.CacheStores = 0x0102030405060708ull;
    break;
  }
  case wire::Kind::PongReply:
    M.ThePong = {7, 1, 0x0cc54a61e044b695ull, 4242};
    break;
  case wire::Kind::StatsReply: {
    uint64_t *Counters[] = {
        &M.TheStats.Requests,       &M.TheStats.CertifyRequests,
        &M.TheStats.MemoHits,       &M.TheStats.CacheHits,
        &M.TheStats.CacheMisses,    &M.TheStats.CacheStores,
        &M.TheStats.BusyRejections, &M.TheStats.ProtocolRejections,
        &M.TheStats.FaultedRequests, &M.TheStats.ActiveConnections,
        &M.TheStats.Workers,        &M.TheStats.WorkerSpawns,
        &M.TheStats.WorkerRestarts, &M.TheStats.WorkerSpawnFailures,
        &M.TheStats.WorkerCrashes,  &M.TheStats.WorkerOoms,
        &M.TheStats.WorkerTimeouts, &M.TheStats.WorkerRetries,
        &M.TheStats.WorkerDegraded, &M.TheStats.Drains};
    uint64_t V = 1;
    for (uint64_t *C : Counters)
      *C = V++ * 0x0101010101ull;
    M.TheStats.CacheDir = "/var/cache/relc";
    break;
  }
  case wire::Kind::ErrorReply:
    M.Error.Reason = "server-busy";
    M.Error.Detail = "certify admission cap reached (max-inflight 16)";
    break;
  case wire::Kind::PingRequest:
  case wire::Kind::StatsRequest:
  case wire::Kind::ShutdownRequest:
  case wire::Kind::ShutdownReply:
    break;
  }
  return M;
}

TEST(ProtocolTest, FramedBytesArePinnedForEveryKind) {
  // The framed bytes of one message of every kind, by length and
  // FNV-1a/64: a layout change that moves one byte fails here. Splitting
  // and decoding the pinned bytes and encoding the result gives them back.
  struct Pin {
    wire::Kind K;
    size_t Size;
    uint64_t Fnv;
  };
  const Pin Pins[] = {
      {wire::Kind::CertifyRequest, 58, 0x6c9ef6b8baae03ccull},
      {wire::Kind::PingRequest, 17, 0xd0774cff336d67f3ull},
      {wire::Kind::StatsRequest, 17, 0xd0774bff336d6640ull},
      {wire::Kind::ShutdownRequest, 17, 0xd07752ff336d7225ull},
      {wire::Kind::CertifyReply, 290, 0x8d056e650aec7f57ull},
      {wire::Kind::PongReply, 41, 0x88fc21a8d7e220f6ull},
      {wire::Kind::StatsReply, 196, 0x7c24dab643fdd680ull},
      {wire::Kind::ShutdownReply, 17, 0xd07712ff336d0565ull},
      {wire::Kind::ErrorReply, 83, 0x534a6adf8143314cull},
  };
  for (const Pin &P : Pins) {
    std::string F = encodeFramed(sampleMessage(P.K));
    int Kind = int(P.K);
    EXPECT_EQ(F.size(), P.Size) << "kind " << Kind;
    EXPECT_EQ(hash::hex16(hash::fnv1a64(F)), hash::hex16(P.Fnv))
        << "kind " << Kind;
    EXPECT_EQ(encodeFramed(decodeFramed(F)), F) << "kind " << Kind;
  }
}

//===----------------------------------------------------------------------===//
// Framing rejections, each pinned to its kebab-case reason.
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, NeedMoreOnEveryPrefix) {
  wire::Message M;
  M.TheKind = wire::Kind::PingRequest;
  std::string F = encodeFramed(M);
  // Every proper prefix of a valid frame is NeedMore, never a rejection
  // and never a premature Ok.
  for (size_t N = 0; N < F.size(); ++N) {
    size_t FrameSize = 0;
    std::string_view Payload;
    EXPECT_EQ(wire::splitFrame(std::string_view(F).substr(0, N), &FrameSize,
                               &Payload),
              wire::FrameStatus::NeedMore)
        << "prefix length " << N;
  }
}

TEST(ProtocolTest, BadMagicIsNamedFromTheFirstByte) {
  size_t FrameSize = 0;
  std::string_view Payload;
  // A wrong first byte is rejected immediately — no waiting for 8 bytes
  // that can never become the magic.
  EXPECT_EQ(wire::splitFrame("X", &FrameSize, &Payload),
            wire::FrameStatus::BadMagic);
  EXPECT_EQ(wire::splitFrame("GET / HTTP/1.1\r\n", &FrameSize, &Payload),
            wire::FrameStatus::BadMagic);
  // And a diverging later byte too.
  EXPECT_EQ(wire::splitFrame("RELCSRVX\0\0\0\0", &FrameSize, &Payload),
            wire::FrameStatus::BadMagic);
  EXPECT_STREQ(wire::frameStatusReason(wire::FrameStatus::BadMagic),
               "bad-magic");
}

TEST(ProtocolTest, UnknownSchemaVersionIsNamed) {
  wire::Message M;
  M.TheKind = wire::Kind::PingRequest;
  std::string F = encodeFramed(M);
  F[8] = 99; // Schema u32 little-endian starts at byte 8.
  size_t FrameSize = 0;
  std::string_view Payload;
  EXPECT_EQ(wire::splitFrame(F, &FrameSize, &Payload),
            wire::FrameStatus::UnknownVersion);
  EXPECT_STREQ(wire::frameStatusReason(wire::FrameStatus::UnknownVersion),
               "unknown-schema-version");
}

TEST(ProtocolTest, OversizedFrameIsNamedBeforeAllocation) {
  wire::Message M;
  M.TheKind = wire::Kind::PingRequest;
  std::string F = encodeFramed(M);
  // Declare a payload one past the cap; the header alone must be enough
  // to refuse (no attacker-sized buffering).
  uint32_t Huge = wire::kMaxFramePayload + 1;
  std::memcpy(&F[12], &Huge, 4);
  size_t FrameSize = 0;
  std::string_view Payload;
  EXPECT_EQ(wire::splitFrame(std::string_view(F).substr(0, wire::kHeaderSize),
                             &FrameSize, &Payload),
            wire::FrameStatus::Oversized);
  EXPECT_STREQ(wire::frameStatusReason(wire::FrameStatus::Oversized),
               "oversized-frame");
}

TEST(ProtocolTest, MalformedPayloadsAreNamedNeverCrash) {
  // Truncating a structured payload at EVERY byte must yield
  // "malformed-frame" (the kind byte alone is a valid kind-only message
  // for some kinds, so skip full length and, for those, length 1).
  wire::Message M;
  M.TheKind = wire::Kind::CertifyRequest;
  M.Certify = sampleRequest();
  std::string Payload = wire::encode(M);
  for (size_t N = 1; N < Payload.size(); ++N) {
    wire::Message Out;
    std::string Reason;
    EXPECT_FALSE(
        wire::decode(std::string_view(Payload).substr(0, N), &Out, &Reason))
        << "truncation at " << N;
    EXPECT_EQ(Reason, "malformed-frame") << "truncation at " << N;
  }
  // Empty payload: no kind byte at all.
  wire::Message Out;
  std::string Reason;
  EXPECT_FALSE(wire::decode("", &Out, &Reason));
  EXPECT_EQ(Reason, "malformed-frame");
  // Trailing garbage after a complete message is tampering, not slack.
  std::string Padded = Payload + "x";
  EXPECT_FALSE(wire::decode(Padded, &Out, &Reason));
  EXPECT_EQ(Reason, "malformed-frame");
}

TEST(ProtocolTest, HostileCountsAreMalformedNotAllocated) {
  // A certify request claiming 2^31 programs in a 16-byte payload must
  // be refused by name without attempting the allocation.
  std::string Payload;
  Payload.push_back(char(wire::Kind::CertifyRequest));
  uint32_t Count = 0x80000000u;
  Payload.append(reinterpret_cast<const char *>(&Count), 4);
  wire::Message Out;
  std::string Reason;
  EXPECT_FALSE(wire::decode(Payload, &Out, &Reason));
  EXPECT_EQ(Reason, "malformed-frame");
}

TEST(ProtocolTest, UnknownKindByteIsNamed) {
  std::string Payload(1, char(0x33));
  wire::Message Out;
  std::string Reason;
  EXPECT_FALSE(wire::decode(Payload, &Out, &Reason));
  EXPECT_EQ(Reason, "unknown-request-kind");
}

TEST(ProtocolTest, TwoFramesSplitCleanly) {
  wire::Message A, B;
  A.TheKind = wire::Kind::PingRequest;
  B.TheKind = wire::Kind::StatsRequest;
  std::string Buf = encodeFramed(A) + encodeFramed(B);
  size_t FrameSize = 0;
  std::string_view Payload;
  ASSERT_EQ(wire::splitFrame(Buf, &FrameSize, &Payload),
            wire::FrameStatus::Ok);
  wire::Message M;
  std::string Reason;
  ASSERT_TRUE(wire::decode(Payload, &M, &Reason));
  EXPECT_EQ(M.TheKind, wire::Kind::PingRequest);
  Buf.erase(0, FrameSize);
  ASSERT_EQ(wire::splitFrame(Buf, &FrameSize, &Payload),
            wire::FrameStatus::Ok);
  ASSERT_TRUE(wire::decode(Payload, &M, &Reason));
  EXPECT_EQ(M.TheKind, wire::Kind::StatsRequest);
  EXPECT_EQ(FrameSize, Buf.size());
}

} // namespace
