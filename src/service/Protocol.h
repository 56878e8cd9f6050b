//===- service/Protocol.h - relcd wire schema v1 ----------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The versioned, length-prefixed request/response wire schema the relcd
// daemon speaks over its Unix-domain socket — a direct projection of
// service::Request / service::Response (Service.h), with the same
// named-rejection discipline the .certbin reader established: every way
// a frame can be refused has exactly one kebab-case reason, pinned by
// tests and stable across releases.
//
// Frame layout (all integers little-endian):
//
//   magic[8] = "RELCSRVC" | schema u32 | payload-length u32 | payload...
//
// and the payload is one tagged message: a leading kind byte, then that
// kind's fields (strings are u32-length-prefixed byte runs; lists are
// u32-count-prefixed). Each body's layout is stated once in Protocol.cpp
// over support/Bytes.h, the encoding the certificate image and the cache
// entry share: the bounds-checked Reader that decodes it is argued for
// once, in DESIGN.md §4.10.
//
// Named rejections (kebab-case, exhaustive):
//
//   bad-magic               frame does not start with "RELCSRVC"
//   unknown-schema-version  header names a schema this build cannot speak
//   oversized-frame         declared payload exceeds kMaxFramePayload
//   truncated-frame         peer closed (or went silent) mid-frame
//   malformed-frame         payload bytes do not decode as the tagged kind
//   unknown-request-kind    well-formed frame, unrecognized kind byte
//   unknown-program         certify request names an unregistered program
//   server-busy             backpressure: admission cap reached, no idle
//                           worker, or the daemon is draining
//   request-timeout         peer fed bytes too slowly (slow-loris guard)
//   injected-fault          relc::fault fired at a svc-* site (testing)
//
// Worker-supervision degradations (same discipline — named, never
// cached or memoized; see service/Supervisor.h):
//
//   worker-crashed            worker died by signal or unexpected exit
//   worker-oom                worker exceeded RLIMIT_AS (OOM exit code)
//   worker-timeout            per-job wall deadline or RLIMIT_CPU hit
//   worker-retries-exhausted  every retry of a job lost its worker
//
// Degraded and faulted outcomes travel as *named statuses* inside a
// well-formed reply (or as a named error frame) — never as a silent
// connection drop, and never into any cache.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SERVICE_PROTOCOL_H
#define RELC_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace relc {
namespace service {
namespace wire {

constexpr char kMagic[8] = {'R', 'E', 'L', 'C', 'S', 'R', 'V', 'C'};
constexpr uint32_t kSchemaVersion = 1;
constexpr size_t kHeaderSize = 16;
/// Hard cap on one frame's payload: a whole-suite reply with both
/// certificate faces is ~100 KiB, so 16 MiB is generous headroom while
/// still refusing absurd allocations before they happen.
constexpr uint32_t kMaxFramePayload = 16u << 20;

/// Message kinds. Requests are low, replies have the high bit region,
/// so a kind byte is never valid in both directions.
enum class Kind : uint8_t {
  CertifyRequest = 0x01,
  PingRequest = 0x02,
  StatsRequest = 0x03,
  ShutdownRequest = 0x04,
  CertifyReply = 0x41,
  PongReply = 0x42,
  StatsReply = 0x43,
  ShutdownReply = 0x44,
  ErrorReply = 0x7F,
};

/// A certify request: the wire face of service::Request. The daemon
/// supplies CacheDir/Jobs/EmitC itself (server policy, not client
/// choice).
struct CertifyRequest {
  std::vector<std::string> Programs; ///< Empty = the whole suite.
  bool Validate = true;
  bool Analyze = true;
  bool Tv = true;
  bool Codelint = true;
  bool KeepGoing = false;
  bool WantCertJson = true; ///< Reply carries the .tv.json face.
  bool WantCertBin = true;  ///< Reply carries the .certbin face.
  uint32_t LayerTimeoutMs = 0; ///< 0 = accept the server default.
  uint64_t TvStepBudget = 0;   ///< 0 = accept the server default.
};

/// One program's result inside a certify reply: the flat projection of
/// service::ProgramReply.
struct ProgramResult {
  std::string Name;
  uint8_t Status = 0; ///< service::ProgramStatus.
  uint8_t From = 0;   ///< service::Provenance (cache-hit provenance).
  std::string Error;
  std::string DegradedNote;
  std::string TvVerdict;
  std::string CodelintVerdict;
  std::string CertJson; ///< Byte-identical to relc-gen's .tv.json.
  std::string CertBin;  ///< Byte-identical to relc-gen's .certbin.
};

struct CertifyReply {
  uint8_t Exit = 0; ///< The stable relc-gen exit taxonomy (0/1/2/3).
  std::vector<ProgramResult> Programs;
  /// Disk certificate-cache traffic this reply caused — in worker mode
  /// the cache I/O happens in the worker subprocess, so the counters
  /// ride the reply back for the daemon's aggregate stats.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheStores = 0;
};

struct Pong {
  uint32_t ApiVersion = 0;          ///< service::kApiVersion.
  uint32_t SchemaVersion = 0;       ///< wire::kSchemaVersion.
  uint64_t RegistryFingerprint = 0; ///< core::standardRegistryFingerprint.
  uint64_t Pid = 0;
};

struct Stats {
  uint64_t Requests = 0;        ///< Frames dispatched (all kinds).
  uint64_t CertifyRequests = 0;
  uint64_t MemoHits = 0;        ///< Served from the in-memory reply memo.
  uint64_t CacheHits = 0;       ///< Disk certificate-cache hits.
  uint64_t CacheMisses = 0;
  uint64_t CacheStores = 0;
  uint64_t BusyRejections = 0;      ///< server-busy replies.
  uint64_t ProtocolRejections = 0;  ///< Named frame rejections.
  uint64_t FaultedRequests = 0;     ///< injected-fault replies.
  uint64_t ActiveConnections = 0;
  // Worker-supervision counters (all 0 when the daemon runs certify
  // in-process, i.e. -workers 0).
  uint64_t Workers = 0;            ///< Configured worker-pool size.
  uint64_t WorkerSpawns = 0;       ///< Total worker forks (incl. initial).
  uint64_t WorkerRestarts = 0;     ///< Respawns after an abnormal death.
  uint64_t WorkerSpawnFailures = 0;
  uint64_t WorkerCrashes = 0;      ///< Deaths by signal / unexpected exit.
  uint64_t WorkerOoms = 0;         ///< Deaths by the OOM exit code.
  uint64_t WorkerTimeouts = 0;     ///< Per-job wall-deadline kills.
  uint64_t WorkerRetries = 0;      ///< Jobs re-dispatched after a loss.
  uint64_t WorkerDegraded = 0;     ///< worker-* degraded replies served.
  uint64_t Drains = 0;             ///< Graceful drains begun.
  std::string CacheDir;
};

struct ErrorReply {
  std::string Reason; ///< One of the kebab-case names above.
  std::string Detail; ///< Human-readable elaboration ("" allowed).
};

/// One decoded message of any kind; only the member matching TheKind is
/// meaningful.
struct Message {
  Kind TheKind = Kind::PingRequest;
  CertifyRequest Certify; ///< Kind::CertifyRequest.
  CertifyReply Reply;     ///< Kind::CertifyReply.
  Pong ThePong;           ///< Kind::PongReply.
  Stats TheStats;         ///< Kind::StatsReply.
  ErrorReply Error;       ///< Kind::ErrorReply.
};

//===----------------------------------------------------------------------===//
// Framing.
//===----------------------------------------------------------------------===//

/// What examining a byte buffer for one frame decided.
enum class FrameStatus : uint8_t {
  Ok,             ///< A complete frame; *Payload and *FrameSize are set.
  NeedMore,       ///< Prefix of a valid frame; read more bytes.
  BadMagic,       ///< "bad-magic".
  UnknownVersion, ///< "unknown-schema-version".
  Oversized,      ///< "oversized-frame".
};

/// The kebab-case rejection for a terminal FrameStatus ("" for Ok /
/// NeedMore).
const char *frameStatusReason(FrameStatus S);

/// Wraps \p Payload in a frame header.
std::string frame(std::string_view Payload);

/// Examines \p Buf for one complete frame. On Ok, *FrameSize is the
/// total frame length (consume it) and *Payload aliases the payload
/// bytes inside \p Buf.
FrameStatus splitFrame(std::string_view Buf, size_t *FrameSize,
                       std::string_view *Payload);

//===----------------------------------------------------------------------===//
// Payload encoding.
//===----------------------------------------------------------------------===//

/// Encodes \p M into a payload (frame it with frame() before writing).
std::string encode(const Message &M);

/// Decodes one payload. On failure returns false with *Reason set to
/// "malformed-frame" or "unknown-request-kind".
bool decode(std::string_view Payload, Message *M, std::string *Reason);

/// Encodes, frames and writes \p M to the socket \p Fd whole, retrying
/// on EINTR and never raising SIGPIPE. False (errno set) if the peer is
/// gone or the write failed.
bool sendFrame(int Fd, const Message &M);

} // namespace wire
} // namespace service
} // namespace relc

#endif // RELC_SERVICE_PROTOCOL_H
