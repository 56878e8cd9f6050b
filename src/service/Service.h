//===- service/Service.h - One audited certification surface ----*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The single request/response pair every certification consumer drives
// the pipeline through — relc-gen, relc-lint, the relcd daemon, benches,
// and tests all build a service::Request and read a service::Response,
// instead of each re-plumbing PipelineOptions + ValidationOptions + its
// own exit-code classification. That gives the toolbox ONE audited
// surface: the exit taxonomy (0 certified / 1 failed / 2 usage /
// 3 degraded), the degraded-never-cached rule, and the cache/budget
// semantics are decided here once, and the wire protocol
// (service/Protocol.h) is a direct projection of these structs.
//
// A Response carries both the flat, wire-projectable summary per program
// (status name, provenance, verdict names, certificate bytes) and the
// full pipeline::ProgramOutcome — in-process consumers like relc-lint
// need the live analysis/TV/codelint report objects and the derivation
// witness, which never cross the wire.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SERVICE_SERVICE_H
#define RELC_SERVICE_SERVICE_H

#include "pipeline/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace relc {
namespace service {

/// The service API version, carried in ping replies next to the wire
/// schema version (service/Protocol.h) and the cert schema version.
constexpr uint32_t kApiVersion = 1;

/// One compile-and-certify request. Field defaults are the relc-gen
/// defaults; the daemon overlays its server-side budget defaults before
/// dispatching wire requests.
struct Request {
  /// Program names to certify; empty = the whole registered suite. An
  /// unknown name is a usage error ("unknown-program"), not a silent
  /// no-op.
  std::vector<std::string> Programs;

  // Layer toggles, passed to PipelineOptions verbatim.
  bool Validate = true; ///< Layers 1 and 4 (replay + differential).
  bool Analyze = true;  ///< Layer 2 (dataflow verifier).
  bool Tv = true;       ///< Layer 3 (translation validation).
  bool Codelint = true; ///< Layer 5 (target-side codelint).

  unsigned Jobs = 1;    ///< Scheduler width; 0 = hardware threads.
  std::string CacheDir; ///< Certificate cache; "" disables it.

  // Robustness budgets (0 = unlimited). Degraded outcomes are named and
  // never cached.
  unsigned LayerTimeoutMs = 0;
  uint64_t TvStepBudget = 0;
  bool KeepGoing = false; ///< Classify degraded-only failures as exit 3.

  // Artifact selection: which certificate faces the reply carries.
  bool WantCertJson = true; ///< Fill ProgramReply::CertJson.
  bool WantCertBin = true;  ///< Fill ProgramReply::CertBin.
  bool EmitC = false;       ///< Fill ProgramReply::CCode + Response::CHeader.
};

/// Per-program classification, the exit taxonomy's program-level face.
enum class ProgramStatus : uint8_t {
  Certified,          ///< Fully certified at full strength.
  CertifiedDegraded,  ///< Certified, but a layer ran truncated (exit 3).
  Degraded,           ///< KeepGoing: only degraded problems (exit 3).
  Failed,             ///< Genuine certification failure (exit 1).
};
const char *statusName(ProgramStatus S); ///< "certified", "failed", ...
bool statusFromName(const std::string &Name, ProgramStatus *Out);

/// Where a reply's verdicts came from.
enum class Provenance : uint8_t {
  Live,      ///< Certified live this request.
  DiskCache, ///< Replayed from the on-disk certificate cache.
  Memo,      ///< Served from the daemon's in-memory response memo.
};
const char *provenanceName(Provenance P); ///< "live", "disk-cache", "memo".

/// One program's reply: the flat wire-projectable summary plus the full
/// in-process outcome. Move-only (the outcome owns its witness).
struct ProgramReply {
  std::string Name;
  ProgramStatus Status = ProgramStatus::Failed;
  Provenance From = Provenance::Live;

  /// Rendered first failure (Failed), or the degradation story
  /// (Degraded) — "" for certified programs.
  std::string Error;
  /// First degraded problem's text when any layer was degraded.
  std::string DegradedNote;

  std::string TvVerdict;       ///< verdictName() form ("proved", ...).
  std::string CodelintVerdict; ///< "safe"/"unknown"/"unsafe" ("" if off).

  std::string CertJson; ///< Per Request::WantCertJson.
  std::string CertBin;  ///< Per Request::WantCertBin.
  std::string CCode;    ///< Complete .c file body per Request::EmitC.

  /// The full pipeline outcome, for consumers needing live reports
  /// (relc-lint) or intermediate artifacts (-print-bedrock).
  pipeline::ProgramOutcome Outcome;
};

struct Response {
  /// The stable relc-gen exit taxonomy: 0 = every program certified at
  /// full strength, 1 = genuine failure, 2 = usage error, 3 = degraded.
  int Exit = 0;
  /// Nonempty iff Exit == 2 ("unknown-program: 'x'").
  std::string UsageError;
  /// resolveJobs' clamp note, "" when the request was honored verbatim.
  std::string JobsNote;

  std::vector<ProgramReply> Programs;
  pipeline::PipelineStats Stats;

  /// Aggregate C declaration header (prelude + decls) when EmitC.
  std::string CHeader;
};

/// THE entry point: certifies Request::Programs through
/// pipeline::certifyPrograms and classifies every outcome. Never throws;
/// usage errors come back as Exit == 2.
Response certify(const Request &R);

} // namespace service
} // namespace relc

#endif // RELC_SERVICE_SERVICE_H
