//===- cert/Cert.h - The versioned certificate surface ----------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// First-class, versioned equivalence certificates. The paper's central
// claim is that the compiler need not be trusted because every run emits
// a checkable artifact; in Coq that artifact is a proof term the kernel
// re-checks. Here it is a `Certificate`: the translation validator's
// term-graph hashes (per source binding, per loop summary, per output
// channel), the loop-match *witness* the validator's search found, and
// content hashes pinning the exact (model, fnspec, code) triple the
// verdict is about.
//
// This header is the schema. `cert::BinWriter` and `cert::BinReader`
// (Binary.h) encode and decode its binary image, the one input relc-check
// reads; `cert::Writer` (Writer.h) renders its canonical JSON face; and
// `cert::Rederive` (Rederive.h) is the independent checker that re-derives
// every hash from the model and the command tree without trusting the TV
// driver — the de Bruijn move: a small checker audits a large searcher.
//
// Schema history:
//   v1  "format": "relc-tv-certificate-v1" — hashes and traces, but no
//       content hashes, no producer identity, and no loop witness. No
//       reader accepts it: a v1 file has no "schema_version" and is
//       `malformed-certificate`.
//   v2  "schema_version": 2 — adds producer identity, model/fnspec/code
//       content hashes (support/Hash FNV-1a over the canonical
//       renderings, the same key the certificate cache uses), per-loop
//       source paths and match witnesses, per-layer verdict text, and an
//       optional "codelint" section (cert::CodelintRec, versioned
//       independently) recording the target-side analyzer's verdicts.
//   v3  "schema_version": 3 — drops "num_terms", the producer's term-graph
//       size, which the checker cannot re-derive. Every field left is
//       checked, and the codelint section is required.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CERT_CERT_H
#define RELC_CERT_CERT_H

#include "ir/Prog.h"
#include "sep/Spec.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace relc {

namespace bedrock {
struct Function;
}

namespace sep {
class CompState;
}

namespace codelint {
struct Report;
}

namespace cert {

/// The schema version this toolchain writes, and the only one its readers
/// accept.
constexpr unsigned kSchemaVersion = 3;

/// Producer identity stamped into every emitted certificate.
constexpr const char *kProducer = "relc-tv";

/// Content-hash triple naming the exact inputs a certificate is about —
/// the same triple the certificate cache keys verdicts on.
struct ContentKey {
  uint64_t ModelHash = 0; ///< Model rendering + compile-hint fact digest.
  uint64_t SpecHash = 0;  ///< Fnspec rendering (ABI, returns, in-place).
  uint64_t CodeHash = 0;  ///< Emitted Bedrock2 function rendering.

  bool operator==(const ContentKey &O) const {
    return ModelHash == O.ModelHash && SpecHash == O.SpecHash &&
           CodeHash == O.CodeHash;
  }
};

/// Entry-fact providers, as the compiler and analyzer consume them
/// (analysis::EntryFactList and core::CompileHints::EntryFacts are this
/// same type; cert names it independently to stay below both layers).
using EntryFacts = std::vector<std::function<void(sep::CompState &)>>;

/// Computes the content key for (model+hints, fnspec, code). This is THE
/// key function: the certificate cache, the certificate writer, and the
/// independent checker all derive their hashes through it, so "the same
/// program" means the same thing everywhere.
ContentKey contentKey(const ir::SourceFn &Model, const EntryFacts &Hints,
                      const sep::FnSpec &Spec, const bedrock::Function &Code);

//===----------------------------------------------------------------------===//
// Certificate records (mirroring the TV trace, but owned by cert so the
// schema cannot drift silently under the validator's internals).
//===----------------------------------------------------------------------===//

/// One source binding's normalized value hash.
struct BindingRec {
  std::string Path; ///< "2", "4.then.0", ... (binding index path).
  std::string Name; ///< Bound name(s), comma-joined for multi-binds.
  uint64_t Hash = 0;
};

/// One matched loop pair: the model's summary plus the search's witness.
struct LoopRec {
  unsigned Ordinal = 0;
  std::string Binding;    ///< The model binding the loop came from.
  std::string Path;       ///< Source binding path of the loop.
  uint64_t FoldHash = 0;  ///< Hash of the shared Fold summary node.
  unsigned Carried = 0;
  unsigned Regions = 0;
  /// The match witness: target local implementing carried position j
  /// (size == Carried for a proved certificate), the regions the target
  /// loop stores to, and the While statement's path. With the witness
  /// recorded, the checker replays the match as a deterministic
  /// verification — no bijection search.
  std::vector<std::string> WitnessLocals;
  std::vector<std::string> WitnessRegions;
  std::string TargetPath;
};

/// One fnspec output channel's comparison.
struct OutputRec {
  std::string Name;
  std::string Kind; ///< "scalar", "array", "cell", or "frame".
  uint64_t SrcHash = 0, TgtHash = 0;
  bool Matched = false;
  std::string SourceBinding; ///< Last model binding of Name.
  std::string TargetPath;    ///< Last target statement defining it.
};

/// The target-side codelint section (DESIGN.md §4.9): the
/// analyzer's three verdicts plus the resource numbers they certify.
/// Versioned independently of the certificate schema so the analyzer can
/// evolve without a schema bump; the checker re-derives the whole record
/// from the emitted code and compares field-for-field.
struct CodelintRec {
  unsigned Version = 0;     ///< codelint::kCodelintVersion at write time.
  std::string Mem;          ///< "safe" / "unknown" / "unsafe".
  std::string Stack;
  std::string Steps;
  uint64_t Accesses = 0;    ///< Memory accesses proved in-bounds.
  uint64_t LocalsBytes = 0; ///< Worst-case locals footprint.
  uint64_t ScratchBytes = 0;///< Worst-case live stackalloc bytes.
  uint64_t OperandDepth = 0;///< stackm max operand-stack depth (else 0).
  uint64_t StepBound = 0;   ///< Step envelope when Steps == "safe".

  bool operator==(const CodelintRec &O) const {
    return Version == O.Version && Mem == O.Mem && Stack == O.Stack &&
           Steps == O.Steps && Accesses == O.Accesses &&
           LocalsBytes == O.LocalsBytes && ScratchBytes == O.ScratchBytes &&
           OperandDepth == O.OperandDepth && StepBound == O.StepBound;
  }
};

/// Projects an analyzer report into the certificate record (stamping the
/// current analyzer version). Both the pipeline's writer and the checker's
/// re-derivation go through this one function, so "the same analysis"
/// means the same thing on both sides.
CodelintRec codelintRecOf(const codelint::Report &R);

struct Certificate {
  unsigned SchemaVersion = kSchemaVersion;
  std::string Producer = kProducer;
  std::string Function; ///< Target function name.
  ContentKey Key;       ///< Content hashes the verdict is about.
  std::string Verdict;  ///< "proved" / "refuted" / "inconclusive".
  std::string Reason;   ///< Refutation / inconclusiveness explanation.
  std::vector<LoopRec> Loops;
  std::vector<BindingRec> Bindings;
  std::vector<OutputRec> Outputs;
  /// Present iff the pipeline's codelint layer ran to completion
  /// (un-degraded, budget not exhausted); required by the checker.
  std::optional<CodelintRec> Codelint;

  bool proved() const { return Verdict == "proved"; }
};

//===----------------------------------------------------------------------===//
// Named rejection reasons (the checker's entire output vocabulary; CI and
// the tamper-corpus tests match on these exact strings).
//===----------------------------------------------------------------------===//

enum class Reject : uint8_t {
  MissingCertificate,   ///< No certificate file for the program.
  MalformedCertificate, ///< Not parseable as any known schema.
  UnknownSchemaVersion, ///< schema_version other than kSchemaVersion.
  FunctionMismatch,     ///< Certificate names a different function.
  StaleModel,           ///< Model hash differs from the suite's model.
  StaleSpec,            ///< Fnspec hash differs.
  StaleCode,            ///< Code hash differs from the fresh compile.
  VerdictNotProved,     ///< Only proved certificates are acceptable.
  ProducerMismatch,     ///< A proved certificate names another producer.
  ProvedWithReason,     ///< A proved certificate carries a reason.
  TruncatedTrace,       ///< Binding trace shorter/longer than derived.
  BindingTraceMismatch, ///< A binding path/name/hash differs.
  LoopSummaryMismatch,  ///< A loop's fold hash or shape differs.
  LoopWitnessMismatch,  ///< The recorded witness fails verification.
  OutputMismatch,       ///< An output channel's record differs.
  MissingCodelint,      ///< The certificate has no codelint section.
  CodelintMismatch,     ///< The codelint section differs from what the
                        ///< checker re-derives from the emitted code.
  RederivationFailed,   ///< The checker could not model the program.
  // Binary-image rejections (cert/Binary.h). The mmap'd image is
  // untrusted input: each of these names one way it can lie.
  TruncatedImage,       ///< Image shorter than its header claims.
  IntegrityMismatch,    ///< Trailing integrity hash does not cover the
                        ///< image bytes.
  BadMagic,             ///< Leading magic is not a relc binary cert.
  OffsetOutOfRange,     ///< A record or string slice escapes the image.
  JsonFaceMismatch,     ///< The JSON face is not the image's rendering.
};

/// Stable kebab-case name ("missing-certificate", ...).
const char *rejectName(Reject R);

/// Why a decode failed, in checker vocabulary (MissingCertificate for a
/// file that cannot be opened).
struct ReadError {
  Reject Why = Reject::MalformedCertificate;
  std::string Detail;
};

/// One certificate check's outcome.
struct CheckResult {
  bool Accepted = false;
  Reject Why = Reject::RederivationFailed; ///< Meaningful when rejected.
  std::string Detail;                      ///< Human explanation.

  static CheckResult accept() { return {true, Reject::RederivationFailed, ""}; }
  static CheckResult reject(Reject R, std::string Detail) {
    return {false, R, std::move(Detail)};
  }
};

} // namespace cert
} // namespace relc

#endif // RELC_CERT_CERT_H
