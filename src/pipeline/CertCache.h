//===- pipeline/CertCache.h - Content-addressed certificate cache -*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Certification verdicts are deterministic functions of (model, fnspec,
// emitted code, validation options): the same triple always replays, ana-
// lyzes, translation-validates, and differentially certifies to the same
// result. This cache makes that determinism pay: relc-gen keys each
// program's verdict on content hashes of exactly those inputs and skips
// re-certification when an identical triple was already certified —
// groundwork for incremental suite builds at scale.
//
// Trust story (DESIGN.md §4.5): the cache holds *verdicts*, never code.
// Every run still compiles the model and re-emits the C from the freshly
// compiled function; a cache hit only skips re-deriving the certification
// verdict for inputs proven (by hash) identical to ones already certified.
// Any change to the model, the fnspec, the emitted code, or the validation
// options changes a hash and misses — invalidation is structural, not
// time-based. Entries that fail to decode, whose recorded key disagrees
// with the filename, or whose integrity hash does not match the payload
// are *discarded and deleted*, and the verdict is re-derived from scratch:
// a corrupted cache can cost time, never soundness. Entries are only ever
// written for fully successful certifications — failures are not cached
// (they are cheap to re-derive and their diagnostics should stay fresh).
//
// On-disk format: one file per entry under the cache directory, named by
// the key — <model>-<spec>-<code>.cert.bin (16 hex digits each): every
// field as length-prefixed records behind a magic + version, with a
// trailing integrity hash. The fields are stated once in CertCache.cpp as
// a layout over support/Bytes.h, the bounds-checked codec the certificate
// image and the wire frames share (DESIGN.md §4.10); only the header is
// checked by hand, magic then integrity then version. The image carries
// both certificate payloads verbatim, so a warm hit is one read and a
// bounds-checked fixed-field decode. A missing, corrupt, or misfiled image
// is a plain miss; any other file in the directory (such as a .cert.json
// written by older relc versions) is never read. store() writes through a
// unique temp file and a rename, so a crash leaves either the old entry or
// the new one.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_PIPELINE_CERTCACHE_H
#define RELC_PIPELINE_CERTCACHE_H

#include "support/Result.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace relc {
namespace pipeline {

/// Content-hash triple addressing one certification verdict.
struct CertKey {
  uint64_t ModelHash = 0; ///< Model rendering + compile-hint fact digest.
  uint64_t SpecHash = 0;  ///< Fnspec rendering (ABI, returns, in-place).
  uint64_t CodeHash = 0;  ///< Emitted Bedrock2 function rendering.

  /// "<model>-<spec>-<code>", 16 hex digits each: the entry's file stem.
  std::string fileStem() const;

  bool operator==(const CertKey &O) const {
    return ModelHash == O.ModelHash && SpecHash == O.SpecHash &&
           CodeHash == O.CodeHash;
  }
};

/// One cached certification verdict, with enough detail to reproduce a
/// successful run's terminal output and .tv.json artifact byte for byte.
struct CertEntry {
  std::string Program;      ///< Program name (diagnostics only, not key).
  uint64_t OptsHash = 0;    ///< Validation-options digest; part of lookup.
  bool ReplayOk = false;    ///< Layer 1 verdict.
  bool AnalysisOk = false;  ///< Layer 2 verdict (no errors).
  uint64_t AnalysisWarnings = 0;
  /// Rendered analysis diagnostics (warnings), newline-joined, so a warm
  /// run reprints them byte-identically to the cold run ("" if none).
  std::string AnalysisDiags;
  bool TvRan = false;       ///< Layer 3 executed (vs. disabled).
  std::string TvVerdict;    ///< "Proved" / "Inconclusive" ("" if !TvRan).
  uint64_t TvLoops = 0, TvTerms = 0; ///< For the per-program tv line.
  std::string TvCertificate; ///< The .tv.json payload ("" if !TvRan).
  /// The .certbin payload (cert::BinWriter image; "" if !TvRan). Carried
  /// verbatim in the cache entry so warm runs reproduce cold artifacts
  /// byte-for-byte.
  std::string TvCertBin;
  bool CodelintRan = false;  ///< Target-side codelint layer executed.
  std::string CodelintVerdict; ///< Overall verdict name ("" if !CodelintRan).
  bool DifferentialOk = false; ///< Layer 4 verdict.
};

/// Running statistics for one pipeline execution.
struct CacheStats {
  unsigned Hits = 0;
  unsigned Misses = 0;
  unsigned Stores = 0;
  unsigned CorruptDiscarded = 0;
  unsigned BinHits = 0; ///< Hits served from the binary image (== Hits).
};

class CertCache {
public:
  /// \p Dir empty disables the cache (lookup misses, store no-ops).
  /// Opening an enabled cache sweeps temp files orphaned by crashed
  /// writers (see sweepStaleTemps).
  explicit CertCache(std::string Dir);

  bool enabled() const { return !Dir.empty(); }
  const std::string &dir() const { return Dir; }

  /// Returns the entry for \p Key iff one exists, decodes cleanly, passes
  /// its integrity hash, and matches \p OptsHash. A present-but-invalid
  /// entry is deleted (and counted in \p Stats->CorruptDiscarded); an
  /// options mismatch is a plain miss (the entry stays — another flag
  /// combination may still want it... but see store(), which overwrites).
  std::optional<CertEntry> lookup(const CertKey &Key, uint64_t OptsHash,
                                  CacheStats *Stats = nullptr) const;

  /// Persists \p Entry under \p Key (creating the directory on first use).
  /// The write is atomic: a *uniquely named* temp file (pid + per-process
  /// counter in the suffix, so concurrent writers — including separate
  /// relc-gen processes sharing one cache — never collide) is renamed into
  /// place, and readers never observe a torn entry. I/O failures are
  /// retried a few times with short backoff before giving up; a failed
  /// store leaves no temp file behind. Only call for fully successful,
  /// non-degraded certifications.
  Status store(const CertKey &Key, const CertEntry &Entry,
               CacheStats *Stats = nullptr) const;

  /// Removes temp files (".cert.bin.tmp*", plus the ".cert.json.tmp*"
  /// older writers produced) under the cache directory older than
  /// \p MaxAge — debris from writers that crashed between create and
  /// rename. Returns how many were removed. Called automatically on open
  /// with a conservative age; tests pass 0s to sweep unconditionally.
  unsigned
  sweepStaleTemps(std::chrono::seconds MaxAge = std::chrono::seconds(600))
      const;

  /// The entry image store() writes: every field (including both
  /// certificate payloads, verbatim) as length-prefixed little-endian
  /// records behind a magic + version, with a trailing FNV-1a integrity
  /// hash. Loading it allocates one string per string field — O(1)
  /// allocations per entry, no parsing.
  static std::string serializeBin(const CertKey &Key, const CertEntry &Entry);

  /// Inverse of serializeBin(). Fails (nullopt) on bad magic or version,
  /// a truncated or oversized image, any out-of-range length, or an
  /// integrity-hash mismatch. Never throws; never trusts a length before
  /// bounds-checking it.
  static std::optional<CertEntry> deserializeBin(const std::string &Image,
                                                 CertKey *KeyOut = nullptr);

private:
  std::string Dir;

  std::string binPathFor(const CertKey &Key) const;
};

} // namespace pipeline
} // namespace relc

#endif // RELC_PIPELINE_CERTCACHE_H
