//===- cert/Binary.h - Zero-copy binary certificate image -------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A versioned, relocatable binary encoding of cert::Certificate, and the
// one certificate input relc-check reads. The canonical JSON face
// (Writer.h) is its rendering: relc-check renders the image it accepted
// and requires the .tv.json beside it to equal that rendering byte for
// byte, so the JSON needs no decoder of its own in the checker. The image
// loads with one read and a bounds-checked walk.
//
// Image layout (all integers little-endian, position-independent — every
// reference is an offset from the image start, never a pointer):
//
//   [ 0..8)   magic "RELCCERT"
//   [ 8..12)  u32 container format version (kBinFormatVersion)
//   [12..16)  u32 certificate schema version (cert::kSchemaVersion)
//   [16..24)  u64 total image size in bytes
//   [24..48)  u64 model / spec / code content hashes
//   [48..64)  u64 records region (offset, length)
//   [64..80)  u64 string table (offset, length)
//   records:  fixed-width fields in schema order; strings are (u32 offset,
//             u32 length) slices of the string table (deduplicated, so
//             equal Certificates serialize byte-identically)
//   strings:  raw bytes, no terminators
//   [-8..)    u64 integrity = FNV-1a over every preceding byte
//
// The records region is stated once in Binary.cpp, as a layout over
// support/Bytes.h: the bounds-checked codec the cache entry and the relcd
// wire frames share, whose overrun argument DESIGN.md §4.10 makes once.
// The header is checked by hand, in the order below.
//
// Trust story (DESIGN.md §4.10): a mapped image is *untrusted input*. The
// reader verifies magic, versions, the declared size, and the trailing
// integrity hash before touching a single record, and every slice read —
// record cursor advance or string reference — is bounds-checked against
// the declared regions. Any lie is a named rejection (truncated-image /
// bad-magic / unknown-schema-version / integrity-mismatch /
// offset-out-of-range), and a rejection is never an acceptance: callers
// fall back to re-deriving, not to trusting.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CERT_BINARY_H
#define RELC_CERT_BINARY_H

#include "cert/Cert.h"

#include <optional>
#include <string>
#include <string_view>

namespace relc {
namespace cert {

/// Leading magic of every binary certificate image.
constexpr char kBinMagic[8] = {'R', 'E', 'L', 'C', 'C', 'E', 'R', 'T'};

/// Container format version this toolchain writes (bumped only when the
/// image layout changes; the certificate schema is versioned separately).
constexpr uint32_t kBinFormatVersion = 1;

/// File extension relc-gen writes binary certificates under.
constexpr const char *kBinExtension = ".certbin";

class BinWriter {
public:
  /// The canonical binary image for \p C: deterministic byte-for-byte for
  /// a given Certificate (fixed field order, first-occurrence-deduplicated
  /// string table), so warm runs and -j N runs reproduce cold -j 1 output
  /// exactly, matching the JSON writer's byte-identity contract.
  static std::string write(const Certificate &C);
};

class BinReader {
public:
  /// Decodes \p Image, verifying magic, version, declared size, and the
  /// trailing integrity hash, and bounds-checking every record and string
  /// reference. On failure \p Err (if given) carries one of the named
  /// binary rejections; the partial decode is discarded.
  static std::optional<Certificate> parse(std::string_view Image,
                                          ReadError *Err = nullptr);

  /// Maps (POSIX mmap, falling back to a buffered read) and decodes
  /// \p Path. MissingCertificate if the file cannot be opened.
  static std::optional<Certificate> readFile(const std::string &Path,
                                             ReadError *Err = nullptr);
};

} // namespace cert
} // namespace relc

#endif // RELC_CERT_BINARY_H
