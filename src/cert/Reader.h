//===- cert/Reader.h - Certificate parsing ----------------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Parses the canonical JSON face back into the typed `cert::Certificate`.
// The one accepted input is a file with "schema_version": kSchemaVersion,
// such as the canonical Writer output. Parsing is a real (minimal,
// recursive-descent) JSON parse, not a byte comparison, so hand-edited or
// re-serialized files load too. relc-check does not link it: it decodes
// the binary image and compares the JSON face with its rendering.
//
// Any other "schema_version", older or newer, is *not* malformed: it is
// reported distinctly (UnknownSchemaVersion), as cert::BinReader does for
// the binary face, so operators can tell "wrong toolchain" from "corrupt
// artifact". A file with no "schema_version" at all, such as the legacy
// v1 format, is MalformedCertificate.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CERT_READER_H
#define RELC_CERT_READER_H

#include "cert/Cert.h"

#include <optional>

namespace relc {
namespace cert {

class Reader {
public:
  /// Parses \p Text as a certificate of schema kSchemaVersion.
  static std::optional<Certificate> parse(const std::string &Text,
                                          ReadError *Err = nullptr);
};

} // namespace cert
} // namespace relc

#endif // RELC_CERT_READER_H
