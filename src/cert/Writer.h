//===- cert/Writer.h - Canonical certificate serialization ------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The single place certificates are turned into bytes. Output is
// canonical: fixed key order, fixed two-space indentation, one key per
// line — so a given Certificate always renders byte-identically, warm
// cache runs replay cold runs exactly, and `-j N` equals `-j 1` (the
// byte-identity contracts CI diffs). The old path — `.tv.json` string
// assembly by hand inside tv/Tv.cpp — is removed; the TV driver now only
// produces the typed report, and everything on disk goes through here.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CERT_WRITER_H
#define RELC_CERT_WRITER_H

#include "cert/Cert.h"

namespace relc {

namespace tv {
struct TvReport;
}

namespace cert {

class Writer {
public:
  /// The canonical JSON face of \p C (schema documented in Cert.h).
  static std::string write(const Certificate &C);
};

/// Assembles a Certificate from a TV report plus the content key of the
/// (model, fnspec, code) triple the report is about. Pure field
/// transcription: needs only the tv report *types*, never the driver.
Certificate fromTvReport(const tv::TvReport &Rep, const ContentKey &Key);

} // namespace cert
} // namespace relc

#endif // RELC_CERT_WRITER_H
