//===- relc/Cert.h - Public certificate surface -----------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The public facade over the certificate formats: the versioned schema
// (cert::Certificate, cert::kSchemaVersion, named rejections), the
// zero-copy binary image (cert::BinReader / cert::BinWriter,
// kBinExtension), and the canonical JSON face's renderer (cert::Writer).
// No JSON parser is exported: a checker decodes the image and compares
// the JSON face with its rendering. Everything here is consumable without
// the TV driver — relc-check links this surface plus relc/Check.h and
// nothing else, and CI's nm audit keeps it that way.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_API_CERT_H
#define RELC_API_CERT_H

#include "cert/Binary.h"
#include "cert/Cert.h"
#include "cert/Writer.h"

#endif // RELC_API_CERT_H
