//===- programs/Programs.h - The Table 2 benchmark suite --------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The seven programs of the paper's benchmark suite (Table 2), each as an
// annotated functional model plus its ABI, compilation hints, and
// validation configuration:
//
//   fnv1a  Fowler–Noll–Vo (noncryptographic) hash
//   utf8   Branchless UTF-8 decoding
//   upstr  In-place string uppercase (Box 1)
//   m3s    Scramble part of the Murmur3 algorithm
//   ip     IP (one's-complement) checksum (RFC 1071)
//   fasta  In-place DNA sequence complement
//   crc32  Error-detecting code (cyclic redundancy check)
//
// Each program's model and hint code is bracketed with RELC-SECTION
// markers so Table 2's Source/Lemmas/Hints columns are measured from the
// real sources.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_PROGRAMS_PROGRAMS_H
#define RELC_PROGRAMS_PROGRAMS_H

#include "core/Compiler.h"
#include "ir/Build.h"
#include "sep/Spec.h"
#include "validate/Validate.h"

#include <string>
#include <vector>

namespace relc {
namespace programs {

/// Everything the toolchain needs to compile, validate, and report on one
/// benchmark program.
struct ProgramDef {
  std::string Name;
  std::string Description; ///< The Table 2 caption line.

  ir::SourceFn Model;
  sep::FnSpec Spec;
  core::CompileHints Hints;

  /// Validation configuration (input profiles, etc.).
  validate::ValidationOptions VOpts;

  /// Table 2 "End-to-End": the model additionally carries proofs (here:
  /// property tests in tests/programs/) against an abstract specification.
  bool EndToEnd = false;

  /// Where this program's marked sections live (for LoC measurement),
  /// relative to the repository root.
  std::string SourceFile;

  /// Minimum input-buffer length required by the ABI (requires clause);
  /// the validator and benches only generate inputs satisfying it.
  size_t MinLen = 0;
};

/// All seven benchmark programs, in Table 2 order.
const std::vector<ProgramDef> &allPrograms();

/// Looks a program up by name (null when absent).
const ProgramDef *findProgram(const std::string &Name);

/// Individual constructors (each in its own translation unit).
ProgramDef makeFnv1a();
ProgramDef makeUtf8();
ProgramDef makeUpstr();
ProgramDef makeM3s();
ProgramDef makeIpChecksum();
ProgramDef makeFasta();
ProgramDef makeCrc32();

/// The CRC-32 (IEEE, reflected, poly 0xEDB88320) lookup table, shared by
/// the model, the reference implementation, and tests.
const std::vector<uint64_t> &crc32Table();

/// The DNA complement table (identity outside IUPAC codes), shared by the
/// fasta model and its reference.
const std::vector<uint64_t> &fastaComplementTable();

} // namespace programs
} // namespace relc

#endif // RELC_PROGRAMS_PROGRAMS_H
