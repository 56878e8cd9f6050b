//===- codelint/Driver.h - Codelint driver over the suite -------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The analyzer *driver*: compiles benchmark programs (and the §2 stackm
// examples) and runs the codelint core over the emitted code, rendering
// reports for the relc-codelint tool and the relc-lint --code gate.
//
// Deliberately a separate library from the core (relc_codelint vs
// relc_codelint_core): the certificate checker re-derives codelint sections
// through the core alone, and CI asserts with nm that no driver symbol
// (codelint::lintProgram) leaks into relc-check — the same independence
// story the TV driver has.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CODELINT_DRIVER_H
#define RELC_CODELINT_DRIVER_H

#include "codelint/Codelint.h"
#include "programs/Programs.h"

#include <string>
#include <vector>

namespace relc {
namespace codelint {

/// One program's lint outcome: the compile gate plus the analysis report.
struct ProgramLint {
  std::string Name;
  bool CompileOk = false;
  std::string CompileError;
  Report R;
};

/// Compiles \p P (no other layer runs — codelint is a static layer) and
/// runs the three analyses over the emitted Bedrock2 function.
ProgramLint lintProgram(const programs::ProgramDef &P,
                        const guard::Budget *Budget = nullptr);

/// Lints every Table 2 suite program, in suite order.
std::vector<ProgramLint> lintSuite(const guard::Budget *Budget = nullptr);

/// Lints the §2 stackm examples: the traditional compiler's output and the
/// relational compiler's (base rules + the Mul/ConstFold extensions), so
/// the first backend in the paper finally has a static layer too.
std::vector<ProgramLint> lintStackExamples();

/// Renders one outcome as the tools print it ("[name] codelint: ...").
std::string renderLint(const ProgramLint &L);

} // namespace codelint
} // namespace relc

#endif // RELC_CODELINT_DRIVER_H
