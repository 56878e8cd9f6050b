//===- codelint/Driver.h - Codelint over the stackm examples ----*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The analyzer *driver* for what the certification pipeline does not
// cover: the stackm analysis and the §2 stackm examples, compiled and
// analyzed here, plus the rendering relc-codelint prints for every
// outcome. The Bedrock2 suite programs run through the pipeline with the
// codelint layer on (pipeline::certifyPrograms, ProgramOutcome::ClReport).
//
// Deliberately a separate library from the core (relc_codelint vs
// relc_codelint_core): the certificate checker re-derives codelint sections
// through the core alone, and CI asserts with nm that no driver symbol
// (codelint::lintStackExamples, or any stackm:: symbol) leaks into
// relc-check — the same independence story the TV driver has.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CODELINT_DRIVER_H
#define RELC_CODELINT_DRIVER_H

#include "codelint/Codelint.h"
#include "stackm/StackMachine.h"

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

/// Analyzes a stackm program: maximum operand-stack depth (an underflowing
/// pop is a defect even though the interpreter's total semantics make it a
/// no-op), plus the exact step count. No memory, so Mem is trivially Safe.
Report analyzeStackProgram(const stackm::TProgram &P);

/// Lints the §2 stackm examples: the traditional compiler's output and the
/// relational compiler's (base rules + the Mul/ConstFold extensions), so
/// the first backend in the paper finally has a static layer too.
std::vector<ProgramLint> lintStackExamples();

/// Renders one outcome as the tools print it ("[name] codelint: ...").
std::string renderLint(const ProgramLint &L);

} // namespace codelint
} // namespace relc

#endif // RELC_CODELINT_DRIVER_H
