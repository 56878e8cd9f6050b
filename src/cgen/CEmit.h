//===- cgen/CEmit.h - Bedrock2-to-C pretty-printer --------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The last, unverified step of the pipeline, mirroring Bedrock2's to-C
// pretty-printer ("a very small program of just 200 lines that is
// essentially implementing an identity function", §4.3). It is a direct
// syntax mapping:
//
//   words            -> uintptr_t (64-bit)
//   load/store<n>    -> uint<8n>_t pointer accesses (little-endian host)
//   inline tables    -> static const arrays local to the function
//   stackalloc       -> a scoped local byte array
//   external actions -> calls to the relc_ext_* runtime hooks
//
// with one range-guarded rule on top: `(x - c) <u k` prints as the 8-bit
// `(uint8_t)(x - c) < k` when x is provably a byte and c + k <= 256, the
// conditions under which the two compares agree (GCC vectorizes only the
// narrow one). "Provably a byte" is provenance inside the function being
// printed: a greatest fixpoint over its assignments finds the non-argument
// locals every assignment of which is a 1-byte load or table read, a
// literal below 256, another such local, or an `&` with such an operand.
// DESIGN.md §4.4 gives both soundness arguments.
//
// Semantic caveats documented here because the printer is in the trusted
// base: division/remainder by zero is undefined in C but defined (RISC-V
// convention) in the Bedrock2 semantics — generated programs whose side
// conditions admit zero divisors must not be emitted to C (our rule
// library never emits a division whose divisor the model did not guard);
// variable shift amounts are masked to match the target semantics.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CGEN_CEMIT_H
#define RELC_CGEN_CEMIT_H

#include "bedrock/Ast.h"
#include "support/Result.h"

#include <string>

namespace relc {
namespace cgen {

/// Options for emission.
struct CEmitOptions {
  /// Emit `static` functions (for inclusion in a single TU).
  bool StaticFunctions = false;
  /// Prefix prepended to every function name (avoids collisions when
  /// generated and handwritten implementations link into one binary).
  std::string NamePrefix;
};

/// Emits one function as C. Functions with more than one return value are
/// rejected (Bedrock2 supports them; C does not).
Result<std::string> emitFunction(const bedrock::Function &Fn,
                                 const CEmitOptions &Opts = {});

/// Emits a whole module: the runtime prelude (stdint include and the
/// relc_ext_* hook declarations) followed by every function.
Result<std::string> emitModule(const bedrock::Module &Mod,
                               const CEmitOptions &Opts = {});

/// The prelude only (used by tests and by handwritten-reference files).
std::string cPrelude();

} // namespace cgen
} // namespace relc

#endif // RELC_CGEN_CEMIT_H
