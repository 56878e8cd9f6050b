//===- support/ToolFlags.h - Shared tool flag tables ------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The flag tables the relc tools share, factored out of relc-gen so
// relc-lint and relcd register the *same* spellings, help text, and
// semantics instead of re-rolling them per tool:
//
//   - the certificate-cache directory (-cache-dir / -no-cache), with one
//     documented precedence rule implemented in resolveCacheDir();
//   - the certification budgets (-layer-timeout-ms / -tv-step-budget);
//   - deterministic fault injection (-fault, arming relc::fault);
//   - the scheduler width (-j / -jobs).
//
// Cache-directory precedence (ctest-pinned in tools/CMakeLists.txt):
//
//   -no-cache  >  -cache-dir <dir>  >  $RELC_CACHE_DIR  >  .relc-cache
//
// Every tool that persists verdicts resolves the same way, so one
// exported RELC_CACHE_DIR moves the cache for relc-gen and relcd. Tools
// whose verdicts never touch the cache (relc-lint, relc-check) do not
// take the flags.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SUPPORT_TOOLFLAGS_H
#define RELC_SUPPORT_TOOLFLAGS_H

#include "support/CommandLine.h"

#include <cstdint>
#include <string>

namespace relc {
namespace cl {

/// The -cache-dir / -no-cache pair.
struct CacheDirFlags {
  std::string Dir; ///< -cache-dir value ("" = flag not given).
  bool NoCache = false;
};

/// Registers -cache-dir and -no-cache on \p T, writing into \p F (whose
/// lifetime must cover parsing).
void addCacheDirFlags(OptionTable &T, CacheDirFlags &F);

/// The one precedence rule: -no-cache > -cache-dir > $RELC_CACHE_DIR >
/// ".relc-cache". Returns the directory to use, or "" when caching is
/// disabled.
std::string resolveCacheDir(const CacheDirFlags &F);

/// The certification budgets.
struct BudgetFlags {
  unsigned LayerTimeoutMs = 0; ///< 0 = unlimited.
  uint64_t TvStepBudget = 0;   ///< 0 = unlimited.
};

/// Registers -layer-timeout-ms and -tv-step-budget on \p T.
void addBudgetFlags(OptionTable &T, BudgetFlags &F);

/// Registers -fault on \p T; parsing the flag arms relc::fault directly
/// (overriding any RELC_FAULT_SPEC arming).
void addFaultFlag(OptionTable &T);

/// Registers -j/-jobs on \p T. \p What names the scheduler in the help
/// text ("certification", "lint").
void addJobsFlag(OptionTable &T, unsigned &Jobs, const std::string &What);

} // namespace cl
} // namespace relc

#endif // RELC_SUPPORT_TOOLFLAGS_H
