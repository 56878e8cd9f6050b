//===- support/ToolFlags.cpp - Shared tool flag tables ---------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/ToolFlags.h"

#include "support/Fault.h"

#include <cstdlib>

namespace relc {
namespace cl {

void addCacheDirFlags(OptionTable &T, CacheDirFlags &F) {
  T.str({"-cache-dir"}, &F.Dir, "<dir>",
        "certificate cache directory (default:\n"
        "$RELC_CACHE_DIR when set, else .relc-cache)");
  T.flag({"-no-cache"}, &F.NoCache, "disable the certificate cache");
}

std::string resolveCacheDir(const CacheDirFlags &F) {
  if (F.NoCache)
    return "";
  if (!F.Dir.empty())
    return F.Dir;
  if (const char *Env = std::getenv("RELC_CACHE_DIR"); Env && *Env)
    return Env;
  return ".relc-cache";
}

void addBudgetFlags(OptionTable &T, BudgetFlags &F) {
  T.num({"-layer-timeout-ms"}, &F.LayerTimeoutMs, 0, "<ms>",
        "wall-clock deadline per certification layer\n"
        "per program; exhaustion degrades the layer\n"
        "instead of hanging (default: 0 = unlimited)");
  T.custom({"-tv-step-budget"}, /*HasValue=*/true, "<n>",
           "cap translation validation at <n> normalization\n"
           "/search steps; exhaustion degrades TV to\n"
           "inconclusive (default: 0 = unlimited)",
           [&F](const std::string &V, std::string *Err) {
             if (V.empty() ||
                 V.find_first_not_of("0123456789") != std::string::npos) {
               *Err = "expected a non-negative integer, got '" + V + "'";
               return false;
             }
             F.TvStepBudget = std::strtoull(V.c_str(), nullptr, 10);
             return true;
           });
}

void addFaultFlag(OptionTable &T) {
  T.custom({"-fault"}, /*HasValue=*/true, "<spec>",
           "arm deterministic fault injection, e.g.\n"
           "'cache-write:transient:n=2' or\n"
           "'layer-entry:persistent:match=fnv1a/tv'\n"
           "(overrides RELC_FAULT_SPEC; for testing)",
           [](const std::string &V, std::string *Err) {
             if (Status S = fault::arm(V); !S) {
               *Err = S.error().str();
               return false;
             }
             return true;
           });
}

void addJobsFlag(OptionTable &T, unsigned &Jobs, const std::string &What) {
  T.num({"-j", "-jobs"}, &Jobs, 0, "<n>",
        What + " scheduler width; 1 = serial\n"
               "reference order, 0 = all hardware threads\n"
               "(default: 1)");
}

} // namespace cl
} // namespace relc
