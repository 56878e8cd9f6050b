//===- tests/core/CoreTestUtil.h - Shared core-test plumbing ---*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_TESTS_CORE_CORETESTUTIL_H
#define RELC_TESTS_CORE_CORETESTUTIL_H

#include "ir/Build.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

namespace relc {
namespace coretest {

/// Wraps a hand-built model as a one-program suite entry, named after its
/// target function.
inline programs::ProgramDef
programDef(const ir::SourceFn &Fn, const sep::FnSpec &Spec,
           const core::CompileHints &Hints = {},
           const validate::ValidationOptions &VOpts = {}) {
  programs::ProgramDef Def;
  Def.Name = Spec.TargetName;
  Def.Model = Fn;
  Def.Spec = Spec;
  Def.Hints = Hints;
  Def.VOpts = VOpts;
  return Def;
}

/// Certifies a model through the pipeline with every layer on: compile,
/// replay, static analysis, translation validation, codelint, and
/// differential testing. Returns the failure (if any) for inspection.
inline Status compileAndCertify(const ir::SourceFn &Fn,
                                const sep::FnSpec &Spec,
                                const core::CompileHints &Hints = {},
                                const validate::ValidationOptions &VOpts = {},
                                core::CompileResult *Out = nullptr) {
  programs::ProgramDef Def = programDef(Fn, Spec, Hints, VOpts);
  std::vector<pipeline::ProgramOutcome> R =
      pipeline::certifyPrograms({&Def}, {});
  if (!R[0].CompileOk)
    return Error(R[0].CompileError);
  if (!R[0].ok())
    return Error(R[0].ValidationError);
  if (Out)
    *Out = std::move(R[0].Compiled);
  return Status::success();
}

/// Asserts full pipeline success with a readable message.
#define EXPECT_CERTIFIES(...)                                                 \
  do {                                                                        \
    ::relc::Status S_ = ::relc::coretest::compileAndCertify(__VA_ARGS__);     \
    EXPECT_TRUE(bool(S_)) << (S_ ? "" : S_.error().str());                    \
  } while (0)

#define ASSERT_CERTIFIES(...)                                                 \
  do {                                                                        \
    ::relc::Status S_ = ::relc::coretest::compileAndCertify(__VA_ARGS__);     \
    ASSERT_TRUE(bool(S_)) << (S_ ? "" : S_.error().str());                    \
  } while (0)

} // namespace coretest
} // namespace relc

#endif // RELC_TESTS_CORE_CORETESTUTIL_H
