//===- rulemeta/RuleMeta.h - Rule-database metatheory analyses --*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Static analysis over the compilation-rule database itself. The paper's
// extensibility story — users grow the compiler by registering rules —
// means the rule registry is configuration, and configuration needs its
// own checker (DESIGN.md §4.8). Every rule carries a declarative
// GoalPattern / ExprGoalPattern descriptor (core/Rule.h, ExprCompile.h);
// on that metadata this library implements five analyses:
//
//   1. shadowing/overlap  — an earlier rule's selection pattern subsumes
//      (rule-shadowed) or intersects (rule-overlap) a later one's, so the
//      later rule never fires or fires order-dependently;
//   2. coverage           — the construct × engine matrix: source
//      constructs no registered rule can compile (uncovered-construct),
//      reported before any program hits the gap;
//   3. dead rules         — unsatisfiable patterns, or rules fully
//      covered by the union of earlier rules (rule-dead);
//   4. recursion audit    — the rule-dependency graph (who emits goals
//      matching whom) must have no cycle through a rule that does not
//      emit structurally decreasing sub-goals (rule-cycle);
//   5. derivation audit   — replay a compilation witness (DerivNode tree)
//      against the live registry: every recorded rule must still exist,
//      still match its recorded goal, and still be the *first* match
//      (stale-derivation). This catches certificate/registry drift that
//      relc-check cannot see, because relc-check replays recorded
//      witnesses without consulting the registry.
//
// Like the certificate layer, every refusal carries a stable kebab-case
// reason that tools and CI match on. Analyses 1–4 are purely static
// (descriptors only); analysis 5 consults matches()/findMatch on the live
// registry.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_RULEMETA_RULEMETA_H
#define RELC_RULEMETA_RULEMETA_H

#include "core/Compiler.h"
#include "core/ExprCompile.h"
#include "core/Rule.h"

#include <string>
#include <vector>

namespace relc {
namespace rulemeta {

/// Why the analyzer flagged something. The names (reasonName) are a
/// stable, kebab-case vocabulary: tests and CI match on the exact
/// strings, so adding reasons is fine but renaming one is a break.
enum class Reason : uint8_t {
  RuleShadowed,       ///< An earlier rule's pattern subsumes this one's.
  RuleOverlap,        ///< Two patterns intersect: order-dependent firing.
  RuleDead,           ///< Unsatisfiable, or earlier rules' union covers it.
  UncoveredConstruct, ///< A construct kind no registered rule matches.
  RuleCycle,          ///< Dependency cycle without a decreasing argument.
  StaleDerivation,    ///< A witness disagrees with the live registry.
};

/// Stable kebab-case reason name, e.g. "rule-shadowed".
const char *reasonName(Reason R);

/// One analyzer finding. Everything the analyzer reports is gating: a
/// finding means the registry (or a witness against it) is not trustworthy
/// as-is, and relc-rulint exits nonzero on any.
struct Finding {
  Reason Why;
  /// The offending rule's name, or the uncovered construct's matrix row
  /// ("stmt/list-map", "expr/select") for coverage findings.
  std::string Subject;
  std::string Detail;

  /// "<reason>: <subject>: <detail>" — the stable diagnostic line.
  std::string str() const;
};

/// A batch of findings from one or more analyses.
struct Report {
  std::vector<Finding> Findings;

  bool clean() const { return Findings.empty(); }
  void add(Reason Why, std::string Subject, std::string Detail) {
    Findings.push_back({Why, std::move(Subject), std::move(Detail)});
  }
  void append(Report Other) {
    for (Finding &F : Other.Findings)
      Findings.push_back(std::move(F));
  }

  /// Newline-joined finding lines ("" when clean).
  std::string str() const;
};

/// Analyses 1 and 3 over one statement registry and one expression
/// registry: shadowing, overlap, and dead rules. Order-sensitive — the
/// database is first-match.
Report analyzeOrdering(const core::RuleSet &RS, const core::ExprRuleSet &ES);

/// Analysis 2: the construct × engine coverage matrix. Every
/// ir::BoundForm::Kind must be selectable by some statement rule and every
/// ir::Expr::Kind by some expression rule.
Report analyzeCoverage(const core::RuleSet &RS, const core::ExprRuleSet &ES);

/// Analysis 4: the recursion/termination audit over the rule-dependency
/// graph induced by the Emits descriptors.
Report analyzeRecursion(const core::RuleSet &RS, const core::ExprRuleSet &ES);

/// Analyses 1–4 in one pass, in that order.
Report analyzeRegistry(const core::RuleSet &RS, const core::ExprRuleSet &ES);

/// Analysis 5: replays the compilation witness \p Proof (the root
/// "compile_fn" node of core::CompileResult::Proof) for \p Model against
/// the live registry \p RS. \p Spec and the model are needed to rebuild
/// the matching context and to pair derivation nodes with source bindings.
Report auditDerivation(const ir::SourceFn &Model, const sep::FnSpec &Spec,
                       const core::DerivNode &Proof, const core::RuleSet &RS);

} // namespace rulemeta
} // namespace relc

#endif // RELC_RULEMETA_RULEMETA_H
