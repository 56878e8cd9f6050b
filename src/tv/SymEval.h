//===- tv/SymEval.h - The shared symbolic evaluator -------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The one symbolic evaluator behind translation validation
// (tv::validateTranslation, the searching producer) and the independent
// certificate checker (cert::Rederive, relc-check). It evaluates both
// sides of a program into one normalizing TermGraph (tv/Term.h):
//
//   - the source evaluator walks the FunLang let-chain, turning each loop
//     combinator into a canonical Fold summary over positional bound
//     symbols "%Lk.cj" (carried value j of loop k) and "%Lk.r.<region>"
//     (the havocked contents of a region the body rewrites);
//
//   - the target executor walks the Bedrock2 command tree over a store and
//     a region-indexed memory, forking/joining at conditionals, and at the
//     k-th While (execution order equals the model's loop pre-order,
//     because compilation is syntax-directed) summarizes the loop: a
//     discovery pass finds the regions the body stores to, a precise pass
//     runs the body once over havocked assigned locals and stored regions,
//     and the stored regions must be the ones the model's loop writes;
//
//   - the output derivation pairs each fnspec output channel's model term
//     with its target term.
//
// Its clients differ in exactly two places:
//
//   - the refusal seam: the evaluator stops by throwing a Refusal, either
//     OutsideFragment (a construct it does not model) or Mismatch (the two
//     sides provably disagree). TV reports these as Inconclusive and
//     Refuted; the checker rejects both as rederivation-failed.
//
//   - the loop seam: pickCarried() names the assigned local that
//     implements each of the model's carried positions. TV searches for a
//     bijection; the checker replays the certificate's witness. Either way
//     the evaluator commits the choice identically: the picked locals
//     become fold projections, every other assigned local is dropped.
//
// Trust: an accept by relc-check rests on this evaluator, the TermGraph
// normalizer, the ABI digest (analysis::makeAbiInfo), cert::contentKey and
// the checker's witness replay. The producer reusing the evaluator adds
// nothing to that list (DESIGN.md §4.6).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_TV_SYMEVAL_H
#define RELC_TV_SYMEVAL_H

#include "analysis/Domains.h"
#include "bedrock/Ast.h"
#include "ir/Prog.h"
#include "sep/Spec.h"
#include "support/Budget.h"
#include "tv/Term.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace relc {
namespace tv {

/// One source binding's normalized value (the per-binding match trace).
struct BindingRecord {
  std::string Path; ///< "2", "4.then.0", ... (binding index path).
  std::string Name; ///< Bound name(s), comma-joined for multi-binds.
  uint64_t Hash = 0;
};

/// One matched loop pair: the model's summary plus the match *witness* the
/// loop seam picked. The witness is what makes the verdict independently
/// checkable (cert::Rederive): given which target local implements each
/// carried position, the match equations verify deterministically, with
/// no search.
struct LoopRecord {
  unsigned Ordinal = 0;
  std::string Binding;    ///< The model binding the loop came from.
  std::string Path;       ///< Source binding path of the loop.
  uint64_t FoldHash = 0;  ///< Hash of the shared Fold summary node.
  unsigned Carried = 0;
  unsigned Regions = 0;
  /// WitnessLocals[j] = target local matched to carried position j (filled
  /// on a successful match; size == Carried). WitnessRegions = the regions
  /// the target loop stores to. TargetPath = the While statement's path.
  std::vector<std::string> WitnessLocals;
  std::vector<std::string> WitnessRegions;
  std::string TargetPath;
};

/// One fnspec output channel: the model's and the target's final term.
struct OutputChannel {
  std::string Name;          ///< Source name (return, array, or cell).
  std::string Kind;          ///< "scalar", "array", "cell", or "frame".
  TermId Src = NoTerm, Tgt = NoTerm;
  std::string SourceBinding; ///< Last model binding of Name.
  std::string TargetPath;    ///< Last target statement defining it.

  bool matched() const { return Src == Tgt; }
};

/// Why the evaluator stopped short of a verdict.
enum class RefusalKind : uint8_t {
  OutsideFragment, ///< A construct the evaluator does not model.
  Mismatch,        ///< Model and code provably disagree.
};

/// Thrown out of SymEval::run; each client maps it at its boundary.
struct Refusal {
  RefusalKind Kind;
  std::string Reason;
};

[[noreturn]] void outsideFragment(const std::string &Why);
[[noreturn]] void mismatch(const std::string &Why);

/// \p S cut to \p Max characters plus "..." (rendered terms in reasons).
std::string clip(const std::string &S, size_t Max = 96);
/// The elements of \p S, comma-joined.
std::string joinSet(const std::set<std::string> &S);

/// Value of an array-typed source name: which region holds it.
struct SrcArr {
  std::string Region;
  TermId Len = NoTerm;
  unsigned EltBytes = 1;
};

struct SrcState {
  std::map<std::string, TermId> Scal;
  std::map<std::string, SrcArr> Arr;
  std::set<std::string> Cells;
  std::map<std::string, TermId> Region; ///< Region name -> contents term.
};

struct TgtState {
  std::map<std::string, TermId> Locals;
  std::map<std::string, TermId> Region;
  std::map<std::string, std::string> LocalDef;  ///< Last defining stmt path.
  std::map<std::string, std::string> RegionDef; ///< Last writing stmt path.
};

/// The k-th target While, summarized and handed to the loop seam.
struct LoopStep {
  unsigned K;               ///< Ordinal, equal to the model loop's.
  const std::string &Path;  ///< The While statement's path.
  const LoopRecord &Model;  ///< The model loop's record (binding, path).
  FoldRef Fold;             ///< The model loop's summary.
  const TgtState &Entry;    ///< State before the loop.
  TgtState Iter;            ///< State after one havocked iteration.
  std::set<std::string> Assigned = {}; ///< Locals the body assigns.
  std::set<std::string> Stored = {};   ///< Regions the body stores to
                                       ///< (the model loop's written set).
  std::map<std::string, TermId> HavocOf = {}; ///< Assigned local -> havoc.
  std::map<TermId, TermId> RegionRen = {};    ///< Target region havoc ->
                                              ///< the model's canonical one.
  TermId Guard = NoTerm;    ///< The While condition over the havocs.
};

class SymEval {
public:
  /// \p Budget, when non-null, is charged by every interned term and by
  /// the entry facts' solver queries.
  SymEval(const ir::SourceFn &Src, const sep::FnSpec &Spec,
          const bedrock::Function &Fn, const analysis::EntryFactList &Hints,
          const guard::Budget *Budget);
  SymEval(const SymEval &) = delete;
  SymEval &operator=(const SymEval &) = delete;
  virtual ~SymEval();

  /// Evaluates the model and the code, then derives every output channel
  /// into Outputs. Throws Refusal, whatever the loop seam throws, and
  /// guard::BudgetExhausted. Bindings, Loops and Outputs keep what was
  /// derived before a throw.
  void run();

protected:
  /// Called once the k-th target loop has a model counterpart, before the
  /// evaluator looks at its body.
  virtual void enterLoop(unsigned K) { (void)K; }
  /// Returns, for each carried position j of L.Fold, the local in
  /// L.Assigned that implements it; throws when there is none.
  virtual std::vector<std::string> pickCarried(const LoopStep &L) = 0;

  /// The canonical bound symbol of carried position \p Pos of loop
  /// \p Loop, as the model's summary uses it.
  TermId carriedSym(unsigned Loop, unsigned Pos);

  const ir::SourceFn &Src;
  const sep::FnSpec &Spec;
  const bedrock::Function &Fn;
  TermGraph G;

  std::vector<BindingRecord> Bindings; ///< Per model binding, in order.
  std::vector<LoopRecord> Loops;       ///< Per model loop, in pre-order.
  std::vector<OutputChannel> Outputs;  ///< Per fnspec output channel.

private:
  analysis::AbiInfo Abi;
  std::map<std::string, unsigned> RegionWidth; ///< Region -> element bytes.
  std::map<TermId, std::string> PtrRegion;     ///< Ptr sym id -> region.
  std::vector<TermId> SrcFolds; ///< Per model loop, its Fold node.
  unsigned TgtCursor = 0;
  std::map<std::string, std::string> LastSrcBind; ///< Name -> description.
  std::set<std::string> *CurStores = nullptr;

  // Entry states.
  void checkTables();
  void setupRegions();
  SrcState sourceEntry();
  TgtState targetEntry();

  // Source evaluation.
  TermId evalSrcExpr(const ir::Expr &E, const SrcState &S);
  uint64_t srcValueHash(const SrcState &S, const std::string &Name) const;
  void recordBinding(const ir::Binding &B, const SrcState &S,
                     const std::string &Path);
  void evalSrcProg(const ir::Prog &P, SrcState &S, const std::string &Prefix);
  void evalSrcBinding(const ir::Binding &B, SrcState &S,
                      const std::string &Path);
  void evalSrcIf(const ir::Binding &B, SrcState &S, const std::string &Path);
  void evalSrcLoop(const ir::Binding &B, SrcState &S, const std::string &Path);

  // Target execution.
  TermId evalTgtExpr(const bedrock::Expr &E, const TgtState &T);
  std::pair<std::string, TermId> resolveAddr(TermId Addr, unsigned Bytes);
  void execBlock(const bedrock::Cmd *C, TgtState &T, const std::string &Path);
  void execStmt(const bedrock::Cmd &C, TgtState &T, const std::string &Path);
  void joinStates(TermId Cond, TgtState &T, const TgtState &A,
                  const TgtState &B, const std::string &Path);
  void scanLoopBody(const bedrock::Cmd *C, std::set<std::string> &Assigned);
  void execLoop(const bedrock::While &W, TgtState &T, const std::string &Path);

  // Output derivation.
  void deriveOutputs(const SrcState &SS, const TgtState &TT);
};

} // namespace tv
} // namespace relc

#endif // RELC_TV_SYMEVAL_H
