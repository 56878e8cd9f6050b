//===- analysis/Domains.h - Abstract domains for bedrock code ---*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The two abstract domains run over emitted code, plus the ABI digest they
// consume:
//
//   - AbiInfo distills a program's `sep::FnSpec` into analyzable form:
//     which target arguments are pointers into which separation-logic
//     clause (region), which are scalars or length words, and the entry
//     fact database (the requires clause: lengths nonnegative and ABI-
//     bounded, plus any user compile hints).
//
//   - InitDomain: definitely-initialized locals (set intersection), the
//     static analyzer's own.
//
//   - SymbolicDomain: the fixpoint both target-side layers share
//     (TargetFacts.h). It backs the bounds decisions and decides
//     reachability: an edge whose refined facts the solver finds
//     inconsistent is infeasible, and its target gets no state. Each
//     local maps to an AbsVal — either a scalar whose *exact* integer word
//     value is an affine `solver::LinTerm`, or a pointer into a region at
//     an exact nonnegative byte offset. Facts (T ≥ 0 rows, keyed by their
//     canonical rendering so branch joins can intersect them) travel in
//     the state, not globally: facts proven under one branch never leak
//     into the other. Unknown values get deterministic site-keyed fresh
//     symbols ("%body.1#0"), so re-running a transfer function during
//     fixpoint iteration reproduces the same names and the iteration
//     reaches a syntactic fixpoint; joins merge differing values into phi
//     symbols keyed by (block, variable). Soundness invariant: every term
//     denotes the exact word value (as an unsigned integer) — affine
//     results of +/-/* are only built when the solver proves the machine
//     operation cannot wrap; otherwise the result is an opaque symbol
//     carrying whatever one-sided bounds hold unconditionally in ℤ.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_ANALYSIS_DOMAINS_H
#define RELC_ANALYSIS_DOMAINS_H

#include "analysis/Cfg.h"
#include "ir/Prog.h"
#include "sep/Spec.h"
#include "sep/State.h"
#include "solver/Linear.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace relc {
namespace analysis {

//===----------------------------------------------------------------------===//
// ABI digest.
//===----------------------------------------------------------------------===//

/// One addressable memory region: a separation-logic clause from the
/// function's ABI spec, or a stackalloc block.
struct Region {
  enum class Kind { Array, Cell, Scratch };

  Kind K = Kind::Array;
  std::string Name;         ///< Source array/cell name, or stackalloc local.
  unsigned EltBytes = 1;    ///< Element width (Cell: 8; Scratch: 1).
  solver::LinTerm Extent;   ///< Byte size: EltBytes·len, 8, or the alloc size.
  bool Scoped = false;      ///< Stackalloc region (lifetime = its body).

  /// The sep-logic clause rendered for diagnostics, e.g. "array ptr_s s".
  std::string ClauseStr;
};

/// Everything the analyzer knows about a function's interface: regions,
/// what each target argument denotes, and the entry facts (the requires
/// clause plus compile hints).
struct AbiInfo {
  std::vector<Region> Regions;

  /// Target argument name -> region it points to.
  std::map<std::string, int> ArgRegion;

  /// Target argument name -> exact entry value (scalars and length words).
  std::map<std::string, solver::LinTerm> ArgTerm;

  /// Stackalloc command -> its (pre-registered) region.
  std::map<const bedrock::Cmd *, int> StackRegion;

  /// Facts about the entry symbols, exactly as the compiler assumed them.
  solver::FactDb EntryFacts;
};

/// Entry-fact providers, the same shape as core::CompileHints::EntryFacts
/// (kept structural so the analysis library does not depend on core).
using EntryFactList = std::vector<std::function<void(sep::CompState &)>>;

/// Distills \p Spec (against model \p Src) plus \p Hints into an AbiInfo
/// for \p Fn. Mirrors the compiler's setupInitialState symbol naming:
/// scalar parameter x is symbol "x", the length of list parameter s is
/// "len_s".
AbiInfo makeAbiInfo(const bedrock::Function &Fn, const sep::FnSpec &Spec,
                    const ir::SourceFn &Src, const EntryFactList &Hints = {});

//===----------------------------------------------------------------------===//
// Statement read/write sets (shared by domains and checkers).
//===----------------------------------------------------------------------===//

/// Locals read by \p S (expression operands; not branch conditions).
void forEachReadVar(const CfgStmt &S,
                    const std::function<void(const std::string &)> &Fn);

/// Locals defined by \p S (Set target, call/interact returns, stackalloc
/// binding).
void forEachDefVar(const CfgStmt &S,
                   const std::function<void(const std::string &)> &Fn);

/// Locals removed from scope by \p S (Unset, stackalloc exit).
void forEachKillVar(const CfgStmt &S,
                    const std::function<void(const std::string &)> &Fn);

//===----------------------------------------------------------------------===//
// Definitely-initialized locals.
//===----------------------------------------------------------------------===//

class InitDomain {
public:
  struct State {
    std::set<std::string> Defined;
  };

  explicit InitDomain(const bedrock::Function &Fn) : Fn(Fn) {}

  State entry() const;
  void transfer(const Cfg &G, const BasicBlock &B, const CfgStmt &S,
                State &St) const;
  std::optional<State> edge(const Cfg &G, const BasicBlock &B, const State &St,
                            bool Taken) const;
  /// Intersection (must-analysis); true iff Into shrank.
  bool join(unsigned BlockId, State &Into, const State &From) const;

  bool same(const State &X, const State &Y) const {
    return X.Defined == Y.Defined;
  }

  bool restartLoops() const { return false; }

  /// Applies \p S's effect to a definedness set (also used by the checker's
  /// in-block replay).
  static void apply(const CfgStmt &S, std::set<std::string> &Defined);

private:
  const bedrock::Function &Fn;
};

//===----------------------------------------------------------------------===//
// Symbolic values with separation-logic regions.
//===----------------------------------------------------------------------===//

/// Abstract value of one local: an exact scalar word, or a pointer into a
/// region at an exact byte offset (nonnegative by construction).
struct AbsVal {
  enum class Kind { Scalar, Ptr };

  Kind K = Kind::Scalar;
  solver::LinTerm T;   ///< Scalar: the word value; Ptr: the byte offset.
  int Region = -1;     ///< Ptr only.

  static AbsVal scalar(solver::LinTerm T) {
    return {Kind::Scalar, std::move(T), -1};
  }
  static AbsVal ptr(int Region, solver::LinTerm Off) {
    return {Kind::Ptr, std::move(Off), Region};
  }

  bool sameAs(const AbsVal &O) const {
    return K == O.K && Region == O.Region && T.str() == O.T.str();
  }
};

struct SymState {
  std::map<std::string, AbsVal> Env;

  /// Path-sensitive facts, each row meaning Term ≥ 0, keyed by the term's
  /// canonical rendering so joins can intersect. Value: term + reason.
  std::map<std::string, std::pair<solver::LinTerm, std::string>> Facts;

  /// Stackalloc regions whose lifetime has ended on this path.
  std::set<int> DeadRegions;

  void addFact(const solver::LinTerm &T, const std::string &Reason);
};

class SymbolicDomain {
public:
  using State = SymState;

  /// A memory access surfaced to the bounds checker during replay.
  struct Access {
    enum class Kind { Load, Store, Table };
    Kind K = Kind::Load;
    std::string Site;            ///< Path of the access expression's stmt.
    const bedrock::Expr *E = nullptr; ///< The Load/TableGet (null for Store).
    AbsVal Addr;                 ///< Address (Load/Store) or index (Table).
    unsigned Bytes = 1;          ///< Access width.
    const bedrock::InlineTable *Table = nullptr;
  };
  using CheckSink =
      std::function<void(const Access &, SymState &, solver::FactDb &)>;

  SymbolicDomain(const Cfg &G, const bedrock::Function &Fn, const AbiInfo &Abi)
      : G(G), Fn(Fn), Abi(Abi) {}

  State entry() const;
  void transfer(const Cfg &G, const BasicBlock &B, const CfgStmt &S,
                State &St) const;
  std::optional<State> edge(const Cfg &G, const BasicBlock &B, const State &St,
                            bool Taken) const;
  bool join(unsigned BlockId, State &Into, const State &From) const;

  /// Structural equality: same bindings, fact keys, and dead regions.
  bool same(const State &X, const State &Y) const;

  /// Phis minted against a stale back-edge state are sticky (both sides
  /// stay unequal forever), so loops must re-seed when their entry
  /// changes (see Dataflow.h).
  bool restartLoops() const { return true; }

  /// Rebuilds a solver database from a state's fact rows (entry() seeds
  /// them with the entry facts). The database inherits the entry facts'
  /// budget, so every query the domain asks charges the layer budget.
  solver::FactDb materialize(const State &St) const;

  /// Installs a callback receiving every Load/Store/TableGet the transfer
  /// functions evaluate (the bounds checker's replay pass).
  void setSink(CheckSink S) { Sink = std::move(S); }

private:
  const Cfg &G;
  const bedrock::Function &Fn;
  const AbiInfo &Abi;
  CheckSink Sink;

  /// Mints deterministic fresh symbols: "%<Site>#<Counter>".
  struct EvalCtx {
    std::string Site;
    unsigned Counter = 0;
    std::string fresh() { return "%" + Site + "#" + std::to_string(Counter++); }
  };

  AbsVal eval(SymState &St, solver::FactDb &Db, const bedrock::Expr &E,
              EvalCtx &Ctx) const;
  AbsVal evalBin(SymState &St, solver::FactDb &Db, const bedrock::Bin &E,
                 EvalCtx &Ctx) const;
  /// Adds T ≥ 0 to both the state (for joins) and the working database
  /// (for subsequent probes in the same evaluation).
  static void addFact(SymState &St, solver::FactDb &Db,
                      const solver::LinTerm &T, const std::string &Reason);
  /// Fresh opaque scalar known only to be a word (≥ 0).
  AbsVal opaque(SymState &St, solver::FactDb &Db, EvalCtx &Ctx,
                const std::string &Reason) const;

  void refine(SymState &St, solver::FactDb &Db, const bedrock::Expr &Cond,
              bool Taken, EvalCtx &Ctx) const;
};

} // namespace analysis
} // namespace relc

#endif // RELC_ANALYSIS_DOMAINS_H
