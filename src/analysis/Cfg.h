//===- analysis/Cfg.h - Control-flow graph over bedrock commands -*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A basic-block control-flow graph built from the structured `bedrock::Cmd`
// tree. The generated language has no goto, so the graph shape is entirely
// determined by seq / if / while / stackalloc nesting: conditionals produce
// a diamond, loops a header block with a back edge, stackalloc a pair of
// Enter/Exit pseudo-statements bracketing its (possibly branching) body.
//
// Every statement carries a `Path` — a stable hierarchical source location
// ("body.2.then.0") that diagnostics report and that the symbolic domain
// uses as a deterministic key when minting fresh symbols, so re-running a
// transfer function during fixpoint iteration names the same unknowns.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_ANALYSIS_CFG_H
#define RELC_ANALYSIS_CFG_H

#include "bedrock/Ast.h"

#include <string>
#include <vector>

namespace relc {
namespace analysis {

/// One CFG statement: a straight-line command, or one of the two
/// pseudo-statements marking a stackalloc region's lifetime.
struct CfgStmt {
  enum class Kind {
    Simple,     ///< Set / Unset / Store / Call / Interact.
    StackEnter, ///< Binds Stackalloc->name() to a fresh region's base.
    StackExit   ///< Frees the region and unbinds the name.
  };

  Kind K = Kind::Simple;
  const bedrock::Cmd *C = nullptr; ///< Simple: the command; Enter/Exit: the
                                   ///< Stackalloc node.
  std::string Path;                ///< Hierarchical location, e.g. "body.1".
};

/// Prints one CFG statement on one line, as diagnostics quote it.
std::string stmtStr(const CfgStmt &S);

struct BasicBlock {
  enum class Term {
    Jump,  ///< Unconditional edge to TrueSucc.
    Branch,///< Two-way on Cond: TrueSucc / FalseSucc.
    Exit   ///< Function exit.
  };

  unsigned Id = 0;
  std::vector<CfgStmt> Stmts;

  Term T = Term::Exit;
  const bedrock::Expr *Cond = nullptr; ///< Branch only.
  std::string CondPath;                ///< Path of the If/While owning Cond.
  unsigned TrueSucc = 0, FalseSucc = 0;

  std::vector<unsigned> Preds;
  bool IsLoopHeader = false;
};

class Cfg {
public:
  /// Lowers \p Fn's body. Never fails: every command form has a lowering.
  static Cfg build(const bedrock::Function &Fn);

  const std::vector<BasicBlock> &blocks() const { return Blocks; }
  const BasicBlock &block(unsigned Id) const { return Blocks[Id]; }
  unsigned entry() const { return 0; }

  /// Block ids in reverse post order from the entry. Structural lowering
  /// makes every block graph-reachable, so this covers all of them.
  const std::vector<unsigned> &rpo() const { return Rpo; }

  /// Position of each block in rpo() (indexed by block id); worklists use
  /// it as their priority.
  const std::vector<unsigned> &rpoPos() const { return RpoPos; }

private:
  std::vector<BasicBlock> Blocks;
  std::vector<unsigned> Rpo, RpoPos;

  friend class CfgBuilder;
  void finalize();
};

} // namespace analysis
} // namespace relc

#endif // RELC_ANALYSIS_CFG_H
