//===- analysis/Cfg.cpp - Control-flow graph over bedrock commands --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"

#include <cassert>

namespace relc {
namespace analysis {

using namespace bedrock;

class CfgBuilder {
public:
  explicit CfgBuilder(Cfg &G) : G(G) { Cur = newBlock(); }

  void run(const Function &Fn) {
    if (Fn.Body)
      lower(Fn.Body.get(), "body");
    G.Blocks[Cur].T = BasicBlock::Term::Exit;
    G.finalize();
  }

private:
  Cfg &G;
  unsigned Cur;

  unsigned newBlock() {
    unsigned Id = unsigned(G.Blocks.size());
    G.Blocks.emplace_back();
    G.Blocks.back().Id = Id;
    return Id;
  }

  void jumpTo(unsigned From, unsigned To) {
    G.Blocks[From].T = BasicBlock::Term::Jump;
    G.Blocks[From].TrueSucc = To;
  }

  void branchTo(unsigned From, const Expr *Cond, const std::string &Path,
                unsigned OnTrue, unsigned OnFalse) {
    BasicBlock &B = G.Blocks[From];
    B.T = BasicBlock::Term::Branch;
    B.Cond = Cond;
    B.CondPath = Path;
    B.TrueSucc = OnTrue;
    B.FalseSucc = OnFalse;
  }

  /// Expands right-nested Seq into a statement list, dropping Skips.
  static void flatten(const Cmd *C, std::vector<const Cmd *> &Out) {
    if (isa<Skip>(C))
      return;
    if (const auto *S = dyn_cast<Seq>(C)) {
      flatten(S->first(), Out);
      flatten(S->second(), Out);
      return;
    }
    Out.push_back(C);
  }

  void lower(const Cmd *C, const std::string &Prefix) {
    std::vector<const Cmd *> List;
    flatten(C, List);
    for (size_t I = 0; I < List.size(); ++I)
      lowerOne(List[I], Prefix + "." + std::to_string(I));
  }

  void lowerOne(const Cmd *C, const std::string &Path) {
    switch (C->kind()) {
    case Cmd::Kind::Skip:
    case Cmd::Kind::Seq:
      assert(false && "flattened away");
      return;
    case Cmd::Kind::Set:
    case Cmd::Kind::Unset:
    case Cmd::Kind::Store:
    case Cmd::Kind::Call:
    case Cmd::Kind::Interact:
      G.Blocks[Cur].Stmts.push_back({CfgStmt::Kind::Simple, C, Path});
      return;
    case Cmd::Kind::If: {
      const auto *I = cast<If>(C);
      unsigned Head = Cur;
      unsigned ThenB = newBlock();
      unsigned ElseB = newBlock();
      branchTo(Head, I->cond(), Path, ThenB, ElseB);
      Cur = ThenB;
      lower(I->thenCmd(), Path + ".then");
      unsigned ThenEnd = Cur;
      Cur = ElseB;
      lower(I->elseCmd(), Path + ".else");
      unsigned ElseEnd = Cur;
      unsigned Join = newBlock();
      jumpTo(ThenEnd, Join);
      jumpTo(ElseEnd, Join);
      Cur = Join;
      return;
    }
    case Cmd::Kind::While: {
      const auto *W = cast<While>(C);
      unsigned Header = newBlock();
      jumpTo(Cur, Header);
      G.Blocks[Header].IsLoopHeader = true;
      unsigned Body = newBlock();
      unsigned ExitB = newBlock();
      branchTo(Header, W->cond(), Path, Body, ExitB);
      Cur = Body;
      lower(W->body(), Path + ".body");
      jumpTo(Cur, Header); // Back edge.
      Cur = ExitB;
      return;
    }
    case Cmd::Kind::Stackalloc: {
      const auto *SA = cast<Stackalloc>(C);
      G.Blocks[Cur].Stmts.push_back({CfgStmt::Kind::StackEnter, C, Path});
      lower(SA->body(), Path + ".body");
      G.Blocks[Cur].Stmts.push_back(
          {CfgStmt::Kind::StackExit, C, Path + ".exit"});
      return;
    }
    }
  }
};

Cfg Cfg::build(const Function &Fn) {
  Cfg G;
  CfgBuilder B(G);
  B.run(Fn);
  return G;
}

void Cfg::finalize() {
  // Predecessors.
  for (const BasicBlock &B : Blocks) {
    if (B.T == BasicBlock::Term::Jump) {
      Blocks[B.TrueSucc].Preds.push_back(B.Id);
    } else if (B.T == BasicBlock::Term::Branch) {
      Blocks[B.TrueSucc].Preds.push_back(B.Id);
      if (B.FalseSucc != B.TrueSucc)
        Blocks[B.FalseSucc].Preds.push_back(B.Id);
    }
  }

  // Reverse post order by iterative DFS.
  std::vector<uint8_t> Seen(Blocks.size(), 0);
  std::vector<unsigned> Post;
  // Stack frames: (block, next successor index to explore).
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.push_back({0, 0});
  Seen[0] = 1;
  while (!Stack.empty()) {
    auto &[Id, Next] = Stack.back();
    const BasicBlock &B = Blocks[Id];
    unsigned Succs[2];
    unsigned NumSuccs = 0;
    if (B.T == BasicBlock::Term::Jump) {
      Succs[NumSuccs++] = B.TrueSucc;
    } else if (B.T == BasicBlock::Term::Branch) {
      Succs[NumSuccs++] = B.TrueSucc;
      if (B.FalseSucc != B.TrueSucc)
        Succs[NumSuccs++] = B.FalseSucc;
    }
    if (Next < NumSuccs) {
      unsigned S = Succs[Next++];
      if (!Seen[S]) {
        Seen[S] = 1;
        Stack.push_back({S, 0});
      }
    } else {
      Post.push_back(Id);
      Stack.pop_back();
    }
  }
  Rpo.assign(Post.rbegin(), Post.rend());
  RpoPos.assign(Blocks.size(), 0);
  for (unsigned I = 0; I < Rpo.size(); ++I)
    RpoPos[Rpo[I]] = I;
}

std::string stmtStr(const CfgStmt &S) {
  switch (S.K) {
  case CfgStmt::Kind::Simple:
    return S.C->line();
  case CfgStmt::Kind::StackEnter:
    return "stackalloc " + cast<Stackalloc>(S.C)->name();
  case CfgStmt::Kind::StackExit:
    return "end of stackalloc " + cast<Stackalloc>(S.C)->name();
  }
  return "";
}

} // namespace analysis
} // namespace relc
