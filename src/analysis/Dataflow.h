//===- analysis/Dataflow.h - Forward worklist dataflow solver ---*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A generic forward dataflow solver over `analysis::Cfg`, parameterized by
// an abstract domain. A Domain provides:
//
//   using State = ...;                      // copyable abstract state
//   State entry();                          // state at function entry
//   void transfer(const Cfg &, const BasicBlock &, const CfgStmt &, State &);
//   std::optional<State> edge(const Cfg &, const BasicBlock &,
//                             const State &, bool Taken);
//       // State flowing along the Taken/not-Taken edge of a Branch block
//       // (and along Jump edges, with Taken = true). nullopt marks the
//       // edge statically infeasible — its target receives nothing.
//   bool join(unsigned BlockId, State &Into, const State &From);
//       // Merge From into Into; returns true iff Into changed. BlockId
//       // names the merge point (the symbolic domain keys its phis on it).
//   bool same(const State &, const State &);
//       // Structural equality; drives change detection.
//   bool restartLoops();
//       // Whether a loop should be re-seeded from its entry state when
//       // that entry state changes (see below). Domains whose join can
//       // get *stuck* on artifacts of a stale merge (the symbolic
//       // domain's phis) need this; a domain whose join cannot get stuck
//       // (definedness) declines, since a restart would only re-run the
//       // loop body.
//
// Block inputs are recomputed *fresh* on every visit as the join of the
// predecessors' latest cached edge states ("In[b] = ⊔ out-edges of preds"),
// never by accumulating into the stored input. Accumulation would merge
// states from different fixpoint generations — a join point would phi
// together its predecessor's final state with that predecessor's own
// stale early-iteration states, losing facts (and precision) that hold at
// the actual fixpoint.
//
// Block-input states start unset; a block whose input never gets a state is
// unreachable under the domain's abstraction; the static analyzer takes
// its reachability from the symbolic domain's. The worklist is ordered by
// reverse post order so loop bodies stabilize before their exits are
// explored. Iteration is capped; hitting the cap sets Converged = false,
// which callers treat as an analysis error rather than trusting a partial
// fixpoint.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_ANALYSIS_DATAFLOW_H
#define RELC_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"
#include "support/Budget.h"

#include <map>
#include <optional>
#include <set>
#include <vector>

namespace relc {
namespace analysis {

template <typename Domain> struct DataflowResult {
  /// Fixpoint state at each block's input, indexed by block id; unset means
  /// the block is unreachable in the abstraction.
  std::vector<std::optional<typename Domain::State>> In;
  unsigned Iterations = 0;
  bool Converged = true;
  /// Non-convergence was forced by guard::Budget exhaustion, not by the
  /// visit cap. Callers word their diagnostic accordingly.
  bool BudgetExhausted = false;
};

template <typename Domain>
DataflowResult<Domain> runForward(const Cfg &G, Domain &D,
                                  unsigned MaxVisitsPerBlock = 64,
                                  const guard::Budget *Budget = nullptr) {
  DataflowResult<Domain> R;
  const unsigned NumBlocks = unsigned(G.blocks().size());
  R.In.resize(NumBlocks);
  R.In[G.entry()] = D.entry();

  const std::vector<unsigned> &Pos = G.rpoPos();
  auto Order = [&Pos](unsigned A, unsigned B) {
    return Pos[A] != Pos[B] ? Pos[A] < Pos[B] : A < B;
  };
  std::set<unsigned, decltype(Order)> Worklist(Order);
  Worklist.insert(G.entry());

  const unsigned MaxIterations = MaxVisitsPerBlock * NumBlocks;

  // Latest feasible edge state per (pred, succ); absent means the edge is
  // infeasible or the pred has not been visited yet.
  std::vector<std::map<unsigned, typename Domain::State>> EdgeOut(NumBlocks);
  // Last seen join of a loop header's *forward* (non-back-edge) inputs.
  std::vector<std::optional<typename Domain::State>> FwdIn(NumBlocks);

  // Joins the cached edge states flowing into Succ; with ForwardOnly set,
  // back edges (preds at an equal or later RPO position) are skipped.
  auto JoinPreds = [&](unsigned Succ,
                       bool ForwardOnly) -> std::optional<typename Domain::State> {
    std::optional<typename Domain::State> J;
    for (unsigned P : G.block(Succ).Preds) {
      if (ForwardOnly && Pos[P] >= Pos[Succ])
        continue;
      auto It = EdgeOut[P].find(Succ);
      if (It == EdgeOut[P].end())
        continue;
      if (!J)
        J = It->second;
      else
        D.join(Succ, *J, It->second);
    }
    return J;
  };

  auto Propagate = [&](unsigned From, unsigned Succ,
                       std::optional<typename Domain::State> S) {
    if (S)
      EdgeOut[From][Succ] = std::move(*S);
    else
      EdgeOut[From].erase(Succ); // Infeasible (possibly newly so).

    // When the state *entering* a loop changes, restart the loop instead
    // of joining: seed the header with the forward-only join and requeue
    // the back-edge predecessors. Joining the new entry state against the
    // cached back-edge state would mix fixpoint generations — the cached
    // state was computed from the loop's previous input, and the spurious
    // phis/fact losses that merge produces are never undone (a phi, once
    // minted, keeps both sides unequal forever). The worklist's RPO order
    // makes the restart cheap: the loop body refreshes before the
    // requeued back edge re-joins, so the header re-stabilizes against
    // current states only.
    bool HasBack = false;
    for (unsigned P : G.block(Succ).Preds)
      HasBack |= Pos[P] >= Pos[Succ];
    if (HasBack && Pos[From] < Pos[Succ] && D.restartLoops()) {
      std::optional<typename Domain::State> Fwd =
          JoinPreds(Succ, /*ForwardOnly=*/true);
      if (Fwd && (!FwdIn[Succ] || !D.same(*FwdIn[Succ], *Fwd))) {
        FwdIn[Succ] = *Fwd;
        R.In[Succ] = std::move(*Fwd);
        Worklist.insert(Succ);
        for (unsigned P : G.block(Succ).Preds)
          if (Pos[P] >= Pos[Succ] && R.In[P])
            Worklist.insert(P);
        return;
      }
    }

    // Recompute Succ's input fresh from all feasible predecessor edges.
    std::optional<typename Domain::State> Fresh =
        JoinPreds(Succ, /*ForwardOnly=*/false);
    if (!Fresh)
      return; // No feasible way in (yet).
    if (!R.In[Succ] || !D.same(*R.In[Succ], *Fresh)) {
      R.In[Succ] = std::move(*Fresh);
      Worklist.insert(Succ);
    }
  };

  while (!Worklist.empty()) {
    if (++R.Iterations > MaxIterations) {
      R.Converged = false;
      break;
    }
    // A budgeted run that exhausts stops exactly like a visit-cap miss:
    // Converged = false, which every caller already turns into an analysis
    // *error* (a refusal) — never a silently weaker accepted state.
    if (Budget && !Budget->checkpoint()) {
      R.Converged = false;
      R.BudgetExhausted = true;
      break;
    }
    unsigned Id = *Worklist.begin();
    Worklist.erase(Worklist.begin());
    const BasicBlock &B = G.block(Id);

    typename Domain::State S = *R.In[Id];
    for (const CfgStmt &St : B.Stmts)
      D.transfer(G, B, St, S);

    switch (B.T) {
    case BasicBlock::Term::Jump:
      Propagate(Id, B.TrueSucc, D.edge(G, B, S, true));
      break;
    case BasicBlock::Term::Branch:
      Propagate(Id, B.TrueSucc, D.edge(G, B, S, true));
      Propagate(Id, B.FalseSucc, D.edge(G, B, S, false));
      break;
    case BasicBlock::Term::Exit:
      break;
    }
  }
  return R;
}

} // namespace analysis
} // namespace relc

#endif // RELC_ANALYSIS_DATAFLOW_H
