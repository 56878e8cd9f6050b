//===- tv/Tv.cpp - Symbolic translation validation -------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The per-program translation validator declared in Tv.h: the shared
// symbolic evaluator (tv/SymEval.h) plus the one thing only the producer
// does, the loop seam's *search*. At the k-th While the evaluator hands
// over the loop's summary, and the validator searches for a bijection
// between loop-carried locals and the model's carried positions under
// which guard, step terms, and region effects all intern to the model's
// Fold summary. Matching succeeds only if the two loops compute the same
// fixpoint from the same entry state, which is exactly loop equivalence at
// every trip count. The bijection found is recorded as the certificate's
// witness, which cert::Rederive replays instead of searching.
//
// The evaluator's refusals map onto verdicts here: outside the fragment
// is Inconclusive, a mismatch is Refuted. Neither escapes
// validateTranslation.
//
//===----------------------------------------------------------------------===//

#include "tv/Tv.h"

#include <cstdio>
#include <functional>

namespace relc {
namespace tv {

namespace {

std::string hex64(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx", (unsigned long long)V);
  return Buf;
}

class Validator : public SymEval {
public:
  Validator(const ir::SourceFn &Src, const sep::FnSpec &Spec,
            const bedrock::Function &Fn, const analysis::EntryFactList &Hints,
            const guard::Budget *Budget)
      : SymEval(Src, Spec, Fn, Hints, Budget), Budget(Budget) {}

  TvReport run() {
    Rep.Fn = Fn.Name;
    bool Evaluated = false;
    try {
      SymEval::run();
      Evaluated = true;
    } catch (const Refusal &R) {
      Rep.TheVerdict = R.Kind == RefusalKind::Mismatch ? Verdict::Refuted
                                                       : Verdict::Inconclusive;
      Rep.Reason = R.Reason;
    } catch (const guard::BudgetExhausted &E) {
      // Exhaustion is a refusal, never a wrong answer: the validator
      // stops claiming anything and certification falls through to the
      // differential layer (§4.7).
      Rep.TheVerdict = Verdict::Inconclusive;
      Rep.Reason = std::string("translation validation ") + E.what();
      Rep.BudgetExhausted = true;
    }
    for (OutputChannel &C : Outputs) {
      OutputRecord O;
      O.Name = std::move(C.Name);
      O.Kind = std::move(C.Kind);
      O.SrcHash = G.hashOf(C.Src);
      O.TgtHash = G.hashOf(C.Tgt);
      O.Matched = C.matched();
      O.SrcTerm = G.str(C.Src);
      O.TgtTerm = G.str(C.Tgt);
      O.SourceBinding = std::move(C.SourceBinding);
      O.TargetPath = std::move(C.TargetPath);
      Rep.Outputs.push_back(std::move(O));
    }
    if (Evaluated)
      decide();
    Rep.Bindings = std::move(Bindings);
    Rep.Loops = std::move(Loops);
    Rep.NumTerms = unsigned(G.size());
    return Rep;
  }

private:
  const guard::Budget *Budget;
  TvReport Rep;

  /// Proved iff every output channel interned to one node on both sides.
  void decide() {
    for (const OutputRecord &O : Rep.Outputs)
      if (!O.Matched) {
        Rep.TheVerdict = Verdict::Refuted;
        Rep.Reason = "output '" + O.Name + "' [" + O.Kind +
                     "] differs between model and target";
        return;
      }
    Rep.TheVerdict = Verdict::Proved;
  }

  /// The search: a bijection from carried positions to loop variables with
  /// matching initial values, under which guard, steps, and region updates
  /// all equal the model's. Any witness is a genuine loop isomorphism (the
  /// equations verify it), so the first one found wins.
  std::vector<std::string> pickCarried(const LoopStep &L) override {
    // Loop-carried candidates: assigned locals with a pre-loop value.
    struct Cand {
      std::string Name;
      TermId Init, Next, Havoc;
    };
    std::vector<Cand> Cands;
    for (const std::string &V : L.Assigned) {
      auto InitIt = L.Entry.Locals.find(V);
      auto NextIt = L.Iter.Locals.find(V);
      if (InitIt == L.Entry.Locals.end() || NextIt == L.Iter.Locals.end())
        continue;
      Cands.push_back({V, InitIt->second, NextIt->second, L.HavocOf.at(V)});
    }

    const FoldRef &FI = L.Fold;
    unsigned N = FI.numCarried();
    std::vector<int> Pick(N, -1);
    std::vector<bool> Used(Cands.size(), false);
    std::string FailWhy;

    auto CheckAssignment = [&]() -> bool {
      std::map<TermId, TermId> Ren = L.RegionRen;
      for (unsigned J = 0; J < N; ++J)
        Ren[Cands[size_t(Pick[J])].Havoc] = carriedSym(L.K, J);
      if (G.substitute(L.Guard, Ren) != FI.guard()) {
        FailWhy = "the loop guard computes '" + clip(G.str(L.Guard)) +
                  "' but the model's is '" + clip(G.str(FI.guard())) + "'";
        return false;
      }
      for (unsigned J = 0; J < N; ++J) {
        const Cand &C = Cands[size_t(Pick[J])];
        if (G.substitute(C.Next, Ren) != FI.next(J)) {
          FailWhy = "loop variable '" + C.Name + "' steps to '" +
                    clip(G.str(C.Next)) + "' but the model's carried value " +
                    std::to_string(J) + " steps to '" +
                    clip(G.str(FI.next(J))) + "'";
          return false;
        }
      }
      for (unsigned RI = 0, RE = FI.numRegions(); RI < RE; ++RI) {
        const std::string RName = FI.regionName(RI);
        if (L.Entry.Region.at(RName) != FI.regionEntry(RI)) {
          FailWhy = "region '" + RName + "' enters the loop as '" +
                    clip(G.str(L.Entry.Region.at(RName))) +
                    "' but the model has '" +
                    clip(G.str(FI.regionEntry(RI))) + "'";
          return false;
        }
        if (G.substitute(L.Iter.Region.at(RName), Ren) != FI.regionNext(RI)) {
          FailWhy = "region '" + RName + "' is rewritten as '" +
                    clip(G.str(L.Iter.Region.at(RName))) +
                    "' per iteration but the model rewrites it as '" +
                    clip(G.str(FI.regionNext(RI))) + "'";
          return false;
        }
      }
      return true;
    };

    std::function<bool(unsigned)> Search = [&](unsigned J) -> bool {
      // The bijection search is the one place TV can blow up without
      // interning anything on the prune path, so charge it explicitly:
      // a factorial candidate space must still hit the budget.
      if (Budget)
        Budget->stepOrThrow();
      if (J == N)
        return CheckAssignment();
      for (size_t CI = 0; CI < Cands.size(); ++CI) {
        if (Used[CI] || Cands[CI].Init != FI.init(J))
          continue;
        Used[CI] = true;
        Pick[J] = int(CI);
        if (Search(J + 1))
          return true;
        Used[CI] = false;
        Pick[J] = -1;
      }
      if (FailWhy.empty())
        FailWhy = "no loop variable is initialized to the model's carried "
                  "value " +
                  std::to_string(J) + " ('" + clip(G.str(FI.init(J))) + "')";
      return false;
    };

    if (!Search(0))
      mismatch("loop at " + L.Path + " does not implement model binding '" +
               L.Model.Binding + "' (" + L.Model.Path + "): " + FailWhy);

    std::vector<std::string> Picks;
    for (unsigned J = 0; J < N; ++J)
      Picks.push_back(Cands[size_t(Pick[J])].Name);
    return Picks;
  }
};

} // namespace

const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Proved:
    return "proved";
  case Verdict::Refuted:
    return "refuted";
  case Verdict::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

std::string TvReport::str() const {
  std::string Out = "translation validation of '" + Fn + "': ";
  switch (TheVerdict) {
  case Verdict::Proved:
    Out += "PROVED";
    break;
  case Verdict::Refuted:
    Out += "REFUTED";
    break;
  case Verdict::Inconclusive:
    Out += "INCONCLUSIVE";
    break;
  }
  Out += " (" + std::to_string(Loops.size()) + " loops, " +
         std::to_string(Bindings.size()) + " bindings, " +
         std::to_string(NumTerms) + " terms)\n";
  if (!Reason.empty())
    Out += "  reason: " + Reason + "\n";
  for (const LoopRecord &L : Loops)
    Out += "  loop #" + std::to_string(L.Ordinal) + " -> binding '" +
           L.Binding + "': fold " + hex64(L.FoldHash) + ", " +
           std::to_string(L.Carried) + " carried, " +
           std::to_string(L.Regions) + " regions\n";
  for (const OutputRecord &O : Outputs) {
    if (O.Matched) {
      Out += "  output '" + O.Name + "' [" + O.Kind + "]: ok " +
             hex64(O.SrcHash) + "\n";
      continue;
    }
    Out += "  output '" + O.Name + "' [" + O.Kind + "]: MISMATCH\n";
    Out += "    model:  " + O.SrcTerm + "\n";
    if (!O.SourceBinding.empty())
      Out += "            (bound at " + O.SourceBinding + ")\n";
    Out += "    target: " + O.TgtTerm + "\n";
    if (!O.TargetPath.empty())
      Out += "            (defined at " + O.TargetPath + ")\n";
  }
  return Out;
}

TvReport validateTranslation(const ir::SourceFn &Src, const sep::FnSpec &Spec,
                             const bedrock::Function &Fn,
                             const analysis::EntryFactList &Hints,
                             const guard::Budget *Budget) {
  Validator V(Src, Spec, Fn, Hints, Budget);
  return V.run();
}

} // namespace tv
} // namespace relc
