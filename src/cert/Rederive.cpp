//===- cert/Rederive.cpp - Independent certificate re-derivation -----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The deterministic replayer behind relc-check: the shared symbolic
// evaluator (tv/SymEval.h) — the very evaluator the producer ran, so the
// re-derived term graph is the producer's by construction — with the one
// asymmetry that makes the whole subsystem worth having. Where the
// validator *searches* for a loop match (a backtracking bijection over
// carried locals), the checker's loop seam *replays* the certificate's
// recorded witness and verifies the match equations directly. Every
// divergence rejects with a named reason; nothing here ever "fixes up" a
// certificate to make it pass.
//
//===----------------------------------------------------------------------===//

#include "cert/Rederive.h"

#include "codelint/Codelint.h"
#include "tv/SymEval.h"

namespace relc {
namespace cert {

namespace {

using tv::TermId;

/// Internal rejection escape; caught at the Rederive::check boundary.
struct CheckFail {
  Reject Why;
  std::string Detail;
};

[[noreturn]] void fail(Reject Why, const std::string &Detail) {
  throw CheckFail{Why, Detail};
}

class Replayer : public tv::SymEval {
public:
  Replayer(const Certificate &Cert, const ir::SourceFn &Src,
           const sep::FnSpec &Spec, const bedrock::Function &Fn,
           const analysis::EntryFactList &Hints)
      : SymEval(Src, Spec, Fn, Hints, /*Budget=*/nullptr), Cert(Cert) {}

  CheckResult run() {
    SymEval::run();
    return compareTrace();
  }

private:
  const Certificate &Cert;

  void enterLoop(unsigned K) override {
    if (K >= Cert.Loops.size())
      fail(Reject::TruncatedTrace,
           "target loop #" + std::to_string(K) +
               " has no loop record in the certificate");
  }

  /// The producer's search replaced by witness replay: the certificate
  /// says which target local implements each carried position and which
  /// regions the loop stores to, and this verifies that the resulting
  /// renaming satisfies the guard, step, and region equations —
  /// deterministically, in one pass.
  std::vector<std::string> pickCarried(const tv::LoopStep &L) override {
    const LoopRec &CL = Cert.Loops[L.K];
    const std::string K = std::to_string(L.K);
    const tv::FoldRef &FI = L.Fold;

    // The witness must name this While, the derived store set, and exactly
    // one assigned local per carried position.
    if (CL.TargetPath != L.Path)
      fail(Reject::LoopWitnessMismatch,
           "loop #" + K + " witness names the While at '" + CL.TargetPath +
               "' but it executes at '" + L.Path + "'");
    std::set<std::string> WitRegs(CL.WitnessRegions.begin(),
                                  CL.WitnessRegions.end());
    if (WitRegs != L.Stored)
      fail(Reject::LoopWitnessMismatch,
           "loop #" + K + " witness region set {" + tv::joinSet(WitRegs) +
               "} differs from the derived store set {" +
               tv::joinSet(L.Stored) + "}");
    if (CL.WitnessLocals.size() != FI.numCarried())
      fail(Reject::LoopWitnessMismatch,
           "loop #" + K + " witness maps " +
               std::to_string(CL.WitnessLocals.size()) +
               " locals but the model carries " +
               std::to_string(FI.numCarried()) + " values");

    // Replay: build the recorded renaming and verify the match equations.
    std::map<TermId, TermId> Ren = L.RegionRen;
    std::set<std::string> SeenLocals;
    for (unsigned J = 0; J < FI.numCarried(); ++J) {
      const std::string &V = CL.WitnessLocals[J];
      if (!SeenLocals.insert(V).second)
        fail(Reject::LoopWitnessMismatch,
             "witness maps local '" + V + "' to two carried positions");
      if (!L.Assigned.count(V))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' is not assigned by the loop body");
      auto InitIt = L.Entry.Locals.find(V);
      if (InitIt == L.Entry.Locals.end() || !L.Iter.Locals.count(V))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' has no loop-carried value");
      if (InitIt->second != FI.init(J))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' is initialized to '" +
                 tv::clip(G.str(InitIt->second)) +
                 "' but the model's carried value " + std::to_string(J) +
                 " starts at '" + tv::clip(G.str(FI.init(J))) + "'");
      Ren[L.HavocOf.at(V)] = carriedSym(L.K, J);
    }

    if (G.substitute(L.Guard, Ren) != FI.guard())
      fail(Reject::LoopWitnessMismatch,
           "under the recorded witness the loop guard computes '" +
               tv::clip(G.str(L.Guard)) + "' but the model's is '" +
               tv::clip(G.str(FI.guard())) + "'");
    for (unsigned J = 0; J < FI.numCarried(); ++J) {
      const std::string &V = CL.WitnessLocals[J];
      TermId Next = L.Iter.Locals.at(V);
      if (G.substitute(Next, Ren) != FI.next(J))
        fail(Reject::LoopWitnessMismatch,
             "witness local '" + V + "' steps to '" + tv::clip(G.str(Next)) +
                 "' but the model's carried value " + std::to_string(J) +
                 " steps to '" + tv::clip(G.str(FI.next(J))) + "'");
    }
    for (unsigned RI = 0, RE = FI.numRegions(); RI < RE; ++RI) {
      const std::string RName = FI.regionName(RI);
      if (L.Entry.Region.at(RName) != FI.regionEntry(RI))
        fail(Reject::LoopWitnessMismatch,
             "region '" + RName + "' enters the loop as '" +
                 tv::clip(G.str(L.Entry.Region.at(RName))) +
                 "' but the model has '" +
                 tv::clip(G.str(FI.regionEntry(RI))) + "'");
      if (G.substitute(L.Iter.Region.at(RName), Ren) != FI.regionNext(RI))
        fail(Reject::LoopWitnessMismatch,
             "region '" + RName + "' is rewritten as '" +
                 tv::clip(G.str(L.Iter.Region.at(RName))) +
                 "' per iteration but the model rewrites it as '" +
                 tv::clip(G.str(FI.regionNext(RI))) + "'");
    }
    return CL.WitnessLocals;
  }

  CheckResult compareTrace() {
    // The proved claim itself: every channel must re-derive equal.
    for (const tv::OutputChannel &O : Outputs)
      if (!O.matched())
        return CheckResult::reject(
            Reject::OutputMismatch,
            "output '" + O.Name + "' [" + O.Kind +
                "] does not re-derive as equal between model and target");

    // Binding trace: same length, same records, in order.
    if (Cert.Bindings.size() != Bindings.size())
      return CheckResult::reject(
          Reject::TruncatedTrace,
          "certificate records " + std::to_string(Cert.Bindings.size()) +
              " bindings but re-derivation produces " +
              std::to_string(Bindings.size()));
    for (size_t I = 0; I < Bindings.size(); ++I) {
      const BindingRec &C = Cert.Bindings[I];
      const tv::BindingRecord &D = Bindings[I];
      if (C.Path != D.Path || C.Name != D.Name || C.Hash != D.Hash)
        return CheckResult::reject(
            Reject::BindingTraceMismatch,
            "binding #" + std::to_string(I) + " records (" + C.Path + ", " +
                C.Name + ") but re-derivation gives (" + D.Path + ", " +
                D.Name + ") with a " +
                (C.Hash != D.Hash ? std::string("different")
                                  : std::string("matching")) +
                " hash");
    }

    // Loop summaries (witnesses were verified during execution).
    if (Cert.Loops.size() != Loops.size())
      return CheckResult::reject(
          Reject::TruncatedTrace,
          "certificate records " + std::to_string(Cert.Loops.size()) +
              " loops but re-derivation produces " +
              std::to_string(Loops.size()));
    for (size_t I = 0; I < Loops.size(); ++I) {
      const LoopRec &C = Cert.Loops[I];
      const tv::LoopRecord &D = Loops[I];
      if (C.Ordinal != D.Ordinal || C.Binding != D.Binding ||
          C.Path != D.Path || C.FoldHash != D.FoldHash ||
          C.Carried != D.Carried || C.Regions != D.Regions)
        return CheckResult::reject(
            Reject::LoopSummaryMismatch,
            "loop #" + std::to_string(I) +
                " summary differs from the re-derived one (binding '" +
                D.Binding + "' at " + D.Path + ")");
    }

    // Output channels.
    if (Cert.Outputs.size() != Outputs.size())
      return CheckResult::reject(
          Reject::OutputMismatch,
          "certificate records " + std::to_string(Cert.Outputs.size()) +
              " outputs but re-derivation produces " +
              std::to_string(Outputs.size()));
    for (size_t I = 0; I < Outputs.size(); ++I) {
      const OutputRec &C = Cert.Outputs[I];
      const tv::OutputChannel &D = Outputs[I];
      if (C.Name != D.Name || C.Kind != D.Kind ||
          C.SrcHash != G.hashOf(D.Src) || C.TgtHash != G.hashOf(D.Tgt) ||
          C.Matched != D.matched() || C.SourceBinding != D.SourceBinding ||
          C.TargetPath != D.TargetPath)
        return CheckResult::reject(
            Reject::OutputMismatch,
            "output '" + D.Name + "' [" + D.Kind +
                "] record differs from the re-derived one");
    }

    return CheckResult::accept();
  }
};

} // namespace

CheckResult Rederive::check(const Certificate &C, const ir::SourceFn &Model,
                            const EntryFacts &Hints, const sep::FnSpec &Spec,
                            const bedrock::Function &Code) {
  if (C.SchemaVersion != kSchemaVersion)
    return CheckResult::reject(Reject::UnknownSchemaVersion,
                               "schema_version " +
                                   std::to_string(C.SchemaVersion) +
                                   " is not checkable by this build");
  if (C.Function != Code.Name)
    return CheckResult::reject(Reject::FunctionMismatch,
                               "certificate is about '" + C.Function +
                                   "' but the suite compiles '" + Code.Name +
                                   "'");

  ContentKey Fresh = contentKey(Model, Hints, Spec, Code);
  if (Fresh.ModelHash != C.Key.ModelHash)
    return CheckResult::reject(
        Reject::StaleModel,
        "certificate model hash does not match the current model+hints");
  if (Fresh.SpecHash != C.Key.SpecHash)
    return CheckResult::reject(
        Reject::StaleSpec,
        "certificate fnspec hash does not match the current fnspec");
  if (Fresh.CodeHash != C.Key.CodeHash)
    return CheckResult::reject(
        Reject::StaleCode,
        "certificate code hash does not match the freshly compiled code");

  if (!C.proved())
    return CheckResult::reject(Reject::VerdictNotProved,
                               "certificate verdict is '" + C.Verdict +
                                   "'; only proved certificates are "
                                   "acceptable");
  if (C.Producer != kProducer)
    return CheckResult::reject(Reject::ProducerMismatch,
                               "certificate names producer '" + C.Producer +
                                   "'; proved certificates come from '" +
                                   kProducer + "'");
  if (!C.Reason.empty())
    return CheckResult::reject(Reject::ProvedWithReason,
                               "proved certificate carries the reason '" +
                                   C.Reason + "'");

  CheckResult R = CheckResult::accept();
  try {
    R = Replayer(C, Model, Spec, Code, Hints).run();
  } catch (const CheckFail &F) {
    return CheckResult::reject(F.Why, F.Detail);
  } catch (const tv::Refusal &F) {
    // Outside the fragment or a mismatch: either way no proved
    // certificate can be about this program.
    return CheckResult::reject(Reject::RederivationFailed, F.Reason);
  }
  if (!R.Accepted)
    return R;
  if (!C.Codelint)
    return CheckResult::reject(Reject::MissingCodelint,
                               "certificate has no codelint section");

  // The codelint section re-derives the same way everything else does: run
  // the analyzer core (unbudgeted — the producer only embeds the section
  // when its own budgeted run finished) and compare field-for-field.
  codelint::Report Rep = codelint::analyzeFunction(Code, Spec, Model, Hints);
  CodelintRec Fresh2 = codelintRecOf(Rep);
  if (!(Fresh2 == *C.Codelint))
    return CheckResult::reject(
        Reject::CodelintMismatch,
        "codelint section does not re-derive: certificate claims (" +
            C.Codelint->Mem + "/" + C.Codelint->Stack + "/" +
            C.Codelint->Steps + ", v" + std::to_string(C.Codelint->Version) +
            ") but the analyzer derives (" + Fresh2.Mem + "/" + Fresh2.Stack +
            "/" + Fresh2.Steps + ", v" + std::to_string(Fresh2.Version) + ")");
  return R;
}

} // namespace cert
} // namespace relc
