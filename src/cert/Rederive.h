//===- cert/Rederive.h - Independent certificate re-derivation --*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The independent checker behind relc-check. Given a certificate and the
// (model, fnspec, code) triple it claims to be about, `Rederive::check`
// re-derives every hash in the certificate from scratch:
//
//   - the content key is recomputed with cert::contentKey, so a stale or
//     tampered certificate is pinned before any symbolic work;
//   - the model is re-evaluated binding by binding and the command tree
//     re-executed, both into a fresh tv::TermGraph, by the shared symbolic
//     evaluator (tv::SymEval) — the producer's own evaluation rules, but
//     no TV driver, no solver search, no matching heuristics;
//   - where the producer *searched* for a bijection between loop-carried
//     locals and the model's carried positions, the checker's loop seam
//     *replays* the certificate's recorded witness and verifies the
//     guard/step/region equations deterministically. A wrong witness
//     cannot be patched over: the equations simply fail to intern equal.
//
// The re-derived trace (binding hashes, loop summaries, output channels)
// and the recomputed codelint section must then equal the certificate's
// records exactly, and a proved certificate names producer `relc-tv` and
// carries no reason: no field goes unchecked. This is the de Bruijn
// criterion applied to translation validation: the searcher is audited by
// a deterministic replayer, and a certificate is only as good as what the
// replayer can confirm.
//
// Trusted base of an accept: the TermGraph normalizer (tv/Term.cpp), the
// shared evaluator (tv/SymEval.cpp), the ABI digest
// (analysis::makeAbiInfo), cert::contentKey, and the witness replay below
// (cert/Rederive.cpp). Explicitly NOT trusted: tv/Tv.cpp, the search.
// relc-check's link line is CI-audited to contain the evaluator and no
// TV-driver symbol.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CERT_REDERIVE_H
#define RELC_CERT_REDERIVE_H

#include "cert/Cert.h"

namespace relc {
namespace cert {

class Rederive {
public:
  /// Checks \p C against the triple (\p Model + \p Hints, \p Spec,
  /// \p Code). Accepts iff every re-derived fact matches the certificate;
  /// otherwise rejects with a named reason (see cert::Reject). Never
  /// throws: a program outside the modeled fragment rejects as
  /// `rederivation-failed` (such programs cannot carry a proved
  /// certificate in the first place).
  static CheckResult check(const Certificate &C, const ir::SourceFn &Model,
                           const EntryFacts &Hints, const sep::FnSpec &Spec,
                           const bedrock::Function &Code);
};

} // namespace cert
} // namespace relc

#endif // RELC_CERT_REDERIVE_H
