//===- validate/Inputs.cpp - Differential input generation -----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// In its own translation unit, apart from the layer primitives in
// Validate.cpp: the benchmark programs' custom generators call
// defaultInputs, so the program registry drags this object into every
// binary that links it — which must not also drag in replayDerivation and
// differentialCertify (the checker's independence guarantee is enforced
// with nm over exactly this split).
//
//===----------------------------------------------------------------------===//

#include "validate/Validate.h"

namespace relc {
namespace validate {

using ir::Value;

std::vector<Value> defaultInputs(const ir::SourceFn &Fn, Rng &R,
                                 size_t SizeHint) {
  std::vector<Value> Out;
  for (const ir::Param &P : Fn.Params) {
    switch (P.TheKind) {
    case ir::Param::Kind::ScalarWord:
      Out.push_back(Value::word(R.next()));
      break;
    case ir::Param::Kind::List: {
      std::vector<Value> Elems;
      for (size_t I = 0; I < SizeHint; ++I) {
        if (P.Elt == ir::EltKind::U8)
          Elems.push_back(Value::byte(R.nextByte()));
        else
          Elems.push_back(Value::word(R.next() & ir::eltMask(P.Elt)));
      }
      Out.push_back(Value::list(P.Elt, std::move(Elems)));
      break;
    }
    case ir::Param::Kind::Cell:
      Out.push_back(Value::list(ir::EltKind::U64, {Value::word(R.next())}));
      break;
    }
  }
  return Out;
}

} // namespace validate
} // namespace relc
