//===- ir/Value.cpp - Source-language values ------------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"

#include "support/StringExtras.h"

namespace relc {
namespace ir {

const std::vector<Value> Value::NoElems;

void Value::adopt(std::vector<Value> Items) {
  if (Items.empty())
    return;
  Shared = new Block;
  Shared->Items = std::move(Items);
}

void Value::unshare() {
  Block *Own = new Block;
  if (Shared)
    Own->Items = Shared->Items;
  release();
  Shared = Own;
}

std::vector<uint8_t> Value::asBytes() const {
  assert(TheKind == Kind::List && Elt == EltKind::U8 && "not a byte list");
  std::vector<uint8_t> Out;
  Out.reserve(elems().size());
  for (const Value &E : elems())
    Out.push_back(E.asByte());
  return Out;
}

std::vector<uint64_t> Value::asWords() const {
  assert(TheKind == Kind::List && "not a list");
  std::vector<uint64_t> Out;
  Out.reserve(elems().size());
  for (const Value &E : elems())
    Out.push_back(E.scalar());
  return Out;
}

bool Value::operator==(const Value &O) const {
  if (TheKind != O.TheKind)
    return false;
  switch (TheKind) {
  case Kind::Word:
  case Kind::Byte:
  case Kind::Bool:
    return Scalar == O.Scalar;
  case Kind::Unit:
    return true;
  case Kind::List:
    return Elt == O.Elt && (Shared == O.Shared || elems() == O.elems());
  case Kind::Tuple:
    return Shared == O.Shared || elems() == O.elems();
  }
  return false;
}

std::string Value::str() const {
  switch (TheKind) {
  case Kind::Word:
    return "w:" + hexStr(Scalar);
  case Kind::Byte:
    return "b:0x" + hexByte(uint8_t(Scalar));
  case Kind::Bool:
    return Scalar ? "true" : "false";
  case Kind::Unit:
    return "()";
  case Kind::List: {
    const std::vector<Value> &Elems = elems();
    std::string Out = "[";
    // Long lists abbreviate: show head and length.
    size_t Show = Elems.size() > 8 ? 8 : Elems.size();
    for (size_t I = 0; I < Show; ++I) {
      if (I != 0)
        Out += "; ";
      Out += Elems[I].str();
    }
    if (Show < Elems.size())
      Out += "; ... (" + std::to_string(Elems.size()) + " elems)";
    return Out + "]";
  }
  case Kind::Tuple: {
    std::vector<std::string> Parts;
    for (const Value &E : elems())
      Parts.push_back(E.str());
    // Built up with += (rather than a "(" + ... + ")" chain) to sidestep a
    // GCC 12 -Wrestrict false positive on the temporary-reusing operator+.
    std::string Out = "(";
    Out += join(Parts, ", ");
    Out += ")";
    return Out;
  }
  }
  return "?";
}

} // namespace ir
} // namespace relc
