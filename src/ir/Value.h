//===- ir/Value.h - Source-language values ---------------------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The value domain of FunLang, the purely functional source language (the
// deep embedding of the paper's "lowered Gallina" subset, Figure 1). Values
// are words, bytes, booleans, unit, and homogeneous lists; multi-results are
// tuples. Lists model both Gallina lists and the ListArray/Cell wrappers
// whose layout the compiler chooses.
//
// A list's or tuple's elements live in one heap block that every copy of
// the value shares: copying or destroying a value adjusts an atomic
// reference count, and the first write through a shared handle (the
// non-const elems()) clones the block, so no copy ever sees another's
// write (copy-on-write; DESIGN.md §4.4).
//
//===----------------------------------------------------------------------===//

#ifndef RELC_IR_VALUE_H
#define RELC_IR_VALUE_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace relc {
namespace ir {

/// Scalar element kinds for arrays, lists and inline tables. The kind fixes
/// the memory layout the compiler will choose (1/2/4/8 bytes per element).
enum class EltKind : uint8_t { U8 = 1, U16 = 2, U32 = 4, U64 = 8 };

/// Number of bytes occupied by one element of kind \p K.
inline unsigned eltSize(EltKind K) { return unsigned(K); }

/// Maximum value representable in kind \p K.
inline uint64_t eltMask(EltKind K) {
  return K == EltKind::U64 ? ~uint64_t(0)
                           : ((uint64_t(1) << (8 * unsigned(K))) - 1);
}

/// A FunLang value.
class Value {
public:
  enum class Kind { Word, Byte, Bool, Unit, List, Tuple };

  Value() : TheKind(Kind::Unit) {}
  Value(const Value &O)
      : TheKind(O.TheKind), Elt(O.Elt), Scalar(O.Scalar), Shared(O.Shared) {
    if (Shared)
      ++Shared->Refs;
  }
  Value(Value &&O) noexcept
      : TheKind(O.TheKind), Elt(O.Elt), Scalar(O.Scalar),
        Shared(std::exchange(O.Shared, nullptr)) {}
  Value &operator=(const Value &O) { return *this = Value(O); }
  Value &operator=(Value &&O) noexcept {
    // Safe when O is *this or one of its elements: what *this held is
    // released only after O has been taken.
    Value Taken(std::move(O));
    std::swap(TheKind, Taken.TheKind);
    std::swap(Elt, Taken.Elt);
    std::swap(Scalar, Taken.Scalar);
    std::swap(Shared, Taken.Shared);
    return *this;
  }
  ~Value() { release(); }

  static Value word(uint64_t W) { return Value(Kind::Word, W); }
  static Value byte(uint8_t B) { return Value(Kind::Byte, B); }
  static Value boolean(bool B) { return Value(Kind::Bool, B ? 1 : 0); }
  static Value unit() { return Value(); }
  static Value list(EltKind Elt, std::vector<Value> Elems) {
    Value V(Kind::List, 0);
    V.Elt = Elt;
    V.adopt(std::move(Elems));
    return V;
  }
  static Value byteList(const std::vector<uint8_t> &Bytes) {
    std::vector<Value> Elems;
    Elems.reserve(Bytes.size());
    for (uint8_t B : Bytes)
      Elems.push_back(byte(B));
    return list(EltKind::U8, std::move(Elems));
  }
  static Value tuple(std::vector<Value> Elems) {
    Value V(Kind::Tuple, 0);
    V.adopt(std::move(Elems));
    return V;
  }

  Kind kind() const { return TheKind; }
  bool isScalar() const {
    return TheKind == Kind::Word || TheKind == Kind::Byte ||
           TheKind == Kind::Bool;
  }

  uint64_t asWord() const {
    assert(TheKind == Kind::Word && "not a word");
    return Scalar;
  }
  uint8_t asByte() const {
    assert(TheKind == Kind::Byte && "not a byte");
    return uint8_t(Scalar);
  }
  bool asBool() const {
    assert(TheKind == Kind::Bool && "not a bool");
    return Scalar != 0;
  }
  /// Any scalar, widened to a word.
  uint64_t scalar() const {
    assert(isScalar() && "not a scalar");
    return Scalar;
  }

  EltKind listElt() const {
    assert(TheKind == Kind::List && "not a list");
    return Elt;
  }
  /// The elements, shared with every copy of this value.
  const std::vector<Value> &elems() const {
    assert((TheKind == Kind::List || TheKind == Kind::Tuple) && "no elements");
    return Shared ? Shared->Items : NoElems;
  }
  /// The elements, for writing: clones them first unless this value is
  /// their only holder.
  std::vector<Value> &elems() {
    assert((TheKind == Kind::List || TheKind == Kind::Tuple) && "no elements");
    if (!Shared || Shared->Refs != 1)
      unshare();
    return Shared->Items;
  }

  /// List contents as raw bytes (lists of U8 only).
  std::vector<uint8_t> asBytes() const;

  /// List contents widened to words (any scalar element kind).
  std::vector<uint64_t> asWords() const;

  bool operator==(const Value &O) const;
  bool operator!=(const Value &O) const { return !(*this == O); }

  std::string str() const;

private:
  /// The elements of a list or tuple and the number of values holding
  /// them. Null stands for no elements.
  struct Block {
    std::atomic<uint32_t> Refs{1};
    std::vector<Value> Items;
  };
  static const std::vector<Value> NoElems;

  Value(Kind K, uint64_t Scalar) : TheKind(K), Scalar(Scalar) {}

  void adopt(std::vector<Value> Items);
  void unshare();
  void release() {
    if (Shared && --Shared->Refs == 0)
      delete Shared;
  }

  Kind TheKind;
  EltKind Elt = EltKind::U8;
  uint64_t Scalar = 0;
  Block *Shared = nullptr;
};

} // namespace ir
} // namespace relc

#endif // RELC_IR_VALUE_H
