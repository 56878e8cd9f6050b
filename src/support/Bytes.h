//===- support/Bytes.h - The one little-endian byte codec -------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The encoding the certificate image (cert/Binary.h), the cache entry
// (pipeline/CertCache.h) and the relcd wire frames (service/Protocol.h)
// share. A format states each record's layout once, as a function
// template over the direction, which a Writer runs to encode and a Reader
// runs to decode:
//
//   template <class Dir, class R> void layout(Dir &IO, R &Rec) {
//     IO.u64(Rec.Hash);
//     IO.str32(Rec.Name);
//     IO.list(Rec.Items, [&](auto &I) { IO.u32(I.Count); });
//   }
//
// Both classes spell every field the same way, so no layout branches on
// its direction, and a check only decoding needs lives in the Reader. The
// Reader's overrun argument is made once, in DESIGN.md §4.10: the first
// short read poisons the cursor, every length and count is checked
// against the bytes left before anything is allocated for it, and done()
// refuses trailing bytes.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SUPPORT_BYTES_H
#define RELC_SUPPORT_BYTES_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace relc {
namespace bytes {

/// Fixed-width little-endian integers. A load reads bytes its caller has
/// checked are there.
void putU32(std::string &Out, uint32_t V);
void putU64(std::string &Out, uint64_t V);
uint32_t loadU32(const char *P);
uint64_t loadU64(const char *P);

/// Appends the FNV-1a/64 of every byte of \p Out as a u64 trailer.
void seal(std::string &Out);
/// True iff \p Image ends in the u64 FNV-1a/64 of every byte before it.
bool sealed(std::string_view Image);

/// Encodes: appends each field to a string.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(char(V)); }
  void u32(uint32_t V) { putU32(Out, V); }
  void u64(uint64_t V) { putU64(Out, V); }
  void flag(bool B) { u8(B ? 1 : 0); }
  /// A byte run behind its u32 / u64 length.
  void str32(const std::string &S) { u32(uint32_t(S.size())); Out += S; }
  void str64(const std::string &S) { u64(S.size()); Out += S; }

  /// A u32 count, then each element through \p Elem.
  template <class T, class F> void list(const std::vector<T> &V, F Elem) {
    u32(uint32_t(V.size()));
    for (const T &E : V)
      Elem(E);
  }

  /// A flag, then the value through \p Elem if there is one.
  template <class T, class F>
  void optional(const std::optional<T> &O, F Elem) {
    flag(O.has_value());
    if (O)
      Elem(*O);
  }

private:
  std::string &Out;
};

/// Decodes: a bounds-checked cursor whose first overrun poisons it. A
/// poisoned cursor reads nothing more; integers read as 0, strings as "".
class Reader {
public:
  explicit Reader(std::string_view In) : In(In) {}

  void u8(uint8_t &V) { const char *P = take(1); V = P ? uint8_t(*P) : 0; }
  void u32(uint32_t &V) { const char *P = take(4); V = P ? loadU32(P) : 0; }
  void u64(uint64_t &V) { const char *P = take(8); V = P ? loadU64(P) : 0; }
  /// Any nonzero byte is true.
  void flag(bool &B) { uint8_t V = 0; u8(V); B = V != 0; }
  void str32(std::string &S) { uint32_t N = 0; u32(N); raw(N, S); }
  void str64(std::string &S) { uint64_t N = 0; u64(N); raw(N, S); }

  /// A u32 count, checked against the bytes left (an element takes at
  /// least one byte) before anything is allocated, then each element
  /// through \p Elem while the cursor is whole.
  template <class T, class F> void list(std::vector<T> &V, F Elem) {
    uint32_t N = 0;
    u32(N);
    if (N > left())
      fail();
    V.clear();
    for (uint32_t I = 0; I < N && ok(); ++I)
      Elem(V.emplace_back());
  }

  /// A flag, then the value through \p Elem if the flag is set.
  template <class T, class F> void optional(std::optional<T> &O, F Elem) {
    bool Has = false;
    flag(Has);
    O.reset();
    if (Has)
      Elem(O.emplace());
  }

  /// Poisons the cursor: a check a format makes beyond the bounds.
  void fail() { Failed = true; }
  bool ok() const { return !Failed; }
  size_t left() const { return In.size() - At; }
  /// No overrun and no trailing byte.
  bool done() const { return ok() && At == In.size(); }

private:
  /// The next \p N bytes, or nullptr (and poisoned) if fewer are left.
  const char *take(uint64_t N);
  /// \p N raw bytes into \p S.
  void raw(uint64_t N, std::string &S);

  std::string_view In;
  size_t At = 0; ///< Never past In.size().
  bool Failed = false;
};

} // namespace bytes
} // namespace relc

#endif // RELC_SUPPORT_BYTES_H
