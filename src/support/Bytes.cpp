//===- support/Bytes.cpp - The one little-endian byte codec ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/Bytes.h"

#include "support/Hash.h"

namespace relc {
namespace bytes {

namespace {

template <class T> void put(std::string &Out, T V) {
  char Buf[sizeof(T)];
  for (size_t I = 0; I < sizeof(T); ++I)
    Buf[I] = char(uint8_t(V >> (8 * I)));
  Out.append(Buf, sizeof(T));
}

template <class T> T load(const char *P) {
  T V = 0;
  for (size_t I = 0; I < sizeof(T); ++I)
    V |= T(uint8_t(P[I])) << (8 * I);
  return V;
}

} // namespace

void putU32(std::string &Out, uint32_t V) { put(Out, V); }
void putU64(std::string &Out, uint64_t V) { put(Out, V); }
uint32_t loadU32(const char *P) { return load<uint32_t>(P); }
uint64_t loadU64(const char *P) { return load<uint64_t>(P); }

void seal(std::string &Out) { putU64(Out, hash::fnv1a64(Out)); }

bool sealed(std::string_view Image) {
  if (Image.size() < 8)
    return false;
  std::string_view Body = Image.substr(0, Image.size() - 8);
  return hash::fnv1a64(Body) == loadU64(Image.data() + Body.size());
}

const char *Reader::take(uint64_t N) {
  // Compared in 64 bits: a u64 length past SIZE_MAX on a 32-bit host
  // cannot wrap into a false pass.
  if (Failed || N > left()) {
    Failed = true;
    return nullptr;
  }
  const char *P = In.data() + At;
  At += size_t(N);
  return P;
}

void Reader::raw(uint64_t N, std::string &S) {
  if (const char *P = take(N))
    S.assign(P, size_t(N));
  else
    S.clear();
}

} // namespace bytes
} // namespace relc
