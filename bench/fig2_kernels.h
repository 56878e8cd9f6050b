//===- bench/fig2_kernels.h - Figure 2's per-kernel drivers -----*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The seven Figure 2 kernels behind one driver shape: the C relc-gen
// emitted (relc_generated) and its handwritten bench/ref twin, each run
// over a whole buffer. bench/fig2_performance times them and
// tests/cgen/GeneratedKernelsTest checks that the two sides agree.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_BENCH_FIG2_KERNELS_H
#define RELC_BENCH_FIG2_KERNELS_H

#include "bench_common.h"
#include "ref_impls.h"
#include "relc_generated.h"

#include <cstring>

namespace relc_bench {

struct Kernel {
  const char *Name;
  /// The input Figure 2 times the kernel on.
  std::vector<uint8_t> (*MakeInput)(size_t, uint64_t);
  /// One full pass over the buffer. The result is the kernel's return
  /// value (0 for the in-place kernels, whose output is the buffer).
  uint64_t (*RunGenerated)(uint8_t *, size_t);
  uint64_t (*RunHandwritten)(uint8_t *, size_t);
  /// Works in place: the buffer is an output too.
  bool Mutates;
  /// The shortest buffer the kernel accepts (utf8 reads four bytes at a
  /// time).
  size_t MinLen;
};

inline uint64_t genFnv1a(uint8_t *S, size_t N) {
  return relc_fnv1a(uintptr_t(S), N);
}
inline uint64_t refFnv1a(uint8_t *S, size_t N) { return ref_fnv1a(S, N); }

inline uint64_t genUtf8(uint8_t *S, size_t N) {
  return relc_utf8(uintptr_t(S), N);
}
inline uint64_t refUtf8(uint8_t *S, size_t N) { return ref_utf8(S, N); }

inline uint64_t genUpstr(uint8_t *S, size_t N) {
  relc_upstr(uintptr_t(S), N);
  return 0;
}
inline uint64_t refUpstr(uint8_t *S, size_t N) {
  ref_upstr(S, N);
  return 0;
}

// m3s is a scalar kernel; the driver scrambles every 32-bit word of the
// buffer (identical driver on both sides, so the comparison isolates the
// kernel + call).
inline uint64_t genM3s(uint8_t *S, size_t N) {
  uint64_t Acc = 0;
  for (size_t I = 0; I + 4 <= N; I += 4) {
    uint32_t K;
    std::memcpy(&K, S + I, 4);
    Acc ^= relc_m3s(K);
  }
  return Acc;
}
inline uint64_t refM3s(uint8_t *S, size_t N) {
  uint64_t Acc = 0;
  for (size_t I = 0; I + 4 <= N; I += 4) {
    uint32_t K;
    std::memcpy(&K, S + I, 4);
    Acc ^= ref_m3s(K);
  }
  return Acc;
}

inline uint64_t genIp(uint8_t *S, size_t N) {
  return relc_ip_chk(uintptr_t(S), N);
}
inline uint64_t refIp(uint8_t *S, size_t N) { return ref_ip_chk(S, N); }

inline uint64_t genFasta(uint8_t *S, size_t N) {
  relc_fasta(uintptr_t(S), N);
  return 0;
}
inline uint64_t refFasta(uint8_t *S, size_t N) {
  ref_fasta(S, N);
  return 0;
}

inline uint64_t genCrc32(uint8_t *S, size_t N) {
  return relc_crc32(uintptr_t(S), N);
}
inline uint64_t refCrc32(uint8_t *S, size_t N) { return ref_crc32(S, N); }

inline const Kernel kKernels[] = {
    {"fnv1a", randomBytes, genFnv1a, refFnv1a, false, 0},
    {"utf8", utf8Bytes, genUtf8, refUtf8, false, 4},
    {"upstr", asciiBytes, genUpstr, refUpstr, true, 0},
    {"m3s", randomBytes, genM3s, refM3s, false, 0},
    {"ip", randomBytes, genIp, refIp, false, 0},
    {"fasta", dnaBytes, genFasta, refFasta, true, 0},
    {"crc32", randomBytes, genCrc32, refCrc32, false, 0},
};

} // namespace relc_bench

#endif // RELC_BENCH_FIG2_KERNELS_H
