/*===- perfbench/kernels.c - gen-code's scalar kernel drivers -------------===
 *
 * Part of relc, a C++ reproduction of "Relational Compilation for
 * Performance-Critical Applications" (PLDI 2022).
 *
 * m3s is a scalar kernel: both sides scramble every 32-bit word of the
 * buffer through the same driver loop. The loops live here, compiled with
 * the kernels themselves (CMakeLists.txt), so their code alignment does
 * not move when the rest of the harness changes.
 *
 *===----------------------------------------------------------------------===*/

#include "ref_impls.h"
#include "relc_generated.h"

#include <string.h>

uint64_t perfbench_gen_m3s(const uint8_t *s, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i + 4 <= n; i += 4) {
    uint32_t k;
    memcpy(&k, s + i, 4);
    acc ^= relc_m3s(k);
  }
  return acc;
}

uint64_t perfbench_ref_m3s(const uint8_t *s, size_t n) {
  uint64_t acc = 0;
  for (size_t i = 0; i + 4 <= n; i += 4) {
    uint32_t k;
    memcpy(&k, s + i, 4);
    acc ^= ref_m3s(k);
  }
  return acc;
}
