//===- tests/cgen/GeneratedKernelsTest.cpp - Run the emitted C ------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The C pretty-printer is the one step after the certified Bedrock2 code
// that nothing validates, so this test runs what it printed: each of the
// seven kernels relc-gen emitted at build time against its handwritten
// bench/ref twin, through Figure 2's drivers. Return values must agree,
// and for the in-place kernels so must the whole buffer, including the
// bytes past the kernel's length. Inputs cover several lengths (at least
// each kernel's minimum) and a buffer holding every byte value at two
// alignments; every reference is total over bytes, so every kernel gets
// that buffer.
//
//===----------------------------------------------------------------------===//

#include "fig2_kernels.h"

#include <gtest/gtest.h>

#include <string>

using namespace relc_bench;

namespace {

/// Bytes past the kernel's length that it must leave alone.
constexpr size_t kSlack = 8;

class GeneratedKernelsTest : public ::testing::TestWithParam<std::string> {
protected:
  const Kernel &kernel() const {
    for (const Kernel &K : kKernels)
      if (GetParam() == K.Name)
        return K;
    std::abort();
  }

  /// Runs both sides over copies of \p In, with the first \p Len bytes as
  /// the kernel's input.
  static void expectSidesAgree(const Kernel &K, const std::vector<uint8_t> &In,
                               size_t Len, const std::string &What) {
    std::vector<uint8_t> G = In, R = In;
    EXPECT_EQ(K.RunGenerated(G.data(), Len), K.RunHandwritten(R.data(), Len))
        << K.Name << " on " << What;
    if (K.Mutates) {
      EXPECT_EQ(G, R) << K.Name << " on " << What;
    }
  }
};

TEST_P(GeneratedKernelsTest, MatchesReferenceOnSeededBuffers) {
  const Kernel &K = kernel();
  for (size_t Len : {0, 1, 7, 64, 4099}) {
    Len = std::max(Len, K.MinLen);
    for (uint64_t Seed : {1, 2, 3}) {
      const std::string What =
          std::to_string(Len) + " bytes, seed " + std::to_string(Seed);
      expectSidesAgree(K, K.MakeInput(Len + kSlack, Seed), Len,
                       "Figure 2's input, " + What);
      expectSidesAgree(K, randomBytes(Len + kSlack, Seed), Len,
                       "random bytes, " + What);
    }
  }
}

TEST_P(GeneratedKernelsTest, MatchesReferenceOnEveryByteValue) {
  const Kernel &K = kernel();
  constexpr size_t Len = 600;
  std::vector<uint8_t> In = randomBytes(Len + kSlack, 7);
  for (size_t Off : {0, 293})
    for (unsigned V = 0; V < 256; ++V)
      In[Off + V] = uint8_t(V);
  expectSidesAgree(K, In, Len, "every byte value at offsets 0 and 293");
}

std::vector<std::string> kernelNames() {
  std::vector<std::string> Names;
  for (const Kernel &K : kKernels)
    Names.push_back(K.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GeneratedKernelsTest, ::testing::ValuesIn(kernelNames()),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

} // namespace
