//===- tests/pipeline/AllocCountTest.cpp - Warm-path allocation bounds ----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The point of the binary cache image is that a warm hit costs O(1)
// allocations regardless of how large the embedded certificate grew —
// one exact-sized string per field, no parsing. These tests pin that
// property with the bench_common.h counting hook: this is the one TU of
// this binary that defines RELC_BENCH_COUNT_ALLOCS, so global operator
// new feeds allocCount().
//
// The bounds are deliberately generous (a libstdc++ upgrade may shift
// small constants); what must NOT pass is an accidental reintroduction
// of payload-proportional work on the binary path.
//
//===----------------------------------------------------------------------===//

#define RELC_BENCH_COUNT_ALLOCS
#include "bench_common.h"

#include "pipeline/CertCache.h"

#include "gtest/gtest.h"

#include <optional>
#include <string>

using namespace relc;
using namespace relc::pipeline;
using relc_bench::allocationsDuring;

namespace {

CertKey sampleKey() {
  CertKey K;
  K.ModelHash = 0x1111111111111111ULL;
  K.SpecHash = 0x2222222222222222ULL;
  K.CodeHash = 0x3333333333333333ULL;
  return K;
}

/// An entry whose certificate payloads scale with \p PayloadSize; the
/// image carries the quote/newline mix verbatim.
CertEntry sampleEntry(size_t PayloadSize) {
  CertEntry E;
  E.OptsHash = 0x4444444444444444ULL;
  E.Program = "alloc-probe";
  E.ReplayOk = true;
  E.AnalysisOk = true;
  E.AnalysisWarnings = 1;
  E.AnalysisDiags = "w: note\n";
  E.TvRan = true;
  E.TvVerdict = "equivalent";
  E.TvLoops = 3;
  E.TvTerms = 99;
  std::string Payload;
  Payload.reserve(PayloadSize);
  while (Payload.size() < PayloadSize)
    Payload += "{\"step\": \"rewrite\", \"term\": \"(f x)\"}\n";
  Payload.resize(PayloadSize);
  E.TvCertificate = Payload;
  E.TvCertBin = std::string("RELCCERT\x00\x01", 10) + Payload;
  E.CodelintRan = true;
  E.CodelintVerdict = "clean";
  E.DifferentialOk = true;
  return E;
}

/// Allocations performed by one binary-image load. The lambda stays free
/// of gtest machinery so only the deserializer is counted; validity is
/// asserted by the caller afterwards.
uint64_t binLoadAllocs(const std::string &Image, bool *OkOut) {
  bool Ok = false;
  uint64_t N = allocationsDuring([&] {
    std::optional<CertEntry> E = CertCache::deserializeBin(Image);
    Ok = E.has_value();
  });
  *OkOut = Ok;
  return N;
}

TEST(AllocCountTest, HookIsCountingAtAll) {
  uint64_t N = allocationsDuring([] {
    std::string S(4096, 'x');
    // Defeat any heroic optimizer: observe the buffer.
    volatile char C = S[1];
    (void)C;
  });
  EXPECT_GE(N, 1u);
}

TEST(AllocCountTest, BinLoadIsConstantAllocationsInPayloadSize) {
  CertKey K = sampleKey();
  std::string Small = CertCache::serializeBin(K, sampleEntry(64));
  std::string Large = CertCache::serializeBin(K, sampleEntry(1 << 20));

  bool OkSmall = false, OkLarge = false;
  uint64_t NSmall = binLoadAllocs(Small, &OkSmall);
  uint64_t NLarge = binLoadAllocs(Large, &OkLarge);
  ASSERT_TRUE(OkSmall);
  ASSERT_TRUE(OkLarge);

  // O(1): a small fixed budget, and growing the payload 16000x must not
  // move the count beyond trivial slack (SSO boundaries on tiny fields).
  EXPECT_LE(NSmall, 32u) << "binary load allocates more than O(1)";
  EXPECT_LE(NLarge, 32u) << "binary load allocates more than O(1)";
  uint64_t Delta = NLarge > NSmall ? NLarge - NSmall : NSmall - NLarge;
  EXPECT_LE(Delta, 4u) << "binary load allocations scale with payload size";
}

TEST(AllocCountTest, BinLoadRoundTripsWhileCounted) {
  // Counting must not perturb correctness: the loaded entry matches what
  // was stored, byte for byte on every string field.
  CertKey K = sampleKey();
  CertEntry In = sampleEntry(4096);
  CertKey KOut;
  std::optional<CertEntry> Out =
      CertCache::deserializeBin(CertCache::serializeBin(K, In), &KOut);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(KOut.ModelHash, K.ModelHash);
  EXPECT_EQ(KOut.SpecHash, K.SpecHash);
  EXPECT_EQ(KOut.CodeHash, K.CodeHash);
  EXPECT_EQ(Out->Program, In.Program);
  EXPECT_EQ(Out->TvCertificate, In.TvCertificate);
  EXPECT_EQ(Out->TvCertBin, In.TvCertBin);
  EXPECT_EQ(Out->CodelintVerdict, In.CodelintVerdict);
}

} // namespace
