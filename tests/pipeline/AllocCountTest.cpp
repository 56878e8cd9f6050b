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
// The same hook bounds the FunLang reference interpreter, which the
// differential layer runs on every vector: allocations per extra input
// byte stay a small constant, so no loop iteration copies the
// environment (a per-iteration copy costs several allocations per
// iteration, each holding the whole input list).
//
//===----------------------------------------------------------------------===//

#define RELC_BENCH_COUNT_ALLOCS
#include "bench_common.h"

#include "ir/Interp.h"
#include "pipeline/CertCache.h"
#include "programs/Programs.h"

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

/// Allocations of one reference-model run of suite program \p Name on
/// \p Len random bytes; the arguments are built outside the count.
uint64_t modelEvalAllocs(const std::string &Name, size_t Len) {
  const programs::ProgramDef *P = programs::findProgram(Name);
  Rng R(0x5eed);
  std::vector<ir::Value> Args = {ir::Value::byteList(R.bytes(Len)),
                                 ir::Value::word(Len)};
  bool Ok = false;
  uint64_t N = allocationsDuring([&] {
    ir::EffectCtx Ctx;
    Ok = bool(ir::evalFn(P->Model, Args, Ctx));
  });
  EXPECT_TRUE(Ok) << Name << " at " << Len << " bytes";
  return N;
}

TEST(AllocCountTest, ModelEvalAllocationsPerInputByteAreBounded) {
  // utf8 walks its input in a while loop, ip in a ranged_for over byte
  // pairs: the two loop forms the differential layer spends its time in.
  const struct {
    const char *Program;
    double MaxPerByte;
  } Cases[] = {{"utf8", 4.0}, {"ip", 1.0}};
  for (const auto &C : Cases) {
    uint64_t Small = modelEvalAllocs(C.Program, 1000);
    uint64_t Large = modelEvalAllocs(C.Program, 4000);
    double PerByte = (double(Large) - double(Small)) / 3000.0;
    EXPECT_LE(PerByte, C.MaxPerByte)
        << C.Program << ": " << Small << " allocations at 1000 bytes, "
        << Large << " at 4000";
  }
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
