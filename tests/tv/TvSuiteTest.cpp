//===- tests/tv/TvSuiteTest.cpp - The suite proves, with certificates ------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// ISSUE acceptance: every one of the seven benchmark programs must come
// out of the compiler *Proved* equivalent to its model — zero escapes
// into Inconclusive — and the emitted certificate must be well formed.
//
//===----------------------------------------------------------------------===//

#include "cert/Writer.h"
#include "programs/Programs.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

using namespace relc;

namespace {

tv::TvReport validateProgram(const programs::ProgramDef &P,
                             cert::ContentKey *Key = nullptr) {
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  if (Key)
    *Key = cert::contentKey(P.Model, P.Hints.EntryFacts, P.Spec, R->Fn);
  return tv::validateTranslation(P.Model, P.Spec, R->Fn, P.Hints.EntryFacts);
}

TEST(TvSuiteTest, AllSevenProgramsProve) {
  unsigned N = 0;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    tv::TvReport Rep = validateProgram(P);
    EXPECT_TRUE(Rep.proved()) << Rep.str();
    ++N;
  }
  EXPECT_EQ(N, 7u);
}

TEST(TvSuiteTest, EveryOutputChannelMatches) {
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    tv::TvReport Rep = validateProgram(P);
    ASSERT_TRUE(Rep.proved()) << Rep.str();
    // The fnspec promises at least one output; all channels compared and
    // matched, each with a nonzero term hash on both sides.
    EXPECT_FALSE(Rep.Outputs.empty()) << P.Name;
    for (const tv::OutputRecord &O : Rep.Outputs) {
      EXPECT_TRUE(O.Matched) << P.Name << ": " << O.Name;
      EXPECT_EQ(O.SrcHash, O.TgtHash) << P.Name << ": " << O.Name;
      EXPECT_NE(O.SrcHash, 0u) << P.Name << ": " << O.Name;
    }
  }
}

TEST(TvSuiteTest, LoopyProgramsRecordMatchedFolds) {
  // Programs with source loops must carry matched loop records whose fold
  // hashes are per-loop distinct within a program.
  for (const char *Name : {"fnv1a", "crc32", "upstr", "utf8", "ip"}) {
    const programs::ProgramDef *P = programs::findProgram(Name);
    ASSERT_NE(P, nullptr);
    tv::TvReport Rep = validateProgram(*P);
    ASSERT_TRUE(Rep.proved()) << Rep.str();
    EXPECT_FALSE(Rep.Loops.empty()) << Name;
    for (size_t I = 0; I < Rep.Loops.size(); ++I) {
      EXPECT_EQ(Rep.Loops[I].Ordinal, unsigned(I));
      EXPECT_NE(Rep.Loops[I].FoldHash, 0u);
      for (size_t J = I + 1; J < Rep.Loops.size(); ++J)
        EXPECT_NE(Rep.Loops[I].FoldHash, Rep.Loops[J].FoldHash) << Name;
    }
  }
}

TEST(TvSuiteTest, CertificateIsMachineReadable) {
  const programs::ProgramDef *P = programs::findProgram("crc32");
  ASSERT_NE(P, nullptr);
  cert::ContentKey Key;
  tv::TvReport Rep = validateProgram(*P, &Key);
  ASSERT_TRUE(Rep.proved()) << Rep.str();
  std::string Cert = cert::Writer::write(cert::fromTvReport(Rep, Key));
  EXPECT_NE(Cert.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(Cert.find("\"producer\": \"relc-tv\""), std::string::npos);
  EXPECT_NE(Cert.find("\"verdict\": \"proved\""), std::string::npos);
  EXPECT_NE(Cert.find("\"function\": \"crc32\""), std::string::npos);
  EXPECT_NE(Cert.find("\"model_hash\""), std::string::npos);
  EXPECT_NE(Cert.find("\"fold_hash\""), std::string::npos);
  EXPECT_NE(Cert.find("\"witness\""), std::string::npos);
  EXPECT_NE(Cert.find("\"outputs\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy; the JSON only
  // nests via the fixed skeleton, and strings escape their delimiters).
  EXPECT_EQ(std::count(Cert.begin(), Cert.end(), '{'),
            std::count(Cert.begin(), Cert.end(), '}'));
  EXPECT_EQ(std::count(Cert.begin(), Cert.end(), '['),
            std::count(Cert.begin(), Cert.end(), ']'));
}

TEST(TvSuiteTest, CertificateIsDeterministic) {
  const programs::ProgramDef *P = programs::findProgram("fnv1a");
  ASSERT_NE(P, nullptr);
  cert::ContentKey KA, KB;
  tv::TvReport A = validateProgram(*P, &KA);
  tv::TvReport B = validateProgram(*P, &KB);
  // Same model + code -> same content key and byte-identical certificate
  // (cacheable; warm-cache runs must replay cold runs exactly).
  EXPECT_TRUE(KA == KB);
  EXPECT_EQ(cert::Writer::write(cert::fromTvReport(A, KA)),
            cert::Writer::write(cert::fromTvReport(B, KB)));
}

} // namespace
