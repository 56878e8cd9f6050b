//===- tests/cert/RederiveTest.cpp - Independent checker + tamper corpus ---===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The heart of the trust story: cert::Rederive must accept every
// certificate the pipeline emits for the suite, and reject every entry of
// a tamper corpus — bit-flipped hashes, reordered or truncated traces,
// forged witnesses, stale content keys, downgraded/foreign schema
// versions, a stripped codelint section, a foreign producer — each with
// its specific named reason. An accept-everything checker or a
// wrong-reason rejection fails here, and so does a resealed bit flip of
// the binary image that is accepted but renders differently.
//
//===----------------------------------------------------------------------===//

#include "cert/Binary.h"
#include "cert/Reader.h"
#include "cert/Rederive.h"
#include "cert/Writer.h"
#include "codelint/Codelint.h"
#include "programs/Programs.h"
#include "support/Bytes.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

using namespace relc;

namespace {

/// A compiled program plus its freshly produced certificate: the TV
/// report's records plus the genuine codelint section, as the pipeline's
/// certify job assembles them.
struct Produced {
  const programs::ProgramDef *P = nullptr;
  core::CompileResult Compiled;
  cert::Certificate Cert;
};

Produced produce(const char *Name) {
  Produced Out;
  Out.P = programs::findProgram(Name);
  EXPECT_NE(Out.P, nullptr) << Name;
  core::Compiler C;
  Result<core::CompileResult> R =
      C.compileFn(Out.P->Model, Out.P->Spec, Out.P->Hints);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  Out.Compiled = R.take();
  tv::TvReport Rep = tv::validateTranslation(
      Out.P->Model, Out.P->Spec, Out.Compiled.Fn, Out.P->Hints.EntryFacts);
  EXPECT_TRUE(Rep.proved()) << Rep.str();
  Out.Cert = cert::fromTvReport(
      Rep, cert::contentKey(Out.P->Model, Out.P->Hints.EntryFacts, Out.P->Spec,
                            Out.Compiled.Fn));
  Out.Cert.Codelint = cert::codelintRecOf(
      codelint::analyzeFunction(Out.Compiled.Fn, Out.P->Spec, Out.P->Model,
                                Out.P->Hints.EntryFacts));
  return Out;
}

cert::CheckResult check(const Produced &W, const cert::Certificate &C) {
  return cert::Rederive::check(C, W.P->Model, W.P->Hints.EntryFacts, W.P->Spec,
                               W.Compiled.Fn);
}

/// Expects rejection with exactly \p Why.
void expectReject(const Produced &W, const cert::Certificate &C,
                  cert::Reject Why, const char *Label) {
  cert::CheckResult R = check(W, C);
  EXPECT_FALSE(R.Accepted) << Label << ": tampered certificate accepted";
  if (!R.Accepted) {
    EXPECT_EQ(cert::rejectName(R.Why), std::string(cert::rejectName(Why)))
        << Label << ": " << R.Detail;
  }
}

TEST(RederiveTest, AcceptsEverySuiteCertificate) {
  unsigned N = 0;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    Produced W = produce(P.Name.c_str());
    cert::CheckResult R = check(W, W.Cert);
    EXPECT_TRUE(R.Accepted)
        << P.Name << ": " << cert::rejectName(R.Why) << ": " << R.Detail;
    ++N;
  }
  EXPECT_EQ(N, 7u);
}

TEST(RederiveTest, AcceptsAfterDiskRoundtrip) {
  // The on-disk path, as relc-check takes it: encode the image, decode it,
  // check, and render the JSON face the image stands for.
  Produced W = produce("crc32");
  cert::ReadError Err;
  std::optional<cert::Certificate> R =
      cert::BinReader::parse(cert::BinWriter::write(W.Cert), &Err);
  ASSERT_TRUE(R.has_value()) << Err.Detail;
  cert::CheckResult CR = check(W, *R);
  EXPECT_TRUE(CR.Accepted) << cert::rejectName(CR.Why) << ": " << CR.Detail;
  EXPECT_EQ(cert::Writer::write(*R), cert::Writer::write(W.Cert));
}

//===----------------------------------------------------------------------===//
// The tamper corpus. Every mutation of an accepted certificate must be
// rejected with its own named reason.
//===----------------------------------------------------------------------===//

TEST(RederiveTest, TamperBindingHashBitFlip) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Bindings.empty());
  cert::Certificate C = W.Cert;
  C.Bindings.back().Hash ^= 1;
  expectReject(W, C, cert::Reject::BindingTraceMismatch, "hash bit-flip");
}

TEST(RederiveTest, TamperBindingsReordered) {
  Produced W = produce("crc32");
  ASSERT_GE(W.Cert.Bindings.size(), 2u);
  cert::Certificate C = W.Cert;
  std::swap(C.Bindings[0], C.Bindings[1]);
  expectReject(W, C, cert::Reject::BindingTraceMismatch, "reorder");
}

TEST(RederiveTest, TamperBindingTraceTruncated) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Bindings.empty());
  cert::Certificate C = W.Cert;
  C.Bindings.pop_back();
  expectReject(W, C, cert::Reject::TruncatedTrace, "binding pop_back");
}

TEST(RederiveTest, TamperLoopRecordDropped) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Loops.empty());
  cert::Certificate C = W.Cert;
  C.Loops.pop_back();
  expectReject(W, C, cert::Reject::TruncatedTrace, "loop pop_back");
}

TEST(RederiveTest, TamperFoldHashFlip) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Loops.empty());
  cert::Certificate C = W.Cert;
  C.Loops[0].FoldHash ^= 1;
  expectReject(W, C, cert::Reject::LoopSummaryMismatch, "fold-hash flip");
}

TEST(RederiveTest, TamperWitnessLocalForged) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Loops.empty());
  ASSERT_FALSE(W.Cert.Loops[0].WitnessLocals.empty());
  cert::Certificate C = W.Cert;
  C.Loops[0].WitnessLocals[0] = "no_such_local";
  expectReject(W, C, cert::Reject::LoopWitnessMismatch, "forged local");
}

TEST(RederiveTest, TamperWitnessLocalsTruncated) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Loops.empty());
  ASSERT_FALSE(W.Cert.Loops[0].WitnessLocals.empty());
  cert::Certificate C = W.Cert;
  C.Loops[0].WitnessLocals.pop_back();
  expectReject(W, C, cert::Reject::LoopWitnessMismatch, "truncated witness");
}

TEST(RederiveTest, TamperWitnessTargetPath) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Loops.empty());
  cert::Certificate C = W.Cert;
  C.Loops[0].TargetPath = "9999";
  expectReject(W, C, cert::Reject::LoopWitnessMismatch, "wrong target path");
}

TEST(RederiveTest, TamperOutputHashFlip) {
  Produced W = produce("crc32");
  ASSERT_FALSE(W.Cert.Outputs.empty());
  cert::Certificate C = W.Cert;
  C.Outputs[0].SrcHash ^= 1;
  expectReject(W, C, cert::Reject::OutputMismatch, "output hash flip");
}

TEST(RederiveTest, TamperVerdictDowngrade) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Verdict = "inconclusive";
  expectReject(W, C, cert::Reject::VerdictNotProved, "verdict flip");
}

TEST(RederiveTest, TamperProducer) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Producer = "relc-tw";
  expectReject(W, C, cert::Reject::ProducerMismatch, "producer edit");
}

TEST(RederiveTest, TamperReasonOnProvedCertificate) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Reason = "x";
  expectReject(W, C, cert::Reject::ProvedWithReason, "reason added");
}

TEST(RederiveTest, TamperFunctionName) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Function = "fnv1a";
  expectReject(W, C, cert::Reject::FunctionMismatch, "function rename");
}

TEST(RederiveTest, TamperStaleContentHashes) {
  Produced W = produce("crc32");
  {
    cert::Certificate C = W.Cert;
    C.Key.ModelHash ^= 1;
    expectReject(W, C, cert::Reject::StaleModel, "model hash");
  }
  {
    cert::Certificate C = W.Cert;
    C.Key.SpecHash ^= 1;
    expectReject(W, C, cert::Reject::StaleSpec, "spec hash");
  }
  {
    cert::Certificate C = W.Cert;
    C.Key.CodeHash ^= 1;
    expectReject(W, C, cert::Reject::StaleCode, "code hash");
  }
}

TEST(RederiveTest, TamperSchemaDowngradeToV1) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.SchemaVersion = 1;
  expectReject(W, C, cert::Reject::UnknownSchemaVersion, "v1 downgrade");
}

TEST(RederiveTest, TamperSchemaFromTheFuture) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.SchemaVersion = 99;
  expectReject(W, C, cert::Reject::UnknownSchemaVersion, "future schema");
}

TEST(RederiveTest, TamperCertificateSwappedBetweenPrograms) {
  // fnv1a's (valid!) certificate presented for crc32: caught before any
  // replay by the identity pre-checks.
  Produced Crc = produce("crc32");
  Produced Fnv = produce("fnv1a");
  cert::CheckResult R = check(Crc, Fnv.Cert);
  EXPECT_FALSE(R.Accepted);
  EXPECT_EQ(R.Why, cert::Reject::FunctionMismatch) << R.Detail;
}

//===----------------------------------------------------------------------===//
// The codelint section: required, and rejected on any drift — the checker
// recomputes the whole analysis from the core library alone.
//===----------------------------------------------------------------------===//

TEST(RederiveTest, AcceptsGenuineCodelintSection) {
  Produced W = produce("crc32");
  ASSERT_TRUE(W.Cert.Codelint.has_value());
  EXPECT_EQ(W.Cert.Codelint->Mem, "safe");
  cert::CheckResult R = check(W, W.Cert);
  EXPECT_TRUE(R.Accepted) << cert::rejectName(R.Why) << ": " << R.Detail;
}

TEST(RederiveTest, TamperCodelintSectionStripped) {
  // A degraded codelint run writes no section; such a certificate claims
  // less than relc-gen certifies and is not accepted.
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Codelint.reset();
  expectReject(W, C, cert::Reject::MissingCodelint, "section stripped");
}

TEST(RederiveTest, TamperCodelintVerdictUpgradeForged) {
  // Claiming "safe" where the analyzer derives something else — or any
  // other verdict drift — must not survive re-derivation.
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Codelint->Steps = "unknown";
  expectReject(W, C, cert::Reject::CodelintMismatch, "verdict drift");
}

TEST(RederiveTest, TamperCodelintStepBoundFlip) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Codelint->StepBound ^= 1;
  expectReject(W, C, cert::Reject::CodelintMismatch, "step bound flip");
}

TEST(RederiveTest, TamperCodelintLocalsBytes) {
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Codelint->LocalsBytes += 8;
  expectReject(W, C, cert::Reject::CodelintMismatch, "locals bytes");
}

TEST(RederiveTest, TamperCodelintVersionForged) {
  // A section stamped with a foreign analyzer version cannot re-derive:
  // the checker always recomputes with the linked kCodelintVersion.
  Produced W = produce("crc32");
  cert::Certificate C = W.Cert;
  C.Codelint->Version = 99;
  expectReject(W, C, cert::Reject::CodelintMismatch, "version forge");
}

TEST(RederiveTest, TamperTextLevelBitFlipInHash) {
  // Tamper the serialized bytes, not the struct: flip one hex digit of
  // the first fold_hash in the JSON itself, reload, check.
  Produced W = produce("crc32");
  std::string Text = cert::Writer::write(W.Cert);
  size_t P = Text.find("\"fold_hash\": \"0x");
  ASSERT_NE(P, std::string::npos);
  size_t Digit = P + std::string("\"fold_hash\": \"0x").size();
  Text[Digit] = Text[Digit] == 'f' ? '0' : 'f';
  cert::ReadError Err;
  std::optional<cert::Certificate> C = cert::Reader::parse(Text, &Err);
  ASSERT_TRUE(C.has_value()) << Err.Detail;
  expectReject(W, *C, cert::Reject::LoopSummaryMismatch, "text-level flip");
}

TEST(RederiveTest, TamperJsonIntegerOverflowIsMalformed) {
  // A number past uint64_t, or past its field's width, is malformed: read
  // modulo 2^64 or narrowed to 32 bits, each of these edits of a genuine
  // certificate would decode as the genuine value and be accepted.
  Produced W = produce("fnv1a");
  std::string Text = cert::Writer::write(W.Cert);
  const std::pair<const char *, const char *> Edits[] = {
      {"schema_version", "18446744073709551618"}, // 2^64 + 2
      {"carried", "4294967298"},                  // 2^32 + 2
  };
  for (const auto &[Field, Value] : Edits) {
    std::string Key = std::string("\"") + Field + "\": ";
    size_t At = Text.find(Key);
    ASSERT_NE(At, std::string::npos) << Field;
    At += Key.size();
    std::string T = Text;
    T.replace(At, T.find_first_not_of("0123456789", At) - At, Value);
    cert::ReadError Err;
    EXPECT_FALSE(cert::Reader::parse(T, &Err).has_value()) << Field;
    EXPECT_EQ(cert::rejectName(Err.Why),
              std::string(cert::rejectName(cert::Reject::MalformedCertificate)))
        << Field << ": " << Err.Detail;
  }
}

//===----------------------------------------------------------------------===//
// Behind the seal. fnv1a64 is not a MAC: whoever edits an image can reseal
// it, so every decode and check path behind the seal is reachable.
//===----------------------------------------------------------------------===//

TEST(RederiveTest, ResealedBitFlipsAreRejectedOrRenderIdentically) {
  // Every byte of each suite image but the 8-byte seal, XORed with 0x01
  // and resealed. A mutant is either rejected by name — by the decoder or
  // by the checker — or decodes to a certificate whose canonical rendering
  // is the original's: nothing the checker accepts goes unchecked.
  unsigned Rejected = 0;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    Produced W = produce(P.Name.c_str());
    std::string Image = cert::BinWriter::write(W.Cert);
    std::string Want = cert::Writer::write(W.Cert);
    for (size_t I = 0; I + 8 < Image.size(); ++I) {
      std::string M = Image.substr(0, Image.size() - 8);
      M[I] = char(M[I] ^ 0x01);
      bytes::seal(M);
      cert::ReadError Err;
      std::optional<cert::Certificate> C = cert::BinReader::parse(M, &Err);
      cert::CheckResult R =
          C ? check(W, *C) : cert::CheckResult::reject(Err.Why, Err.Detail);
      if (!R.Accepted) {
        EXPECT_STRNE(cert::rejectName(R.Why), "?") << P.Name << " byte " << I;
        ++Rejected;
        continue;
      }
      EXPECT_EQ(cert::Writer::write(*C), Want)
          << P.Name << ": byte " << I
          << " flipped is accepted but renders differently";
    }
  }
  EXPECT_GT(Rejected, 0u);
}

} // namespace
