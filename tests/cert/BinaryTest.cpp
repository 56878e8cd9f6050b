//===- tests/cert/BinaryTest.cpp - Binary image format + tamper corpus -----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The binary certificate image (cert/Binary.h) against its contract: a
// write/parse roundtrip is field-for-field lossless, the writer is
// canonical (byte-identical for equal certificates), the JSON and binary
// faces of one certificate decode — and rederive — identically over the
// whole suite, and a corpus of image-level tampering (truncation, bad
// magic, flipped integrity, future or older versions, escaping offsets) is
// rejected with each case's own stable named reason. The mmap'd image is
// untrusted input; a rejection must never become an acceptance.
//
//===----------------------------------------------------------------------===//

#include "cert/Binary.h"
#include "cert/Reader.h"
#include "cert/Rederive.h"
#include "cert/Writer.h"
#include "codelint/Codelint.h"
#include "programs/Programs.h"
#include "support/Hash.h"
#include "tv/Tv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace relc;

namespace {

cert::Certificate sampleCert() {
  cert::Certificate C;
  C.Function = "crc32";
  C.Key = {0x1111222233334444ull, 0x5555666677778888ull, 0x99990000aaaabbbbull};
  C.Verdict = "proved";
  C.Reason = "";

  cert::LoopRec L;
  L.Ordinal = 0;
  L.Binding = "acc";
  L.Path = "2";
  L.FoldHash = 0xdeadbeefcafef00dull;
  L.Carried = 2;
  L.Regions = 1;
  L.WitnessLocals = {"acc", "i"};
  L.WitnessRegions = {"out"};
  L.TargetPath = "3";
  C.Loops.push_back(L);

  C.Bindings.push_back({"0", "x", 0x0102030405060708ull});
  C.Bindings.push_back({"1.then.0", "y,z", 0x1020304050607080ull});

  cert::OutputRec O;
  O.Name = "ret";
  O.Kind = "scalar";
  O.SrcHash = O.TgtHash = 0xfeedface12345678ull;
  O.Matched = true;
  O.SourceBinding = "4";
  O.TargetPath = "7";
  C.Outputs.push_back(O);

  cert::CodelintRec K;
  K.Version = 1;
  K.Mem = "safe";
  K.Stack = "safe";
  K.Steps = "unknown";
  K.Accesses = 12;
  K.LocalsBytes = 40;
  K.ScratchBytes = 0;
  K.OperandDepth = 3;
  K.StepBound = 0;
  C.Codelint = K;
  return C;
}

/// Patches a little-endian u32/u64 into \p Image at \p At.
void patchU32(std::string &Image, size_t At, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Image[At + size_t(I)] = char(uint8_t(V >> (8 * I)));
}
void patchU64(std::string &Image, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Image[At + size_t(I)] = char(uint8_t(V >> (8 * I)));
}

/// Recomputes the trailing integrity hash after a deliberate header edit,
/// so the test reaches the check *behind* the integrity gate.
void resealIntegrity(std::string &Image) {
  patchU64(Image, Image.size() - 8,
           hash::fnv1a64(std::string_view(Image.data(), Image.size() - 8)));
}

void expectBinReject(const std::string &Image, cert::Reject Why,
                     const char *Label) {
  cert::ReadError Err;
  EXPECT_FALSE(cert::BinReader::parse(Image, &Err).has_value())
      << Label << ": tampered image accepted";
  EXPECT_EQ(cert::rejectName(Err.Why), std::string(cert::rejectName(Why)))
      << Label << ": " << Err.Detail;
}

TEST(CertBinaryTest, WriteParseRoundtripFieldForField) {
  cert::Certificate C = sampleCert();
  cert::ReadError Err;
  std::optional<cert::Certificate> R =
      cert::BinReader::parse(cert::BinWriter::write(C), &Err);
  ASSERT_TRUE(R.has_value()) << cert::rejectName(Err.Why) << ": "
                             << Err.Detail;
  EXPECT_EQ(R->SchemaVersion, C.SchemaVersion);
  EXPECT_EQ(R->Producer, C.Producer);
  EXPECT_EQ(R->Function, C.Function);
  EXPECT_EQ(R->Verdict, C.Verdict);
  EXPECT_EQ(R->Reason, C.Reason);
  EXPECT_EQ(R->Key.ModelHash, C.Key.ModelHash);
  EXPECT_EQ(R->Key.SpecHash, C.Key.SpecHash);
  EXPECT_EQ(R->Key.CodeHash, C.Key.CodeHash);
  ASSERT_EQ(R->Loops.size(), 1u);
  EXPECT_EQ(R->Loops[0].Binding, "acc");
  EXPECT_EQ(R->Loops[0].FoldHash, C.Loops[0].FoldHash);
  EXPECT_EQ(R->Loops[0].WitnessLocals, C.Loops[0].WitnessLocals);
  EXPECT_EQ(R->Loops[0].WitnessRegions, C.Loops[0].WitnessRegions);
  ASSERT_EQ(R->Bindings.size(), 2u);
  EXPECT_EQ(R->Bindings[1].Name, "y,z");
  EXPECT_EQ(R->Bindings[1].Hash, C.Bindings[1].Hash);
  ASSERT_EQ(R->Outputs.size(), 1u);
  EXPECT_EQ(R->Outputs[0].Kind, "scalar");
  EXPECT_TRUE(R->Outputs[0].Matched);
  ASSERT_TRUE(R->Codelint.has_value());
  EXPECT_EQ(R->Codelint->Steps, "unknown");
  EXPECT_EQ(R->Codelint->LocalsBytes, 40u);
}

TEST(CertBinaryTest, WriterIsCanonical) {
  // Equal certificates produce byte-identical images (deduplicated string
  // table, fixed field order) — the binary analogue of the JSON writer's
  // canonicality, required for warm/cold and -j N byte identity.
  cert::Certificate C = sampleCert();
  std::string A = cert::BinWriter::write(C);
  EXPECT_EQ(A, cert::BinWriter::write(sampleCert()));
  // Parse-then-rewrite is also a fixed point.
  std::optional<cert::Certificate> R = cert::BinReader::parse(A);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(cert::BinWriter::write(*R), A);
}

TEST(CertBinaryTest, JsonAndBinaryFacesDecodeIdentically) {
  cert::Certificate C = sampleCert();
  std::optional<cert::Certificate> FromJson =
      cert::Reader::parse(cert::Writer::write(C));
  std::optional<cert::Certificate> FromBin =
      cert::BinReader::parse(cert::BinWriter::write(C));
  ASSERT_TRUE(FromJson.has_value());
  ASSERT_TRUE(FromBin.has_value());
  // Field equality via the canonical JSON rendering of both decodes.
  EXPECT_EQ(cert::Writer::write(*FromJson), cert::Writer::write(*FromBin));
}

TEST(CertBinaryTest, ImageBytesArePinned) {
  // The image's exact bytes, with and without the codelint section, by
  // length and FNV-1a/64: a layout change that moves one byte fails here.
  // Decoding the pinned bytes and encoding the result gives them back.
  struct Pin {
    bool Codelint;
    size_t Size;
    uint64_t Fnv;
  };
  for (const Pin &P : {Pin{true, 436, 0xaffb65d55569579eull},
                      Pin{false, 357, 0x625f67596e58c93aull}}) {
    cert::Certificate C = sampleCert();
    if (!P.Codelint)
      C.Codelint.reset();
    std::string Image = cert::BinWriter::write(C);
    EXPECT_EQ(Image.size(), P.Size) << "codelint " << P.Codelint;
    EXPECT_EQ(hash::hex16(hash::fnv1a64(Image)), hash::hex16(P.Fnv))
        << "codelint " << P.Codelint;
    std::optional<cert::Certificate> R = cert::BinReader::parse(Image);
    ASSERT_TRUE(R.has_value()) << "codelint " << P.Codelint;
    EXPECT_EQ(cert::BinWriter::write(*R), Image) << "codelint " << P.Codelint;
  }
}

TEST(CertBinaryTest, ReadFileRoundtripsAndMissingFileIsNamed) {
  std::string Path =
      (std::filesystem::temp_directory_path() / "relc-bin-test.certbin")
          .string();
  std::string Image = cert::BinWriter::write(sampleCert());
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Image;
  }
  cert::ReadError Err;
  std::optional<cert::Certificate> R = cert::BinReader::readFile(Path, &Err);
  EXPECT_TRUE(R.has_value()) << Err.Detail;
  if (R) {
    EXPECT_EQ(cert::BinWriter::write(*R), Image);
  }
  std::remove(Path.c_str());

  EXPECT_FALSE(
      cert::BinReader::readFile("/nonexistent/x.certbin", &Err).has_value());
  EXPECT_EQ(Err.Why, cert::Reject::MissingCertificate);
}

//===----------------------------------------------------------------------===//
// The image-level tamper corpus: each way the mmap'd bytes can lie, pinned
// to its stable named rejection.
//===----------------------------------------------------------------------===//

TEST(CertBinaryTest, TamperTruncatedImage) {
  std::string Image = cert::BinWriter::write(sampleCert());
  // Below the magic, below the header, mid-payload, one byte short: every
  // truncation is named truncated-image.
  for (size_t Cut : {size_t(4), size_t(40), Image.size() / 2,
                     Image.size() - 1})
    expectBinReject(Image.substr(0, Cut), cert::Reject::TruncatedImage,
                    "truncation");
  // Trailing garbage breaks the declared size the same way.
  expectBinReject(Image + "x", cert::Reject::TruncatedImage, "extension");
  expectBinReject("", cert::Reject::TruncatedImage, "empty");
}

TEST(CertBinaryTest, TamperBadMagic) {
  std::string Image = cert::BinWriter::write(sampleCert());
  Image[0] = 'X';
  expectBinReject(Image, cert::Reject::BadMagic, "flipped magic byte");
  expectBinReject("{\n  \"schema_version\": 2\n}\n" + std::string(80, ' '),
                  cert::Reject::BadMagic, "JSON handed to the bin reader");
}

TEST(CertBinaryTest, TamperFlippedIntegrityHash) {
  std::string Image = cert::BinWriter::write(sampleCert());
  // Flip a bit in the trailer itself...
  std::string T = Image;
  T[T.size() - 3] = char(T[T.size() - 3] ^ 1);
  expectBinReject(T, cert::Reject::IntegrityMismatch, "trailer bit");
  // ...and a bit in the covered payload (caught before any record walk).
  T = Image;
  T[Image.size() / 2] = char(T[Image.size() / 2] ^ 1);
  expectBinReject(T, cert::Reject::IntegrityMismatch, "payload bit");
}

TEST(CertBinaryTest, TamperFutureVersionsAreNamed) {
  // Container version: checked before integrity (a future container may
  // hash differently), so no reseal needed.
  std::string Image = cert::BinWriter::write(sampleCert());
  patchU32(Image, 8, cert::kBinFormatVersion + 1);
  expectBinReject(Image, cert::Reject::UnknownSchemaVersion,
                  "future container version");
  // Certificate schema version: behind the integrity gate, so the forgery
  // must reseal to reach it — and is still refused.
  Image = cert::BinWriter::write(sampleCert());
  patchU32(Image, 12, 99);
  resealIntegrity(Image);
  expectBinReject(Image, cert::Reject::UnknownSchemaVersion,
                  "future schema version");
}

TEST(CertBinaryTest, TamperSchemaDowngradeIsNamed) {
  // The binary face follows the JSON face's rule: only kSchemaVersion is
  // readable, so an older version is refused at decode, not left for the
  // checker to catch.
  for (uint32_t Old : {0u, 1u, 2u}) {
    std::string Image = cert::BinWriter::write(sampleCert());
    patchU32(Image, 12, Old);
    resealIntegrity(Image);
    expectBinReject(Image, cert::Reject::UnknownSchemaVersion,
                    ("schema version " + std::to_string(Old)).c_str());
  }
}

TEST(CertBinaryTest, TamperOffsetOutOfRange) {
  // Records region escaping the image (header-level bounds).
  std::string Image = cert::BinWriter::write(sampleCert());
  patchU64(Image, 56, Image.size() * 2);
  resealIntegrity(Image);
  expectBinReject(Image, cert::Reject::OffsetOutOfRange,
                  "records length escapes");
  // String table shrunk to nothing: the first string reference escapes
  // (cursor-level bounds).
  Image = cert::BinWriter::write(sampleCert());
  patchU64(Image, 72, 0);
  resealIntegrity(Image);
  expectBinReject(Image, cert::Reject::OffsetOutOfRange,
                  "string reference escapes");
}

TEST(CertBinaryTest, BinRejectNamesAreStableKebabCase) {
  EXPECT_STREQ(cert::rejectName(cert::Reject::TruncatedImage),
               "truncated-image");
  EXPECT_STREQ(cert::rejectName(cert::Reject::IntegrityMismatch),
               "integrity-mismatch");
  EXPECT_STREQ(cert::rejectName(cert::Reject::BadMagic), "bad-magic");
  EXPECT_STREQ(cert::rejectName(cert::Reject::OffsetOutOfRange),
               "offset-out-of-range");
}

//===----------------------------------------------------------------------===//
// Suite-wide JSON <-> binary rederive equality: both faces of every
// program's certificate must decode identically and both must pass the
// independent checker.
//===----------------------------------------------------------------------===//

TEST(CertBinaryTest, SuiteCertificatesRederiveIdenticallyInBothFormats) {
  unsigned N = 0;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    core::Compiler C;
    Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
    ASSERT_TRUE(bool(R)) << P.Name;
    core::CompileResult Compiled = R.take();
    tv::TvReport Rep = tv::validateTranslation(P.Model, P.Spec, Compiled.Fn,
                                               P.Hints.EntryFacts);
    ASSERT_TRUE(Rep.proved()) << P.Name;
    cert::Certificate Cert = cert::fromTvReport(
        Rep,
        cert::contentKey(P.Model, P.Hints.EntryFacts, P.Spec, Compiled.Fn));
    Cert.Codelint = cert::codelintRecOf(codelint::analyzeFunction(
        Compiled.Fn, P.Spec, P.Model, P.Hints.EntryFacts));

    std::optional<cert::Certificate> FromJson =
        cert::Reader::parse(cert::Writer::write(Cert));
    std::optional<cert::Certificate> FromBin =
        cert::BinReader::parse(cert::BinWriter::write(Cert));
    ASSERT_TRUE(FromJson.has_value()) << P.Name;
    ASSERT_TRUE(FromBin.has_value()) << P.Name;
    EXPECT_EQ(cert::Writer::write(*FromJson), cert::Writer::write(*FromBin))
        << P.Name << ": the two faces decode differently";

    for (const cert::Certificate *Face :
         {&*FromJson, &*FromBin}) {
      cert::CheckResult CR = cert::Rederive::check(
          *Face, P.Model, P.Hints.EntryFacts, P.Spec, Compiled.Fn);
      EXPECT_TRUE(CR.Accepted) << P.Name << ": "
                               << cert::rejectName(CR.Why) << ": "
                               << CR.Detail;
    }
    ++N;
  }
  EXPECT_EQ(N, 7u);
}

} // namespace
