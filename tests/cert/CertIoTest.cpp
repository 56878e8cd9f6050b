//===- tests/cert/CertIoTest.cpp - Certificate serialization roundtrip -----===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// cert::Writer and cert::Reader against each other: a certificate
// survives a write/parse roundtrip field-for-field; legacy v1 files,
// malformed or too deeply nested text, and any other schema version are
// rejected with the right named reason.
//
//===----------------------------------------------------------------------===//

#include "cert/Reader.h"
#include "cert/Writer.h"

#include <gtest/gtest.h>

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
  return C;
}

TEST(CertIoTest, WriteParseRoundtrip) {
  cert::Certificate C = sampleCert();
  std::string Text = cert::Writer::write(C);

  cert::ReadError Err;
  std::optional<cert::Certificate> R = cert::Reader::parse(Text, &Err);
  ASSERT_TRUE(R.has_value()) << Err.Detail;

  EXPECT_EQ(R->SchemaVersion, cert::kSchemaVersion);
  EXPECT_EQ(R->Producer, cert::kProducer);
  EXPECT_EQ(R->Function, "crc32");
  EXPECT_TRUE(R->Key == C.Key);
  EXPECT_EQ(R->Verdict, "proved");
  EXPECT_TRUE(R->proved());

  ASSERT_EQ(R->Loops.size(), 1u);
  EXPECT_EQ(R->Loops[0].Binding, "acc");
  EXPECT_EQ(R->Loops[0].Path, "2");
  EXPECT_EQ(R->Loops[0].FoldHash, 0xdeadbeefcafef00dull);
  EXPECT_EQ(R->Loops[0].Carried, 2u);
  EXPECT_EQ(R->Loops[0].Regions, 1u);
  EXPECT_EQ(R->Loops[0].WitnessLocals, C.Loops[0].WitnessLocals);
  EXPECT_EQ(R->Loops[0].WitnessRegions, C.Loops[0].WitnessRegions);
  EXPECT_EQ(R->Loops[0].TargetPath, "3");

  ASSERT_EQ(R->Bindings.size(), 2u);
  EXPECT_EQ(R->Bindings[1].Path, "1.then.0");
  EXPECT_EQ(R->Bindings[1].Name, "y,z");
  EXPECT_EQ(R->Bindings[1].Hash, 0x1020304050607080ull);

  ASSERT_EQ(R->Outputs.size(), 1u);
  EXPECT_EQ(R->Outputs[0].Name, "ret");
  EXPECT_EQ(R->Outputs[0].Kind, "scalar");
  EXPECT_TRUE(R->Outputs[0].Matched);
  EXPECT_EQ(R->Outputs[0].SrcHash, 0xfeedface12345678ull);
  EXPECT_EQ(R->Outputs[0].SourceBinding, "4");
  EXPECT_EQ(R->Outputs[0].TargetPath, "7");

  // Reserialization is byte-identical: parse is the inverse of write.
  EXPECT_EQ(cert::Writer::write(*R), Text);
}

TEST(CertIoTest, CodelintSectionRoundtrips) {
  cert::Certificate C = sampleCert();
  cert::CodelintRec L;
  L.Version = 1;
  L.Mem = "safe";
  L.Stack = "safe";
  L.Steps = "unknown";
  L.Accesses = 3;
  L.LocalsBytes = 40;
  L.ScratchBytes = 16;
  L.OperandDepth = 0;
  L.StepBound = 0x12345678abcull;
  C.Codelint = L;

  std::string Text = cert::Writer::write(C);
  cert::ReadError Err;
  std::optional<cert::Certificate> R = cert::Reader::parse(Text, &Err);
  ASSERT_TRUE(R.has_value()) << Err.Detail;
  ASSERT_TRUE(R->Codelint.has_value());
  EXPECT_TRUE(*R->Codelint == L);
  EXPECT_EQ(cert::Writer::write(*R), Text);

  // The section is genuinely optional: without it, nothing is emitted and
  // nothing is parsed back.
  cert::Certificate Plain = sampleCert();
  std::optional<cert::Certificate> RP =
      cert::Reader::parse(cert::Writer::write(Plain));
  ASSERT_TRUE(RP.has_value());
  EXPECT_FALSE(RP->Codelint.has_value());

  // Malformed section shapes are malformed, not silently dropped.
  std::string Bad = Text;
  size_t Pos = Bad.find("\"codelint\": {");
  ASSERT_NE(Pos, std::string::npos);
  Bad.replace(Pos, std::string("\"codelint\": {").size(), "\"codelint\": [");
  cert::ReadError BadErr;
  EXPECT_FALSE(cert::Reader::parse(Bad, &BadErr).has_value());
  EXPECT_EQ(cert::rejectName(BadErr.Why), std::string("malformed-certificate"));
}

TEST(CertIoTest, WriterIsCanonical) {
  cert::Certificate C = sampleCert();
  EXPECT_EQ(cert::Writer::write(C), cert::Writer::write(C));
  // The fixed key order puts identity before traces.
  std::string Text = cert::Writer::write(C);
  EXPECT_LT(Text.find("\"schema_version\""), Text.find("\"producer\""));
  EXPECT_LT(Text.find("\"producer\""), Text.find("\"model_hash\""));
  EXPECT_LT(Text.find("\"verdict\""), Text.find("\"loops\""));
  EXPECT_LT(Text.find("\"loops\""), Text.find("\"bindings\""));
  EXPECT_LT(Text.find("\"bindings\""), Text.find("\"outputs\""));
}

TEST(CertIoTest, EscapedStringsRoundtrip) {
  cert::Certificate C = sampleCert();
  C.Reason = "line\nbreak \"quoted\" back\\slash";
  C.Verdict = "inconclusive";
  std::optional<cert::Certificate> R =
      cert::Reader::parse(cert::Writer::write(C));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Reason, C.Reason);
  EXPECT_FALSE(R->proved());
}

TEST(CertIoTest, LegacyV1IsMalformed) {
  std::string V1 = R"({
  "format": "relc-tv-certificate-v1",
  "function": "fnv1a",
  "verdict": "proved",
  "reason": "",
  "num_terms": 12,
  "loops": [
    {"ordinal": 0, "binding": "h", "fold_hash": "0x00000000000000aa",
     "carried": 1, "regions": 0}
  ],
  "bindings": [
    {"path": "0", "name": "h", "hash": "0x00000000000000bb"}
  ],
  "outputs": [
    {"name": "ret", "kind": "scalar", "matched": true,
     "src_hash": "0x00000000000000cc", "tgt_hash": "0x00000000000000cc",
     "source_binding": "1", "target_path": "2"}
  ]
})";
  // No "schema_version" at all: not a certificate this checker reads.
  cert::ReadError Err;
  EXPECT_FALSE(cert::Reader::parse(V1, &Err).has_value());
  EXPECT_EQ(Err.Why, cert::Reject::MalformedCertificate);

  // A current-shaped file claiming schema_version 1 is a version
  // mismatch, and the detail does not call the older version newer.
  std::string Old = cert::Writer::write(sampleCert());
  size_t Pos = Old.find("\"schema_version\": 3");
  ASSERT_NE(Pos, std::string::npos);
  Old.replace(Pos, std::string("\"schema_version\": 3").size(),
              "\"schema_version\": 1");
  EXPECT_FALSE(cert::Reader::parse(Old, &Err).has_value());
  EXPECT_EQ(Err.Why, cert::Reject::UnknownSchemaVersion);
  EXPECT_NE(Err.Detail.find("schema_version 1 is older"), std::string::npos)
      << Err.Detail;
}

TEST(CertIoTest, FutureSchemaVersionIsNamedDistinctly) {
  std::string Future = "{\"schema_version\": 99, \"producer\": \"x\"}";
  cert::ReadError Err;
  EXPECT_FALSE(cert::Reader::parse(Future, &Err).has_value());
  EXPECT_EQ(Err.Why, cert::Reject::UnknownSchemaVersion);
  EXPECT_NE(Err.Detail.find("schema_version 99 is newer"), std::string::npos)
      << Err.Detail;
}

TEST(CertIoTest, MalformedInputsAreMalformed) {
  const char *Cases[] = {
      "",                                  // empty
      "not json",                          // garbage
      "[1, 2, 3]",                         // not an object
      "{\"schema_version\": 2",            // truncated
      "{\"schema_version\": 2} trailing",  // trailing garbage
      "{\"unrelated\": true}",             // no version, no format tag
      "{\"schema_version\": \"2\"}",       // version not a number
  };
  for (const char *Text : Cases) {
    cert::ReadError Err;
    EXPECT_FALSE(cert::Reader::parse(Text, &Err).has_value()) << Text;
    EXPECT_EQ(Err.Why, cert::Reject::MalformedCertificate) << Text;
  }
}

TEST(CertIoTest, DeepNestingIsMalformedNotACrash) {
  // Two million unclosed brackets: the parser must refuse at its depth cap
  // and name the offset, not recurse until the stack runs out.
  cert::ReadError Err;
  EXPECT_FALSE(
      cert::Reader::parse(std::string(2000000, '['), &Err).has_value());
  EXPECT_EQ(Err.Why, cert::Reject::MalformedCertificate);
  EXPECT_EQ(Err.Detail, "nesting deeper than 32 levels at offset 32");

  // The cap counts objects and arrays alike, and 32 levels still parse
  // (into a value that is not a certificate).
  std::string Objects;
  for (int I = 0; I < 33; ++I)
    Objects += "{\"a\": ";
  EXPECT_FALSE(cert::Reader::parse(Objects, &Err).has_value());
  EXPECT_EQ(Err.Why, cert::Reject::MalformedCertificate);
  EXPECT_NE(Err.Detail.find("nesting deeper than 32 levels"),
            std::string::npos)
      << Err.Detail;
  EXPECT_FALSE(cert::Reader::parse(std::string(32, '[') + std::string(32, ']'),
                                   &Err)
                   .has_value());
  EXPECT_EQ(Err.Detail, "certificate is not a JSON object");
}

TEST(CertIoTest, TruncatedWriterOutputIsMalformed) {
  std::string Text = cert::Writer::write(sampleCert());
  // Chop mid-structure: every prefix that is not the whole file fails to
  // parse (spot-check a few cut points).
  for (size_t Cut : {Text.size() / 4, Text.size() / 2, Text.size() - 3}) {
    cert::ReadError Err;
    EXPECT_FALSE(
        cert::Reader::parse(Text.substr(0, Cut), &Err).has_value());
    EXPECT_EQ(Err.Why, cert::Reject::MalformedCertificate);
  }
}

TEST(CertIoTest, RejectNamesAreStableKebabCase) {
  EXPECT_STREQ(cert::rejectName(cert::Reject::MissingCertificate),
               "missing-certificate");
  EXPECT_STREQ(cert::rejectName(cert::Reject::UnknownSchemaVersion),
               "unknown-schema-version");
  EXPECT_STREQ(cert::rejectName(cert::Reject::StaleModel), "stale-model");
  EXPECT_STREQ(cert::rejectName(cert::Reject::LoopWitnessMismatch),
               "loop-witness-mismatch");
  EXPECT_STREQ(cert::rejectName(cert::Reject::RederivationFailed),
               "rederivation-failed");
}

} // namespace
