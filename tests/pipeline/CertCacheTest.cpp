//===- tests/pipeline/CertCacheTest.cpp - Certificate cache ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "pipeline/CertCache.h"
#include "pipeline/Pipeline.h"
#include "support/Fault.h"
#include "support/Hash.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

// fork() is unsupported under ThreadSanitizer; detect it for both
// compilers (clang: __has_feature, gcc: __SANITIZE_THREAD__).
#if defined(__SANITIZE_THREAD__)
#define RELC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RELC_UNDER_TSAN 1
#endif
#endif
#ifndef RELC_UNDER_TSAN
#define RELC_UNDER_TSAN 0
#endif

using namespace relc;
using namespace relc::pipeline;
using hash::fnv1a64;
using hash::hex16;
using hash::parseHex;

namespace {

/// A unique scratch directory per test, removed on destruction.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Name) {
    Path = (std::filesystem::temp_directory_path() /
            ("relc-cache-test-" + Name))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

CertKey sampleKey() {
  CertKey K;
  K.ModelHash = 0x1111aaaa2222bbbbULL;
  K.SpecHash = 0x3333cccc4444ddddULL;
  K.CodeHash = 0x5555eeee6666ffffULL;
  return K;
}

CertEntry sampleEntry() {
  CertEntry E;
  E.Program = "upstr";
  E.OptsHash = 0xdeadbeefcafef00dULL;
  E.ReplayOk = true;
  E.AnalysisOk = true;
  E.AnalysisWarnings = 2;
  E.AnalysisDiags = "warning: dead store to 'x'\nwarning: unreachable";
  E.TvRan = true;
  E.TvVerdict = "proved";
  E.TvLoops = 1;
  E.TvTerms = 42;
  E.TvCertificate = "{\n  \"verdict\": \"proved\"\n}\n";
  // Arbitrary non-printable bytes: the binary payload must survive the
  // cache byte-for-byte without any escaping contortions.
  E.TvCertBin = std::string("RELCCERT\x00\x01\xff\nimage", 16);
  E.DifferentialOk = true;
  return E;
}

TEST(CertCacheTest, Fnv1a64IsStableAndChainable) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  // Chaining two halves equals hashing the concatenation.
  EXPECT_EQ(fnv1a64("world", fnv1a64("hello ")), fnv1a64("hello world"));
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(CertCacheTest, Hex16RoundTrips) {
  for (uint64_t V : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    std::string S = hex16(V);
    EXPECT_EQ(S.size(), 16u);
    uint64_t Back = 0;
    ASSERT_TRUE(parseHex(S, &Back)) << S;
    EXPECT_EQ(Back, V);
  }
  uint64_t X;
  EXPECT_FALSE(parseHex("not-hex-not-hex!", &X));
  EXPECT_FALSE(parseHex("", &X));
  EXPECT_FALSE(parseHex("00000000000000000", &X)); // 17 digits: too long.
}

TEST(CertCacheTest, StoreThenLookupHits) {
  TempDir D("roundtrip");
  CertCache Cache(D.Path);
  CacheStats Stats;
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry(), &Stats)));
  EXPECT_EQ(Stats.Stores, 1u);

  std::optional<CertEntry> E =
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(E->TvCertificate, sampleEntry().TvCertificate);
}

TEST(CertCacheTest, AnyKeyComponentChangeMisses) {
  TempDir D("keymiss");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));

  for (int Component = 0; Component < 3; ++Component) {
    CertKey K = sampleKey();
    (Component == 0   ? K.ModelHash
     : Component == 1 ? K.SpecHash
                      : K.CodeHash) ^= 1;
    CacheStats Stats;
    EXPECT_FALSE(Cache.lookup(K, sampleEntry().OptsHash, &Stats).has_value());
    EXPECT_EQ(Stats.Misses, 1u);
    EXPECT_EQ(Stats.CorruptDiscarded, 0u);
  }
}

TEST(CertCacheTest, OptionsHashMismatchMisses) {
  TempDir D("optsmiss");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  CacheStats Stats;
  EXPECT_FALSE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash ^ 1, &Stats)
          .has_value());
  EXPECT_EQ(Stats.Misses, 1u);
  // The entry itself is fine — it stays on disk.
  EXPECT_TRUE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats).has_value());
}

TEST(CertCacheTest, CorruptedEntryDiscardedDeletedAndRederivable) {
  TempDir D("corrupt");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));

  // Corrupt the entry's one file on disk.
  std::string Path = D.Path + "/" + sampleKey().fileStem() + ".cert.bin";
  {
    std::ofstream Out(Path, std::ios::app | std::ios::binary);
    Out << "garbage\n";
  }

  CacheStats Stats;
  EXPECT_FALSE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats).has_value());
  EXPECT_EQ(Stats.CorruptDiscarded, 1u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 0u);
  // The poisoned file is gone; a fresh store + lookup works again.
  EXPECT_FALSE(std::filesystem::exists(Path));
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  EXPECT_TRUE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats).has_value());
}

TEST(CertCacheTest, BinImageRoundTripsAndIsByteStable) {
  CertKey K = sampleKey();
  CertEntry E = sampleEntry();
  std::string Image = CertCache::serializeBin(K, E);
  EXPECT_EQ(Image, CertCache::serializeBin(K, E));

  CertKey K2;
  std::optional<CertEntry> E2 = CertCache::deserializeBin(Image, &K2);
  ASSERT_TRUE(E2.has_value());
  EXPECT_TRUE(K2 == K);
  EXPECT_EQ(E2->Program, E.Program);
  EXPECT_EQ(E2->OptsHash, E.OptsHash);
  EXPECT_EQ(E2->AnalysisWarnings, E.AnalysisWarnings);
  EXPECT_EQ(E2->AnalysisDiags, E.AnalysisDiags);
  EXPECT_EQ(E2->TvVerdict, E.TvVerdict);
  EXPECT_EQ(E2->TvLoops, E.TvLoops);
  EXPECT_EQ(E2->TvTerms, E.TvTerms);
  EXPECT_EQ(E2->TvCertificate, E.TvCertificate);
  EXPECT_EQ(E2->TvCertBin, E.TvCertBin);
  EXPECT_EQ(E2->DifferentialOk, E.DifferentialOk);
}

TEST(CertCacheTest, BinImageBytesArePinned) {
  // The entry image's exact bytes, by length and FNV-1a/64: a layout
  // change that moves one byte fails here, and so would every warm run
  // against a cache an older build filled. Decoding the pinned bytes and
  // encoding the result gives them back.
  std::string Image = CertCache::serializeBin(sampleKey(), sampleEntry());
  EXPECT_EQ(Image.size(), 229u);
  EXPECT_EQ(hex16(fnv1a64(Image)), hex16(0x727e9e38ecb90c1aULL));
  CertKey K;
  std::optional<CertEntry> E = CertCache::deserializeBin(Image, &K);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(CertCache::serializeBin(K, *E), Image);
}

TEST(CertCacheTest, BinImageAnyFlippedBitFailsIntegrity) {
  std::string Image = CertCache::serializeBin(sampleKey(), sampleEntry());
  // Flip one bit at a spread of positions — magic, header, payload,
  // trailer — and every time the image must be refused whole.
  for (size_t At : {size_t(0), size_t(9), Image.size() / 2,
                    Image.size() - 1}) {
    std::string Tampered = Image;
    Tampered[At] = char(Tampered[At] ^ 0x10);
    EXPECT_FALSE(CertCache::deserializeBin(Tampered).has_value()) << At;
  }
  // Truncations and extensions fail too.
  EXPECT_FALSE(
      CertCache::deserializeBin(Image.substr(0, Image.size() - 1))
          .has_value());
  EXPECT_FALSE(CertCache::deserializeBin(Image + "x").has_value());
  EXPECT_FALSE(CertCache::deserializeBin("").has_value());
}

TEST(CertCacheTest, WarmHitIsServedFromBinImage) {
  TempDir D("bin-hit");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  CacheStats Stats;
  std::optional<CertEntry> E =
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.BinHits, 1u);
  EXPECT_EQ(E->TvCertBin, sampleEntry().TvCertBin);
}

TEST(CertCacheTest, StoreWritesExactlyOneEntryFile) {
  TempDir D("one-file");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  std::vector<std::string> Names;
  for (const auto &Ent : std::filesystem::directory_iterator(D.Path))
    Names.push_back(Ent.path().filename().string());
  EXPECT_EQ(Names,
            std::vector<std::string>{sampleKey().fileStem() + ".cert.bin"});
}

/// The JSON entry ("relc-cert-cache-v1") older relc versions wrote beside
/// each image, integrity hash included: a file those versions would have
/// served as a hit.
std::string legacyJsonEntry(const CertKey &K, const CertEntry &E) {
  auto Field = [](const std::string &S) {
    return std::to_string(S.size()) + ":" + S + ";";
  };
  auto Bit = [](bool B) { return std::string(B ? "1" : "0"); };
  auto Bool = [](bool B) { return std::string(B ? "true" : "false"); };
  std::string Payload =
      Field("relc-cert-cache-v1") + Field(K.fileStem()) + Field(E.Program) +
      Field(hex16(E.OptsHash)) + Field(Bit(E.ReplayOk)) +
      Field(Bit(E.AnalysisOk)) + Field(std::to_string(E.AnalysisWarnings)) +
      Field(E.AnalysisDiags) + Field(Bit(E.TvRan)) + Field(E.TvVerdict) +
      Field(std::to_string(E.TvLoops)) + Field(std::to_string(E.TvTerms)) +
      Field(E.TvCertificate) + Field(Bit(E.DifferentialOk)) +
      Field(Bit(E.CodelintRan)) + Field(E.CodelintVerdict);
  auto Str = [](const std::string &S) {
    std::string Q = "\"";
    Q += jsonEscape(S);
    return Q += '"';
  };
  std::pair<const char *, std::string> Fields[] = {
      {"analysis_diags", Str(E.AnalysisDiags)},
      {"analysis_ok", Bool(E.AnalysisOk)},
      {"analysis_warnings", std::to_string(E.AnalysisWarnings)},
      {"code_hash", Str(hex16(K.CodeHash))},
      {"codelint_ran", Bool(E.CodelintRan)},
      {"codelint_verdict", Str(E.CodelintVerdict)},
      {"differential_ok", Bool(E.DifferentialOk)},
      {"format", Str("relc-cert-cache-v1")},
      {"integrity", Str(hex16(fnv1a64(Payload)))},
      {"model_hash", Str(hex16(K.ModelHash))},
      {"opts_hash", Str(hex16(E.OptsHash))},
      {"program", Str(E.Program)},
      {"replay_ok", Bool(E.ReplayOk)},
      {"spec_hash", Str(hex16(K.SpecHash))},
      {"tv_certificate", Str(E.TvCertificate)},
      {"tv_loops", std::to_string(E.TvLoops)},
      {"tv_ran", Bool(E.TvRan)},
      {"tv_terms", std::to_string(E.TvTerms)},
      {"tv_verdict", Str(E.TvVerdict)},
  };
  std::string J = "{\n";
  for (const auto &[Name, Value] : Fields)
    J += std::string("  \"") + Name + "\": " + Value +
         (Name == std::string("tv_verdict") ? "\n" : ",\n");
  return J + "}\n";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(CertCacheTest, LegacyJsonOnlyEntryMissesAndRecertifies) {
  // A stale entry can only miss: a cache directory holding nothing but the
  // .cert.json an older relc wrote for this exact key is never read. The
  // program is re-certified live, stored as its image, and every artifact
  // is byte-identical to a cold run's.
  std::vector<const programs::ProgramDef *> Prog = {
      programs::findProgram("fnv1a")};
  TempDir ColdDir("legacy-cold"), D("legacy");
  PipelineOptions Opts;
  Opts.CacheDir = ColdDir.Path;
  std::vector<ProgramOutcome> Cold = certifyPrograms(Prog, Opts);
  ASSERT_TRUE(Cold[0].ok()) << Cold[0].ValidationError;
  std::string Stem = Cold[0].Key.fileStem();
  std::optional<CertEntry> Entry = CertCache::deserializeBin(
      readFile(ColdDir.Path + "/" + Stem + ".cert.bin"));
  ASSERT_TRUE(Entry.has_value());

  std::filesystem::create_directories(D.Path);
  std::string Legacy = D.Path + "/" + Stem + ".cert.json";
  std::string LegacyText = legacyJsonEntry(Cold[0].Key, *Entry);
  std::ofstream(Legacy, std::ios::binary) << LegacyText;

  Opts.CacheDir = D.Path;
  PipelineStats Stats;
  std::vector<ProgramOutcome> Out = certifyPrograms(Prog, Opts, &Stats);
  ASSERT_TRUE(Out[0].ok()) << Out[0].ValidationError;
  EXPECT_FALSE(Out[0].CacheHit);
  EXPECT_TRUE(Out[0].Tv.Ran && Out[0].Diff.Ran);
  EXPECT_EQ(Stats.Cache.Hits, 0u);
  EXPECT_EQ(Stats.Cache.Misses, 1u);
  EXPECT_EQ(Stats.Cache.Stores, 1u);
  EXPECT_EQ(Stats.Cache.CorruptDiscarded, 0u);
  EXPECT_EQ(Out[0].TvCertJson, Cold[0].TvCertJson);
  EXPECT_EQ(Out[0].TvCertBin, Cold[0].TvCertBin);
  EXPECT_EQ(readFile(D.Path + "/" + Stem + ".cert.bin"),
            readFile(ColdDir.Path + "/" + Stem + ".cert.bin"));
  EXPECT_EQ(readFile(Legacy), LegacyText); // Never read, never touched.
}

TEST(CertCacheTest, CorruptBinImageMissesWithoutJsonFallback) {
  // Older relc versions served a corrupt image's entry from its .cert.json
  // sibling. Now the image is the entry: a corrupt one is deleted, counted,
  // and misses, even with an intact legacy JSON entry beside it.
  TempDir D("bin-no-fallback");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  std::string Stem = sampleKey().fileStem();
  std::string BinPath = D.Path + "/" + Stem + ".cert.bin";
  std::string Legacy = D.Path + "/" + Stem + ".cert.json";
  std::string LegacyText = legacyJsonEntry(sampleKey(), sampleEntry());
  std::ofstream(Legacy, std::ios::binary) << LegacyText;
  {
    std::ofstream Out(BinPath, std::ios::app | std::ios::binary);
    Out << "garbage";
  }
  CacheStats Stats;
  EXPECT_FALSE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats).has_value());
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.BinHits, 0u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.CorruptDiscarded, 1u);
  EXPECT_FALSE(std::filesystem::exists(BinPath));
  EXPECT_EQ(readFile(Legacy), LegacyText);
}

TEST(CertCacheTest, MisfiledEntryDiscarded) {
  // An integral entry stored under the wrong filename (e.g. a manually
  // renamed file) must not be trusted: the recorded key disagrees.
  TempDir D("misfiled");
  CertCache Cache(D.Path);
  CertKey Wrong = sampleKey();
  Wrong.CodeHash ^= 0xff;
  std::filesystem::create_directories(D.Path);
  std::string Path = D.Path + "/" + Wrong.fileStem() + ".cert.bin";
  std::ofstream(Path, std::ios::binary)
      << CertCache::serializeBin(sampleKey(), sampleEntry());

  CacheStats Stats;
  EXPECT_FALSE(Cache.lookup(Wrong, sampleEntry().OptsHash, &Stats).has_value());
  EXPECT_EQ(Stats.CorruptDiscarded, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST(CertCacheTest, DisabledCacheAlwaysMisses) {
  CertCache Cache("");
  EXPECT_FALSE(Cache.enabled());
  CacheStats Stats;
  EXPECT_TRUE(bool(Cache.store(sampleKey(), sampleEntry(), &Stats)));
  EXPECT_EQ(Stats.Stores, 0u);
  EXPECT_FALSE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats).has_value());
  EXPECT_EQ(Stats.Misses, 1u);
}

//===----------------------------------------------------------------------===//
// Crash- and concurrency-safety (ISSUE 5): unique temp names, stale-temp
// sweeping, fault-injected I/O, and multi-process exclusion.
//===----------------------------------------------------------------------===//

unsigned countTemps(const std::string &Dir) {
  unsigned N = 0;
  std::error_code EC;
  for (const auto &Ent : std::filesystem::directory_iterator(Dir, EC)) {
    std::string Name = Ent.path().filename().string();
    if (Name.find(".cert.json.tmp") != std::string::npos ||
        Name.find(".cert.bin.tmp") != std::string::npos)
      ++N;
  }
  return N;
}

TEST(CertCacheTest, StoreLeavesNoTempBehind) {
  TempDir D("no-temps");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  EXPECT_EQ(countTemps(D.Path), 0u);
  EXPECT_TRUE(Cache.lookup(sampleKey(), sampleEntry().OptsHash).has_value());
}

TEST(CertCacheTest, SweepRemovesOrphanedTempsOnly) {
  TempDir D("sweep");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  // Fake debris from a crashed writer: both the legacy fixed ".tmp" name
  // and the current unique-suffix shape.
  std::string Stem = sampleKey().fileStem();
  std::ofstream(D.Path + "/" + Stem + ".cert.json.tmp") << "torn";
  std::ofstream(D.Path + "/" + Stem + ".cert.json.tmp.12345.0") << "torn";
  std::ofstream(D.Path + "/" + Stem + ".cert.bin.tmp.12345.1") << "torn";
  EXPECT_EQ(countTemps(D.Path), 3u);
  // MaxAge 0: sweep unconditionally.
  EXPECT_EQ(Cache.sweepStaleTemps(std::chrono::seconds(0)), 3u);
  EXPECT_EQ(countTemps(D.Path), 0u);
  // The real entry survived.
  EXPECT_TRUE(Cache.lookup(sampleKey(), sampleEntry().OptsHash).has_value());
}

TEST(CertCacheTest, SweepSparesYoungTemps) {
  TempDir D("sweep-young");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  std::string Stem = sampleKey().fileStem();
  std::ofstream(D.Path + "/" + Stem + ".cert.bin.tmp.999.0") << "inflight";
  // A just-written temp may belong to a live writer: the default
  // conservative age must not touch it.
  EXPECT_EQ(Cache.sweepStaleTemps(), 0u);
  EXPECT_EQ(countTemps(D.Path), 1u);
}

TEST(CertCacheTest, TransientWriteFaultAbsorbedByRetry) {
  TempDir D("write-transient");
  CertCache Cache(D.Path);
  fault::ScopedFaults Armed("cache-write:transient:n=2");
  CacheStats Stats;
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry(), &Stats)));
  EXPECT_EQ(Stats.Stores, 1u);
  EXPECT_EQ(countTemps(D.Path), 0u);
  EXPECT_TRUE(Cache.lookup(sampleKey(), sampleEntry().OptsHash).has_value());
}

TEST(CertCacheTest, PersistentWriteFaultFailsNamedAndClean) {
  TempDir D("write-persistent");
  CertCache Cache(D.Path);
  fault::ScopedFaults Armed("cache-write:persistent");
  Status S = Cache.store(sampleKey(), sampleEntry());
  ASSERT_FALSE(bool(S));
  std::string Text = S.error().str();
  EXPECT_NE(Text.find("failed after 4 attempts"), std::string::npos);
  EXPECT_NE(Text.find("injected persistent cache-write fault"),
            std::string::npos);
  EXPECT_EQ(countTemps(D.Path), 0u); // No debris on failure.
}

TEST(CertCacheTest, PersistentReadFaultDegradesToMiss) {
  TempDir D("read-fault");
  CertCache Cache(D.Path);
  ASSERT_TRUE(bool(Cache.store(sampleKey(), sampleEntry())));
  fault::ScopedFaults Armed("cache-read:persistent");
  CacheStats Stats;
  // A read fault costs a re-derivation, never a wrong verdict: plain miss.
  EXPECT_FALSE(
      Cache.lookup(sampleKey(), sampleEntry().OptsHash, &Stats).has_value());
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.CorruptDiscarded, 0u); // The entry is fine; not deleted.
}

TEST(CertCacheTest, OpenSweepsStaleTemps) {
  TempDir D("open-sweep");
  std::filesystem::create_directories(D.Path);
  std::string Stale = D.Path + "/" + sampleKey().fileStem() +
                      ".cert.json.tmp.424242.7";
  std::ofstream(Stale) << "torn";
  // Age the file past the conservative on-open threshold.
  std::filesystem::last_write_time(
      Stale, std::filesystem::file_time_type::clock::now() -
                 std::chrono::hours(2));
  CertCache Cache(D.Path);
  EXPECT_EQ(countTemps(D.Path), 0u);
}

#if !defined(_WIN32) && !RELC_UNDER_TSAN
TEST(CertCacheTest, MultiProcessWritersNeverTearEntries) {
  // Several processes hammer the same key concurrently; every writer
  // either succeeds atomically or fails cleanly, and the surviving entry
  // always parses with a valid integrity hash. (fork() is unsupported
  // under TSan, hence the guard above.)
  TempDir D("multiproc");
  CertCache Parent(D.Path);
  constexpr int Writers = 8, Rounds = 25;
  std::vector<pid_t> Pids;
  for (int W = 0; W < Writers; ++W) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Child: distinct Program text per writer makes torn mixes visible.
      CertCache Cache(D.Path);
      CertEntry E = sampleEntry();
      E.Program = "writer" + std::to_string(W);
      bool AllOk = true;
      for (int R = 0; R < Rounds; ++R)
        AllOk = AllOk && bool(Cache.store(sampleKey(), E));
      _exit(AllOk ? 0 : 1);
    }
    Pids.push_back(Pid);
  }
  for (pid_t Pid : Pids) {
    int WStatus = 0;
    ASSERT_EQ(waitpid(Pid, &WStatus, 0), Pid);
    EXPECT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
  }
  // Whatever interleaving happened, the entry on disk is whole.
  CertKey K;
  std::optional<CertEntry> E = CertCache::deserializeBin(
      readFile(D.Path + "/" + sampleKey().fileStem() + ".cert.bin"), &K);
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(K == sampleKey());
  EXPECT_EQ(E->Program.rfind("writer", 0), 0u);
  EXPECT_EQ(countTemps(D.Path), 0u);
}
#endif

} // namespace
