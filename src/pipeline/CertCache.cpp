//===- pipeline/CertCache.cpp - Content-addressed certificate cache --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "pipeline/CertCache.h"

#include "support/Fault.h"
#include "support/Hash.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <thread>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace relc {
namespace pipeline {

using hash::fnv1a64;
using hash::hex16;

namespace {

/// Leading magic of the binary cache image. Distinct from the certificate
/// image magic (cert/Binary.h "RELCCERT"): a cache entry *contains* a
/// certificate image but is not one, and neither reader should ever
/// accept the other's files.
constexpr char CacheBinMagic[8] = {'R', 'E', 'L', 'C', 'C', 'A', 'C', 'H'};
constexpr uint32_t CacheBinVersion = 1;

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(char(uint8_t(V >> (8 * I))));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(char(uint8_t(V >> (8 * I))));
}

void putStr(std::string &Out, const std::string &S) {
  putU64(Out, S.size());
  Out += S;
}

/// Bounds-checked forward reader over a binary cache image. Any
/// out-of-range length flips Failed and pins the cursor; callers check
/// once at the end instead of after every field.
struct BinCursor {
  const char *Base;
  size_t Len, At = 0;
  bool Failed = false;

  explicit BinCursor(std::string_view Image)
      : Base(Image.data()), Len(Image.size()) {}

  const char *take(size_t N) {
    if (Failed || N > Len - At) { // At <= Len always, so no overflow.
      Failed = true;
      return nullptr;
    }
    const char *P = Base + At;
    At += N;
    return P;
  }
  uint32_t u32() {
    const char *P = take(4);
    uint32_t V = 0;
    if (P)
      for (int I = 0; I < 4; ++I)
        V |= uint32_t(uint8_t(P[I])) << (8 * I);
    return V;
  }
  uint64_t u64() {
    const char *P = take(8);
    uint64_t V = 0;
    if (P)
      for (int I = 0; I < 8; ++I)
        V |= uint64_t(uint8_t(P[I])) << (8 * I);
    return V;
  }
  bool u8() {
    const char *P = take(1);
    return P && *P == 1;
  }
  std::string str() {
    uint64_t N = u64();
    if (!Failed && N > Len - At) {
      Failed = true;
      return std::string();
    }
    const char *P = take(size_t(N));
    return P ? std::string(P, size_t(N)) : std::string();
  }
};

/// Reads \p Path in one pre-sized gulp — the warm path avoids the
/// stringstream growth dance (and its allocations).
bool readWholeFile(const std::string &Path, std::string *Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::error_code EC;
  uintmax_t Sz = std::filesystem::file_size(Path, EC);
  if (EC)
    return false;
  Out->resize(size_t(Sz));
  return Sz == 0 || bool(In.read(Out->data(), std::streamsize(Sz)));
}

/// A temp-file suffix no two writers share: pid distinguishes processes,
/// the counter distinguishes threads/attempts within one.
std::string uniqueTempSuffix() {
  static std::atomic<uint64_t> Counter{0};
#ifdef _WIN32
  uint64_t Pid = uint64_t(_getpid());
#else
  uint64_t Pid = uint64_t(getpid());
#endif
  return ".tmp." + std::to_string(Pid) + "." +
         std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

CertCache::CertCache(std::string Dir) : Dir(std::move(Dir)) {
  if (enabled())
    sweepStaleTemps();
}

std::string CertKey::fileStem() const {
  return hex16(ModelHash) + "-" + hex16(SpecHash) + "-" + hex16(CodeHash);
}

std::string CertCache::binPathFor(const CertKey &Key) const {
  return Dir + "/" + Key.fileStem() + ".cert.bin";
}

std::string CertCache::serializeBin(const CertKey &Key, const CertEntry &E) {
  std::string Out;
  Out.reserve(128 + E.AnalysisDiags.size() + E.TvCertificate.size() +
              E.TvCertBin.size());
  Out.append(CacheBinMagic, sizeof(CacheBinMagic));
  putU32(Out, CacheBinVersion);
  putU64(Out, Key.ModelHash);
  putU64(Out, Key.SpecHash);
  putU64(Out, Key.CodeHash);
  putU64(Out, E.OptsHash);
  putStr(Out, E.Program);
  Out.push_back(E.ReplayOk ? 1 : 0);
  Out.push_back(E.AnalysisOk ? 1 : 0);
  putU64(Out, E.AnalysisWarnings);
  putStr(Out, E.AnalysisDiags);
  Out.push_back(E.TvRan ? 1 : 0);
  putStr(Out, E.TvVerdict);
  putU64(Out, E.TvLoops);
  putU64(Out, E.TvTerms);
  putStr(Out, E.TvCertificate);
  putStr(Out, E.TvCertBin);
  Out.push_back(E.CodelintRan ? 1 : 0);
  putStr(Out, E.CodelintVerdict);
  Out.push_back(E.DifferentialOk ? 1 : 0);
  putU64(Out, fnv1a64(Out));
  return Out;
}

std::optional<CertEntry> CertCache::deserializeBin(const std::string &Image,
                                                   CertKey *KeyOut) {
  constexpr size_t MinSize = sizeof(CacheBinMagic) + 4 + 8;
  if (Image.size() < MinSize)
    return std::nullopt;
  if (std::memcmp(Image.data(), CacheBinMagic, sizeof(CacheBinMagic)) != 0)
    return std::nullopt;
  // Integrity first: everything after this is trusted to be the bytes a
  // writer produced, so field decoding can't be confused by corruption —
  // only by a version it doesn't speak, which is checked next.
  std::string_view Body(Image.data(), Image.size() - 8);
  uint64_t Stored = 0;
  for (int I = 0; I < 8; ++I)
    Stored |= uint64_t(uint8_t(Image[Image.size() - 8 + size_t(I)]))
              << (8 * I);
  if (fnv1a64(Body) != Stored)
    return std::nullopt;

  BinCursor C(Body);
  C.take(sizeof(CacheBinMagic));
  if (C.u32() != CacheBinVersion)
    return std::nullopt;
  CertKey Key;
  CertEntry E;
  Key.ModelHash = C.u64();
  Key.SpecHash = C.u64();
  Key.CodeHash = C.u64();
  E.OptsHash = C.u64();
  E.Program = C.str();
  E.ReplayOk = C.u8();
  E.AnalysisOk = C.u8();
  E.AnalysisWarnings = C.u64();
  E.AnalysisDiags = C.str();
  E.TvRan = C.u8();
  E.TvVerdict = C.str();
  E.TvLoops = C.u64();
  E.TvTerms = C.u64();
  E.TvCertificate = C.str();
  E.TvCertBin = C.str();
  E.CodelintRan = C.u8();
  E.CodelintVerdict = C.str();
  E.DifferentialOk = C.u8();
  if (C.Failed || C.At != C.Len)
    return std::nullopt; // Short fields or trailing garbage: re-derive.
  if (KeyOut)
    *KeyOut = Key;
  return E;
}

std::optional<CertEntry> CertCache::lookup(const CertKey &Key,
                                           uint64_t OptsHash,
                                           CacheStats *Stats) const {
  auto Miss = [&]() -> std::optional<CertEntry> {
    if (Stats)
      ++Stats->Misses;
    return std::nullopt;
  };
  if (!enabled())
    return Miss();

  // Fault site: lookup I/O. Transient hits are absorbed by fireWithRetry
  // (a real transient read error would be retried the same way); a
  // persistent one degrades to a miss — the verdict is simply re-derived,
  // which costs time, never soundness.
  if (fault::fireWithRetry(fault::Site::CacheRead, Key.fileStem()))
    return Miss();

  std::string Path = binPathFor(Key);
  std::string Image;
  if (!readWholeFile(Path, &Image))
    return Miss();

  CertKey StoredKey;
  std::optional<CertEntry> E = deserializeBin(Image, &StoredKey);
  if (!E || !(StoredKey == Key)) {
    // Undecodable, integrity-failed, or misfiled: discard, never trust.
    std::error_code EC;
    std::filesystem::remove(Path, EC);
    if (Stats)
      ++Stats->CorruptDiscarded;
    return Miss();
  }
  if (E->OptsHash != OptsHash)
    return Miss(); // Same inputs, different validation options.
  if (Stats) {
    ++Stats->Hits;
    ++Stats->BinHits;
  }
  return E;
}

Status CertCache::store(const CertKey &Key, const CertEntry &Entry,
                        CacheStats *Stats) const {
  if (!enabled())
    return Status::success();
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return Error("certificate cache: cannot create '" + Dir +
                 "': " + EC.message());

  const std::string Path = binPathFor(Key);
  const std::string Image = serializeBin(Key, Entry);

  // Bounded retry with backoff: transient I/O failures (and injected
  // transient cache-write faults) are absorbed; each attempt uses a fresh
  // uniquely named temp file and cleans it up on failure, so a concurrent
  // writer of the same key can never observe — or clobber — our temp.
  constexpr unsigned MaxAttempts = 4;
  std::string LastErr;
  for (unsigned A = 0; A < MaxAttempts; ++A) {
    if (A > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1u << (A - 1)));
    if (auto H = fault::fire(fault::Site::CacheWrite, Key.fileStem())) {
      LastErr = H->describe();
      continue;
    }
    std::string Tmp = Path + uniqueTempSuffix();
    {
      std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
      if (!Out) {
        LastErr = "cannot open '" + Tmp + "' for writing";
        continue;
      }
      Out << Image;
      if (!Out.flush()) {
        LastErr = "write to '" + Tmp + "' failed";
        std::filesystem::remove(Tmp, EC);
        continue;
      }
    }
    std::filesystem::rename(Tmp, Path, EC);
    if (EC) {
      LastErr = "cannot rename '" + Tmp + "' into place: " + EC.message();
      std::filesystem::remove(Tmp, EC);
      continue;
    }
    if (Stats)
      ++Stats->Stores;
    return Status::success();
  }
  return Error("certificate cache: store of '" + Key.fileStem() +
               "' failed after " + std::to_string(MaxAttempts) +
               " attempts: " + LastErr);
}

unsigned CertCache::sweepStaleTemps(std::chrono::seconds MaxAge) const {
  if (!enabled())
    return 0;
  std::error_code EC;
  std::filesystem::directory_iterator It(Dir, EC);
  if (EC)
    return 0;
  unsigned Removed = 0;
  const auto Now = std::filesystem::file_time_type::clock::now();
  for (const auto &Ent : It) {
    std::string Name = Ent.path().filename().string();
    // Current writers produce "<stem>.cert.bin.tmp.<pid>.<n>"; older
    // versions also produced "<stem>.cert.json.tmp.<pid>.<n>" and
    // "<stem>.cert.json.tmp". All are debris once their writer is gone.
    if (Name.find(".cert.json.tmp") == std::string::npos &&
        Name.find(".cert.bin.tmp") == std::string::npos)
      continue;
    auto MTime = std::filesystem::last_write_time(Ent.path(), EC);
    if (EC)
      continue; // Racing writer just renamed it away; not ours to sweep.
    if (Now - MTime < MaxAge)
      continue; // Possibly a live writer's in-flight temp.
    if (std::filesystem::remove(Ent.path(), EC) && !EC)
      ++Removed;
  }
  return Removed;
}

} // namespace pipeline
} // namespace relc
