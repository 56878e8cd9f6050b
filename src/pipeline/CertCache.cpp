//===- pipeline/CertCache.cpp - Content-addressed certificate cache --------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "pipeline/CertCache.h"

#include "support/Bytes.h"
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

using hash::hex16;

namespace {

/// Leading magic of the binary cache image. Distinct from the certificate
/// image magic (cert/Binary.h "RELCCERT"): a cache entry *contains* a
/// certificate image but is not one, and neither reader should ever
/// accept the other's files.
constexpr char CacheBinMagic[8] = {'R', 'E', 'L', 'C', 'C', 'A', 'C', 'H'};
constexpr uint32_t CacheBinVersion = 1;

/// Every field after the version, in order: the one statement of the
/// entry layout, run by a bytes::Writer to encode and by a bytes::Reader
/// to decode.
template <class Dir, class Key, class Entry>
void fields(Dir &IO, Key &K, Entry &E) {
  IO.u64(K.ModelHash);
  IO.u64(K.SpecHash);
  IO.u64(K.CodeHash);
  IO.u64(E.OptsHash);
  IO.str64(E.Program);
  IO.flag(E.ReplayOk);
  IO.flag(E.AnalysisOk);
  IO.u64(E.AnalysisWarnings);
  IO.str64(E.AnalysisDiags);
  IO.flag(E.TvRan);
  IO.str64(E.TvVerdict);
  IO.u64(E.TvLoops);
  IO.u64(E.TvTerms);
  IO.str64(E.TvCertificate);
  IO.str64(E.TvCertBin);
  IO.flag(E.CodelintRan);
  IO.str64(E.CodelintVerdict);
  IO.flag(E.DifferentialOk);
}

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
  bytes::putU32(Out, CacheBinVersion);
  bytes::Writer W(Out);
  fields(W, Key, E);
  bytes::seal(Out);
  return Out;
}

std::optional<CertEntry> CertCache::deserializeBin(const std::string &Image,
                                                   CertKey *KeyOut) {
  constexpr size_t HeaderSize = sizeof(CacheBinMagic) + 4;
  constexpr size_t TrailerSize = 8;
  if (Image.size() < HeaderSize + TrailerSize)
    return std::nullopt;
  if (std::memcmp(Image.data(), CacheBinMagic, sizeof(CacheBinMagic)) != 0)
    return std::nullopt;
  // Integrity first: everything after this is trusted to be the bytes a
  // writer produced, so field decoding can't be confused by corruption —
  // only by a version it doesn't speak, which is checked next.
  if (!bytes::sealed(Image))
    return std::nullopt;
  if (bytes::loadU32(Image.data() + sizeof(CacheBinMagic)) != CacheBinVersion)
    return std::nullopt;

  bytes::Reader R(std::string_view(Image).substr(
      HeaderSize, Image.size() - HeaderSize - TrailerSize));
  CertKey Key;
  CertEntry E;
  fields(R, Key, E);
  if (!R.done())
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
