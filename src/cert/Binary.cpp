//===- cert/Binary.cpp - Zero-copy binary certificate image ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/Binary.h"

#include "support/Hash.h"

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace relc {
namespace cert {

namespace {

constexpr size_t kHeaderSize = 80;
constexpr size_t kTrailerSize = 8; // The integrity hash.

//===----------------------------------------------------------------------===//
// Encoding.
//===----------------------------------------------------------------------===//

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(char(uint8_t(V >> (8 * I))));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(char(uint8_t(V >> (8 * I))));
}

/// First-occurrence-deduplicated string table: equal Certificates always
/// produce byte-identical tables (and therefore images).
class StrTab {
public:
  void ref(std::string &Records, const std::string &S) {
    auto It = Offsets.find(S);
    if (It == Offsets.end()) {
      It = Offsets.emplace(S, uint32_t(Bytes.size())).first;
      Bytes += S;
    }
    putU32(Records, It->second);
    putU32(Records, uint32_t(S.size()));
  }
  const std::string &bytes() const { return Bytes; }

private:
  std::map<std::string, uint32_t> Offsets;
  std::string Bytes;
};

//===----------------------------------------------------------------------===//
// Decoding: a bounds-checked cursor over the records region. Every read
// validates before it dereferences — the image is untrusted input.
//===----------------------------------------------------------------------===//

struct Cursor {
  const uint8_t *Base = nullptr; ///< Records region start.
  size_t Len = 0;                ///< Records region length.
  size_t At = 0;
  const char *StrBase = nullptr; ///< String table start.
  size_t StrLen = 0;
  bool Failed = false;

  bool take(size_t N) {
    if (Failed || Len - At < N || At > Len) {
      Failed = true;
      return false;
    }
    return true;
  }

  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(Base[At + size_t(I)]) << (8 * I);
    At += 4;
    return V;
  }

  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= uint64_t(Base[At + size_t(I)]) << (8 * I);
    At += 8;
    return V;
  }

  uint8_t u8() {
    if (!take(1))
      return 0;
    return Base[At++];
  }

  std::string str() {
    uint32_t Off = u32();
    uint32_t N = u32();
    if (Failed)
      return {};
    // 64-bit sum: a 32-bit off+len cannot overflow into a false pass.
    if (uint64_t(Off) + uint64_t(N) > StrLen) {
      Failed = true;
      return {};
    }
    return std::string(StrBase + Off, N);
  }
};

std::optional<Certificate> failWith(ReadError *Err, Reject Why,
                                    std::string Detail) {
  if (Err) {
    Err->Why = Why;
    Err->Detail = std::move(Detail);
  }
  return std::nullopt;
}

} // namespace

//===----------------------------------------------------------------------===//
// BinWriter.
//===----------------------------------------------------------------------===//

std::string BinWriter::write(const Certificate &C) {
  StrTab Tab;
  std::string Rec;
  Rec.reserve(512);

  Tab.ref(Rec, C.Producer);
  Tab.ref(Rec, C.Function);
  Tab.ref(Rec, C.Verdict);
  Tab.ref(Rec, C.Reason);
  putU64(Rec, C.NumTerms);

  putU32(Rec, uint32_t(C.Loops.size()));
  for (const LoopRec &L : C.Loops) {
    putU32(Rec, L.Ordinal);
    putU32(Rec, L.Carried);
    putU32(Rec, L.Regions);
    putU64(Rec, L.FoldHash);
    Tab.ref(Rec, L.Binding);
    Tab.ref(Rec, L.Path);
    Tab.ref(Rec, L.TargetPath);
    putU32(Rec, uint32_t(L.WitnessLocals.size()));
    for (const std::string &W : L.WitnessLocals)
      Tab.ref(Rec, W);
    putU32(Rec, uint32_t(L.WitnessRegions.size()));
    for (const std::string &W : L.WitnessRegions)
      Tab.ref(Rec, W);
  }

  putU32(Rec, uint32_t(C.Bindings.size()));
  for (const BindingRec &B : C.Bindings) {
    Tab.ref(Rec, B.Path);
    Tab.ref(Rec, B.Name);
    putU64(Rec, B.Hash);
  }

  putU32(Rec, uint32_t(C.Outputs.size()));
  for (const OutputRec &O : C.Outputs) {
    Tab.ref(Rec, O.Name);
    Tab.ref(Rec, O.Kind);
    Rec.push_back(O.Matched ? 1 : 0);
    putU64(Rec, O.SrcHash);
    putU64(Rec, O.TgtHash);
    Tab.ref(Rec, O.SourceBinding);
    Tab.ref(Rec, O.TargetPath);
  }

  Rec.push_back(C.Codelint ? 1 : 0);
  if (C.Codelint) {
    const CodelintRec &K = *C.Codelint;
    putU32(Rec, K.Version);
    Tab.ref(Rec, K.Mem);
    Tab.ref(Rec, K.Stack);
    Tab.ref(Rec, K.Steps);
    putU64(Rec, K.Accesses);
    putU64(Rec, K.LocalsBytes);
    putU64(Rec, K.ScratchBytes);
    putU64(Rec, K.OperandDepth);
    putU64(Rec, K.StepBound);
  }

  const std::string &Strs = Tab.bytes();
  uint64_t Total = kHeaderSize + Rec.size() + Strs.size() + kTrailerSize;

  std::string Out;
  Out.reserve(size_t(Total));
  Out.append(kBinMagic, sizeof(kBinMagic));
  putU32(Out, kBinFormatVersion);
  putU32(Out, C.SchemaVersion);
  putU64(Out, Total);
  putU64(Out, C.Key.ModelHash);
  putU64(Out, C.Key.SpecHash);
  putU64(Out, C.Key.CodeHash);
  putU64(Out, kHeaderSize);              // Records offset.
  putU64(Out, Rec.size());               // Records length.
  putU64(Out, kHeaderSize + Rec.size()); // String table offset.
  putU64(Out, Strs.size());              // String table length.
  Out += Rec;
  Out += Strs;
  putU64(Out, hash::fnv1a64(Out));
  return Out;
}

//===----------------------------------------------------------------------===//
// BinReader.
//===----------------------------------------------------------------------===//

std::optional<Certificate> BinReader::parse(std::string_view Image,
                                            ReadError *Err) {
  // Validation order is part of the contract the tamper corpus pins:
  // magic, then declared size (truncation), then container/schema version,
  // then integrity, then the bounds-checked walk. Each check only reads
  // bytes the previous checks proved present.
  if (Image.size() < sizeof(kBinMagic))
    return failWith(Err, Reject::TruncatedImage,
                    "image of " + std::to_string(Image.size()) +
                        " bytes cannot hold the magic");
  if (std::memcmp(Image.data(), kBinMagic, sizeof(kBinMagic)) != 0)
    return failWith(Err, Reject::BadMagic,
                    "leading bytes are not a relc binary certificate");
  if (Image.size() < kHeaderSize + kTrailerSize)
    return failWith(Err, Reject::TruncatedImage,
                    "image of " + std::to_string(Image.size()) +
                        " bytes cannot hold the header");

  auto U32At = [&](size_t At) {
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(uint8_t(Image[At + size_t(I)])) << (8 * I);
    return V;
  };
  auto U64At = [&](size_t At) {
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= uint64_t(uint8_t(Image[At + size_t(I)])) << (8 * I);
    return V;
  };

  uint64_t Total = U64At(16);
  if (Total != Image.size())
    return failWith(Err, Reject::TruncatedImage,
                    "image declares " + std::to_string(Total) +
                        " bytes but holds " + std::to_string(Image.size()));

  uint32_t FormatV = U32At(8);
  if (FormatV != kBinFormatVersion)
    return failWith(Err, Reject::UnknownSchemaVersion,
                    "binary container version " + std::to_string(FormatV) +
                        " is from a future toolchain (this one reads " +
                        std::to_string(kBinFormatVersion) + ")");

  uint64_t Integrity =
      hash::fnv1a64(std::string_view(Image.data(), Image.size() - 8));
  if (Integrity != U64At(Image.size() - 8))
    return failWith(Err, Reject::IntegrityMismatch,
                    "trailing integrity hash does not cover the image");

  uint32_t SchemaV = U32At(12);
  if (SchemaV != kSchemaVersion)
    return failWith(Err, Reject::UnknownSchemaVersion,
                    "schema_version " + std::to_string(SchemaV) +
                        (SchemaV > kSchemaVersion
                             ? " is from a future toolchain"
                             : " is from an older toolchain"));

  uint64_t RecOff = U64At(48), RecLen = U64At(56);
  uint64_t StrOff = U64At(64), StrLen = U64At(72);
  uint64_t Payload = Image.size() - kTrailerSize;
  if (RecOff > Payload || RecLen > Payload - RecOff || StrOff > Payload ||
      StrLen > Payload - StrOff)
    return failWith(Err, Reject::OffsetOutOfRange,
                    "records or string table escape the image");

  Cursor C;
  C.Base = reinterpret_cast<const uint8_t *>(Image.data()) + RecOff;
  C.Len = size_t(RecLen);
  C.StrBase = Image.data() + StrOff;
  C.StrLen = size_t(StrLen);

  Certificate Out;
  Out.SchemaVersion = SchemaV;
  Out.Key.ModelHash = U64At(24);
  Out.Key.SpecHash = U64At(32);
  Out.Key.CodeHash = U64At(40);

  Out.Producer = C.str();
  Out.Function = C.str();
  Out.Verdict = C.str();
  Out.Reason = C.str();
  Out.NumTerms = C.u64();

  uint32_t NumLoops = C.u32();
  for (uint32_t I = 0; I < NumLoops && !C.Failed; ++I) {
    LoopRec L;
    L.Ordinal = C.u32();
    L.Carried = C.u32();
    L.Regions = C.u32();
    L.FoldHash = C.u64();
    L.Binding = C.str();
    L.Path = C.str();
    L.TargetPath = C.str();
    uint32_t NW = C.u32();
    for (uint32_t J = 0; J < NW && !C.Failed; ++J)
      L.WitnessLocals.push_back(C.str());
    uint32_t NR = C.u32();
    for (uint32_t J = 0; J < NR && !C.Failed; ++J)
      L.WitnessRegions.push_back(C.str());
    Out.Loops.push_back(std::move(L));
  }

  uint32_t NumBinds = C.u32();
  for (uint32_t I = 0; I < NumBinds && !C.Failed; ++I) {
    BindingRec B;
    B.Path = C.str();
    B.Name = C.str();
    B.Hash = C.u64();
    Out.Bindings.push_back(std::move(B));
  }

  uint32_t NumOuts = C.u32();
  for (uint32_t I = 0; I < NumOuts && !C.Failed; ++I) {
    OutputRec O;
    O.Name = C.str();
    O.Kind = C.str();
    O.Matched = C.u8() != 0;
    O.SrcHash = C.u64();
    O.TgtHash = C.u64();
    O.SourceBinding = C.str();
    O.TargetPath = C.str();
    Out.Outputs.push_back(std::move(O));
  }

  if (C.u8() != 0) {
    CodelintRec K;
    K.Version = C.u32();
    K.Mem = C.str();
    K.Stack = C.str();
    K.Steps = C.str();
    K.Accesses = C.u64();
    K.LocalsBytes = C.u64();
    K.ScratchBytes = C.u64();
    K.OperandDepth = C.u64();
    K.StepBound = C.u64();
    Out.Codelint = std::move(K);
  }

  if (C.Failed)
    return failWith(Err, Reject::OffsetOutOfRange,
                    "a record or string reference escapes its region");
  if (C.At != C.Len)
    return failWith(Err, Reject::OffsetOutOfRange,
                    "records region has " + std::to_string(C.Len - C.At) +
                        " undeclared trailing bytes");
  return Out;
}

std::optional<Certificate> BinReader::readFile(const std::string &Path,
                                               ReadError *Err) {
#ifndef _WIN32
  // mmap the image read-only: the decode walks the mapping in place, no
  // buffer copy. parse() treats the mapping as untrusted either way.
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd >= 0) {
    struct stat St;
    if (::fstat(Fd, &St) == 0 && St.st_size > 0) {
      size_t Size = size_t(St.st_size);
      void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
      if (Map != MAP_FAILED) {
        std::optional<Certificate> Out =
            parse(std::string_view(static_cast<const char *>(Map), Size), Err);
        ::munmap(Map, Size);
        ::close(Fd);
        return Out;
      }
    }
    ::close(Fd);
  }
#endif
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return failWith(Err, Reject::MissingCertificate,
                    "cannot open '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Image = Buf.str();
  return parse(Image, Err);
}

} // namespace cert
} // namespace relc
