//===- cert/Binary.cpp - Zero-copy binary certificate image ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/Binary.h"

#include "support/Bytes.h"

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

/// Encodes the records region. A string is a (u32 offset, u32 length)
/// slice of a first-occurrence-deduplicated table, so equal Certificates
/// always produce byte-identical tables (and therefore images).
class RecordWriter : public bytes::Writer {
public:
  explicit RecordWriter(std::string &Records) : bytes::Writer(Records) {}

  void str(const std::string &S) {
    auto It = Offsets.find(S);
    if (It == Offsets.end()) {
      It = Offsets.emplace(S, uint32_t(Strings.size())).first;
      Strings += S;
    }
    u32(It->second);
    u32(uint32_t(S.size()));
  }
  const std::string &strings() const { return Strings; }

private:
  std::map<std::string, uint32_t> Offsets;
  std::string Strings;
};

/// Decodes the records region, bounds-checking every string reference
/// against the declared string table.
class RecordReader : public bytes::Reader {
public:
  RecordReader(std::string_view Records, std::string_view Strings)
      : bytes::Reader(Records), Strings(Strings) {}

  void str(std::string &S) {
    uint32_t Off = 0, N = 0;
    u32(Off);
    u32(N);
    // 64-bit sum: a 32-bit off+len cannot overflow into a false pass.
    if (uint64_t(Off) + uint64_t(N) > Strings.size())
      fail();
    if (ok())
      S.assign(Strings.data() + Off, N);
    else
      S.clear();
  }

private:
  std::string_view Strings;
};

/// The records region, in schema order: the one statement of the layout,
/// run by RecordWriter to encode and by RecordReader to decode.
template <class Dir, class Cert> void records(Dir &IO, Cert &C) {
  IO.str(C.Producer);
  IO.str(C.Function);
  IO.str(C.Verdict);
  IO.str(C.Reason);
  IO.list(C.Loops, [&](auto &L) {
    IO.u32(L.Ordinal);
    IO.u32(L.Carried);
    IO.u32(L.Regions);
    IO.u64(L.FoldHash);
    IO.str(L.Binding);
    IO.str(L.Path);
    IO.str(L.TargetPath);
    IO.list(L.WitnessLocals, [&](auto &W) { IO.str(W); });
    IO.list(L.WitnessRegions, [&](auto &W) { IO.str(W); });
  });
  IO.list(C.Bindings, [&](auto &B) {
    IO.str(B.Path);
    IO.str(B.Name);
    IO.u64(B.Hash);
  });
  IO.list(C.Outputs, [&](auto &O) {
    IO.str(O.Name);
    IO.str(O.Kind);
    IO.flag(O.Matched);
    IO.u64(O.SrcHash);
    IO.u64(O.TgtHash);
    IO.str(O.SourceBinding);
    IO.str(O.TargetPath);
  });
  IO.optional(C.Codelint, [&](auto &K) {
    IO.u32(K.Version);
    IO.str(K.Mem);
    IO.str(K.Stack);
    IO.str(K.Steps);
    IO.u64(K.Accesses);
    IO.u64(K.LocalsBytes);
    IO.u64(K.ScratchBytes);
    IO.u64(K.OperandDepth);
    IO.u64(K.StepBound);
  });
}

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
  std::string Rec;
  Rec.reserve(512);
  RecordWriter W(Rec);
  records(W, C);

  const std::string &Strs = W.strings();
  uint64_t Total = kHeaderSize + Rec.size() + Strs.size() + kTrailerSize;

  std::string Out;
  Out.reserve(size_t(Total));
  Out.append(kBinMagic, sizeof(kBinMagic));
  bytes::putU32(Out, kBinFormatVersion);
  bytes::putU32(Out, C.SchemaVersion);
  bytes::putU64(Out, Total);
  bytes::putU64(Out, C.Key.ModelHash);
  bytes::putU64(Out, C.Key.SpecHash);
  bytes::putU64(Out, C.Key.CodeHash);
  bytes::putU64(Out, kHeaderSize);              // Records offset.
  bytes::putU64(Out, Rec.size());               // Records length.
  bytes::putU64(Out, kHeaderSize + Rec.size()); // String table offset.
  bytes::putU64(Out, Strs.size());              // String table length.
  Out += Rec;
  Out += Strs;
  bytes::seal(Out);
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

  const char *H = Image.data();
  uint64_t Total = bytes::loadU64(H + 16);
  if (Total != Image.size())
    return failWith(Err, Reject::TruncatedImage,
                    "image declares " + std::to_string(Total) +
                        " bytes but holds " + std::to_string(Image.size()));

  uint32_t FormatV = bytes::loadU32(H + 8);
  if (FormatV != kBinFormatVersion)
    return failWith(Err, Reject::UnknownSchemaVersion,
                    "binary container version " + std::to_string(FormatV) +
                        " is from a future toolchain (this one reads " +
                        std::to_string(kBinFormatVersion) + ")");

  if (!bytes::sealed(Image))
    return failWith(Err, Reject::IntegrityMismatch,
                    "trailing integrity hash does not cover the image");

  uint32_t SchemaV = bytes::loadU32(H + 12);
  if (SchemaV != kSchemaVersion)
    return failWith(Err, Reject::UnknownSchemaVersion,
                    "schema_version " + std::to_string(SchemaV) +
                        (SchemaV > kSchemaVersion
                             ? " is from a future toolchain"
                             : " is from an older toolchain"));

  uint64_t RecOff = bytes::loadU64(H + 48), RecLen = bytes::loadU64(H + 56);
  uint64_t StrOff = bytes::loadU64(H + 64), StrLen = bytes::loadU64(H + 72);
  uint64_t Payload = Image.size() - kTrailerSize;
  if (RecOff > Payload || RecLen > Payload - RecOff || StrOff > Payload ||
      StrLen > Payload - StrOff)
    return failWith(Err, Reject::OffsetOutOfRange,
                    "records or string table escape the image");

  Certificate Out;
  Out.SchemaVersion = SchemaV;
  Out.Key.ModelHash = bytes::loadU64(H + 24);
  Out.Key.SpecHash = bytes::loadU64(H + 32);
  Out.Key.CodeHash = bytes::loadU64(H + 40);
  RecordReader R(Image.substr(size_t(RecOff), size_t(RecLen)),
                 Image.substr(size_t(StrOff), size_t(StrLen)));
  records(R, Out);

  if (!R.ok())
    return failWith(Err, Reject::OffsetOutOfRange,
                    "a record or string reference escapes its region");
  if (!R.done())
    return failWith(Err, Reject::OffsetOutOfRange,
                    "records region has " + std::to_string(R.left()) +
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
