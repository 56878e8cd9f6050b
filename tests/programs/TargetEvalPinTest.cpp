//===- tests/programs/TargetEvalPinTest.cpp - Target observables ----------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Pins what the Bedrock2 interpreter shows the differential layer on the
// seven compiled suite functions, the target-side twin of
// ModelEvalPinTest. For sizes 0, 64 and 999 it draws one input from the
// program's own generator (seed 0xc0ffee), sets the length arguments and
// lays the arrays and cells out in memory as the differential layer does,
// runs the compiled function, and pins
//
//  - an FNV hash over the returned words, then the final bytes of every
//    array argument and the final word of every cell argument, each
//    sequence preceded by its length;
//  - Interp::fuelUsed(), the statement steps the run consumed.
//
// On a mismatch the test prints the row it computed, in table syntax.
//
//===----------------------------------------------------------------------===//

#include "bedrock/Interp.h"
#include "core/Compiler.h"
#include "programs/Programs.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

using namespace relc;
using namespace relc::programs;
using relc::hash::fnv1a64;
using relc::hash::fnv1a64Word;

namespace {

struct Pin {
  const char *Program;
  size_t Size;
  uint64_t OutHash;  ///< Returns, then final array bytes and cell words.
  uint64_t FuelUsed; ///< Interp::fuelUsed() after the run.
};

// clang-format off
const Pin kPins[] = {
    {"fnv1a", 0, 0xf8ffcf150eebd971ull, 8},
    {"fnv1a", 64, 0x5553105e22d7a6d1ull, 392},
    {"fnv1a", 999, 0x18379795bca2e28aull, 6002},
    {"utf8", 0, 0x5812b3fdcb6a197cull, 87},
    {"utf8", 64, 0xefa61543ae333fe2ull, 1789},
    {"utf8", 999, 0x02a63154ec6c4a13ull, 28161},
    {"upstr", 0, 0x08328807b4eb6fedull, 6},
    {"upstr", 64, 0x52e94cb58c939300ull, 582},
    {"upstr", 999, 0x9b2512ddbcbbf840ull, 8997},
    {"m3s", 0, 0x586264e1282fa79dull, 9},
    {"m3s", 64, 0xa6338f0f8d6a11fbull, 9},
    {"m3s", 999, 0x89059d4255d4ffc5ull, 9},
    {"ip", 0, 0x606d21172e50ebcbull, 22},
    {"ip", 64, 0xf238de7515a61364ull, 218},
    {"ip", 999, 0xc8bc52e1c103846aull, 3020},
    {"fasta", 0, 0x08328807b4eb6fedull, 6},
    {"fasta", 64, 0x6de5896aa700e4a5ull, 390},
    {"fasta", 999, 0x6baa44310599c6d9ull, 6000},
    {"crc32", 0, 0xd0a397186727310cull, 10},
    {"crc32", 64, 0x57519b0534231a00ull, 394},
    {"crc32", 999, 0xace19d932799a08eull, 6004},
};
// clang-format on

int paramIndex(const ir::SourceFn &Fn, const std::string &Name) {
  for (size_t I = 0; I < Fn.Params.size(); ++I)
    if (Fn.Params[I].Name == Name)
      return int(I);
  return -1;
}

/// A list value as raw little-endian bytes per its element kind.
std::vector<uint8_t> listBytes(const ir::Value &L) {
  std::vector<uint8_t> Out;
  unsigned N = ir::eltSize(L.listElt());
  for (const ir::Value &E : L.elems())
    for (unsigned I = 0; I < N; ++I)
      Out.push_back(uint8_t(E.scalar() >> (8 * I)));
  return Out;
}

struct Observed {
  uint64_t OutHash = 0;
  uint64_t FuelUsed = 0;
};

/// Runs \p Fn, compiled for \p P, on \p Inputs laid out as the
/// differential layer lays them out.
Result<Observed> runTarget(const ProgramDef &P, const bedrock::Function &Fn,
                           std::vector<ir::Value> Inputs) {
  for (const sep::ArgSpec &A : P.Spec.Args)
    if (A.TheKind == sep::ArgSpec::Kind::ArrayLen)
      Inputs[paramIndex(P.Model, A.SourceName)] = ir::Value::word(
          Inputs[paramIndex(P.Model, A.OfArray)].elems().size());
  bedrock::State St;
  std::vector<bedrock::Word> Args;
  std::vector<std::pair<bedrock::Word, size_t>> Arrays;
  std::vector<bedrock::Word> Cells;
  for (const sep::ArgSpec &A : P.Spec.Args) {
    const ir::Value &V = Inputs[paramIndex(P.Model, A.SourceName)];
    switch (A.TheKind) {
    case sep::ArgSpec::Kind::Scalar:
    case sep::ArgSpec::Kind::ArrayLen:
      Args.push_back(V.asWord());
      break;
    case sep::ArgSpec::Kind::ArrayPtr: {
      std::vector<uint8_t> Bytes = listBytes(V);
      bedrock::Word Base = St.Mem.alloc(Bytes.size());
      Status F = St.Mem.fill(Base, Bytes);
      if (!F)
        return F.takeError();
      Arrays.push_back({Base, Bytes.size()});
      Args.push_back(Base);
      break;
    }
    case sep::ArgSpec::Kind::CellPtr: {
      bedrock::Word Base = St.Mem.alloc(8);
      Status S = St.Mem.storeN(bedrock::AccessSize::Eight, Base,
                               V.elems()[0].asWord());
      if (!S)
        return S.takeError();
      Cells.push_back(Base);
      Args.push_back(Base);
      break;
    }
    }
  }
  bedrock::Module M;
  M.Functions.push_back(Fn);
  bedrock::TapeEnv Env;
  bedrock::Interp I(M, Env);
  Result<std::vector<bedrock::Word>> Rets =
      I.callFunction(St, P.Spec.TargetName, Args);
  if (!Rets)
    return Rets.takeError();
  Observed O;
  O.FuelUsed = I.fuelUsed();
  uint64_t H = fnv1a64Word(Rets->size(), fnv1a64(""));
  for (bedrock::Word W : *Rets)
    H = fnv1a64Word(W, H);
  for (const auto &[Base, Len] : Arrays) {
    Result<std::vector<uint8_t>> Now = St.Mem.read(Base, Len);
    if (!Now)
      return Now.takeError();
    H = fnv1a64Word(Len, H);
    for (uint8_t B : *Now)
      H = fnv1a64Word(B, H);
  }
  for (bedrock::Word Base : Cells) {
    Result<bedrock::Word> W = St.Mem.loadN(bedrock::AccessSize::Eight, Base);
    if (!W)
      return W.takeError();
    H = fnv1a64Word(*W, H);
  }
  O.OutHash = H;
  return O;
}

const Pin *findPin(const std::string &Program, size_t Size) {
  for (const Pin &P : kPins)
    if (Program == P.Program && Size == P.Size)
      return &P;
  return nullptr;
}

TEST(TargetEvalPinTest, SuiteObservablesArePinned) {
  const std::vector<size_t> Sizes = {0, 64, 999};
  size_t Rows = 0;
  for (const ProgramDef &P : allPrograms()) {
    core::Compiler Compiler;
    Result<core::CompileResult> C =
        Compiler.compileFn(P.Model, P.Spec, P.Hints);
    ASSERT_TRUE(bool(C)) << P.Name << ": " << C.error().str();
    Rng R(0xc0ffee);
    for (size_t Size : Sizes) {
      SCOPED_TRACE(P.Name + " size " + std::to_string(Size));
      std::vector<ir::Value> Inputs =
          P.VOpts.MakeInputs ? P.VOpts.MakeInputs(P.Model, R, Size)
                             : validate::defaultInputs(P.Model, R, Size);
      Result<Observed> O = runTarget(P, C->Fn, std::move(Inputs));
      ASSERT_TRUE(bool(O)) << O.error().str();
      ++Rows;
      const Pin *Want = findPin(P.Name, Size);
      if (Want && Want->OutHash == O->OutHash &&
          Want->FuelUsed == O->FuelUsed)
        continue;
      char Row[128];
      std::snprintf(Row, sizeof(Row),
                    "    {\"%s\", %zu, 0x%016" PRIx64 "ull, %" PRIu64 "},",
                    P.Name.c_str(), Size, O->OutHash, O->FuelUsed);
      ADD_FAILURE() << (Want ? "observables differ from the pinned row; "
                             : "no pinned row; ")
                    << "computed:\n"
                    << Row;
    }
  }
  EXPECT_EQ(Rows, 7 * Sizes.size());
}

} // namespace
