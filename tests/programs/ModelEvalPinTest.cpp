//===- tests/programs/ModelEvalPinTest.cpp - Interpreter observables ------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Pins what the FunLang reference interpreter shows the differential layer
// on the seven suite models: for one input per size of the default vector
// battery, drawn from the program's own generator with a fixed seed and
// with the length arguments set as the differential layer sets them, the
// test pins
//
//  - the outputs (a hash over every element, not the abbreviated str());
//  - the minimal fuel F: evaluation succeeds at EvalOptions::Fuel = F and
//    fails at F - 1, with the exact error text and note chain; the error
//    at F / 2, which stops inside the model's loops, is pinned too;
//  - the nondet oracle's position after the run, read as its next draw.
//
// One extra hand-built nondet model draws inside a loop body and an if
// branch, so the oracle pin covers scoped evaluation as well.
//
// On a mismatch the test prints the row it computed, in table syntax.
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"
#include "programs/Programs.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

using namespace relc;
using namespace relc::ir;
using namespace relc::programs;
using relc::hash::fnv1a64;
using relc::hash::fnv1a64Word;

namespace {

struct Pin {
  const char *Program;
  size_t Size;
  uint64_t OutHash;     ///< hashValues over the returned tuple.
  uint64_t MinFuel;     ///< Succeeds at this fuel, fails one below.
  uint64_t StarvedHash; ///< fnv1a64 of Error::str() at MinFuel - 1.
  uint64_t HalfHash;    ///< fnv1a64 of Error::str() at MinFuel / 2.
  uint64_t NextDraw;    ///< Ctx.Nondet.next() after the run.
};

// clang-format off
const Pin kPins[] = {
    {"fnv1a", 0, 0x06312a7ba27624ceull, 1,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 1, 0x041e9600062d3231ull, 2,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 2, 0x6b461cc8ae74be8aull, 3,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 3, 0xa4963d95aa93c063ull, 4,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 5, 0xb97ed06151f9a397ull, 6,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 8, 0x08ac8406b4c3078cull, 9,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 16, 0xc414b34c96d66a78ull, 17,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 31, 0x7d7ab190e13c621dull, 32,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 64, 0xf24118e2946957b8ull, 65,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 255, 0xc0fc92c9980fd9c4ull, 256,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"fnv1a", 999, 0x281281fe2163def2ull, 1000,
     0xe404ffcecae92dcbull, 0xe404ffcecae92dcbull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 0, 0x08a07924b5a671b7ull, 33,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 1, 0x0962895ab6f05bafull, 33,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 2, 0x083225bab4eac601ull, 33,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 3, 0x083229bab4eacccdull, 33,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 5, 0x2655b7e6e823b299ull, 43,
     0xb417de912afdde44ull, 0x596649b5a7c384d2ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 8, 0x082dc1bab4e35015ull, 90,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 16, 0x07b87d8cb41c584dull, 204,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 31, 0x08ef0a8cb62c09e4ull, 429,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 64, 0x234b258ce2f96eeeull, 907,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 255, 0x1059b18cc2c926d2ull, 3697,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"utf8", 999, 0x1ff38b0cdd4a21d2ull, 13884,
     0xb417de912afdde44ull, 0x3d2362083e83cc10ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 0, 0xb6a3c018586c51e2ull, 1,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 1, 0x1aabd526de9d0adfull, 2,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 2, 0xbf3f636a8f3a5910ull, 3,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 3, 0xdd1c252550a37ae5ull, 4,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 5, 0xb7f71488b86bd59full, 6,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 8, 0x000347e52940fedeull, 9,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 16, 0xd75a0259ffec6bdeull, 17,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 31, 0x2efae7aec8f464e7ull, 32,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 64, 0xe951e8b48f58ba26ull, 65,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 255, 0x8a0e8905cc46ee2eull, 256,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"upstr", 999, 0x56e51e9e9aceaadcull, 1000,
     0x069910dc3c5a7813ull, 0x069910dc3c5a7813ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 0, 0x586344e1282e4114ull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 1, 0xa636130f8d6b751eull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 2, 0x8907fd4255d625bcull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 3, 0x73904ec6265bc912ull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 5, 0x7f89e6cd9bb4e4a7ull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 8, 0x0e7562a7798f085bull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 16, 0xe41978fb9294db70ull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 31, 0xc511d31f0cdadc5eull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 64, 0x3789fe4db05d0d6full, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 255, 0xd9a6fca9f0d452bcull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"m3s", 999, 0x44b8d1a3dac39fabull, 4,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 0, 0x07c2c907b42d8e60ull, 6,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 1, 0x07abc907b4067960ull, 6,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 2, 0x07870107b3c7f988ull, 8,
     0xb417de912afdde44ull, 0xe1184588b2b995fdull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 3, 0x086f4807b552aa2dull, 8,
     0xb417de912afdde44ull, 0xe1184588b2b995fdull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 5, 0x07fe5307b492b9deull, 12,
     0xb417de912afdde44ull, 0xe1184588b2b995fdull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 8, 0x084a3707b513ae4aull, 16,
     0xb417de912afdde44ull, 0x28356ffa2c20ee07ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 16, 0x080b2307b4a87f4eull, 24,
     0xb417de912afdde44ull, 0x28356ffa2c20ee07ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 31, 0x0807fa07b4a320a3ull, 38,
     0xb417de912afdde44ull, 0x5f4c3c133ac96361ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 64, 0x07f28407b47ea921ull, 72,
     0xb417de912afdde44ull, 0x28356ffa2c20ee07ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 255, 0x07e05207b45fbe2bull, 262,
     0xb417de912afdde44ull, 0x5f4c3c133ac96361ull, 0x09f1fd9d03f0a9b4ull},
    {"ip", 999, 0x08515c07b51fd229ull, 1006,
     0xb417de912afdde44ull, 0x5f4c3c133ac96361ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 0, 0xb6a3c018586c51e2ull, 1,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 1, 0x1aabde26de9d1a2aull, 2,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 2, 0x2731376aca1a6444ull, 3,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 3, 0xdd1c252550a37ae5ull, 4,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 5, 0x862a41d78a31b402ull, 6,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 8, 0xead407e48c415fdeull, 9,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 16, 0xfb1952c9978330e4ull, 17,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 31, 0xd08de10dc82bd3e9ull, 32,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 64, 0x4f7aa66ce37afdfaull, 65,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 255, 0xd9d90607ef9cfbe1ull, 256,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"fasta", 999, 0x5307cbafcc585512ull, 1000,
     0x02f2a76e0c8814d9ull, 0x02f2a76e0c8814d9ull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 0, 0x08328807b4eb6fedull, 2,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 1, 0xe10c72f9da65ba3eull, 3,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 2, 0x1a50d73a38b4f1ddull, 4,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 3, 0x6867eaa417662726ull, 5,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 5, 0x4b58968703051b6aull, 7,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 8, 0x00b210b3472c2405ull, 10,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 16, 0x66feaddf8e00547full, 18,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 31, 0x54f62cf7395be14cull, 33,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 64, 0x4a6801619f6c4e3bull, 66,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 255, 0x144c9a72417bbe36ull, 257,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"crc32", 999, 0x98c7ac57f298ddccull, 1001,
     0xb417de912afdde44ull, 0x91d86e4c828bfe4dull, 0x09f1fd9d03f0a9b4ull},
    {"nondet_walk", 0, 0x08328807b4eb6fedull, 1,
     0xb417de912afdde44ull, 0xb417de912afdde44ull, 0x09f1fd9d03f0a9b4ull},
    {"nondet_walk", 1, 0xfba1dc0698b57fa8ull, 7,
     0x8dd35c1fe48b7111ull, 0x8dd35c1fe48b7111ull, 0x0bf2b716f9915475ull},
    {"nondet_walk", 5, 0xb5be0a8f4ce97e02ull, 28,
     0x8dd35c1fe48b7111ull, 0x8dd35c1fe48b7111ull, 0x651ac042fa7b481aull},
    {"nondet_walk", 64, 0x77adaf238b252579ull, 351,
     0x8dd35c1fe48b7111ull, 0x8dd35c1fe48b7111ull, 0xbacc2b1ee1d7d71aull},
};
// clang-format on

uint64_t hashValue(const Value &V, uint64_t H) {
  H = fnv1a64Word(uint64_t(V.kind()), H);
  switch (V.kind()) {
  case Value::Kind::Word:
  case Value::Kind::Byte:
  case Value::Kind::Bool:
    return fnv1a64Word(V.scalar(), H);
  case Value::Kind::Unit:
    return H;
  case Value::Kind::List:
    H = fnv1a64Word(uint64_t(V.listElt()), H);
    [[fallthrough]];
  case Value::Kind::Tuple:
    H = fnv1a64Word(V.elems().size(), H);
    for (const Value &E : V.elems())
      H = hashValue(E, H);
    return H;
  }
  return H;
}

uint64_t hashValues(const std::vector<Value> &Vs) {
  uint64_t H = fnv1a64("");
  for (const Value &V : Vs)
    H = hashValue(V, H);
  return H;
}

/// A nondet model that draws inside a ranged_for body and inside one arm
/// of an if, and reads the walked list in the other arm.
SourceFn nondetWalk() {
  FnBuilder FB("nondet_walk", Monad::Nondet);
  FB.listParam("s", EltKind::U8).wordParam("len");
  ProgBuilder Then;
  Then.let("buf", mkStackUninit(3)).let("y", b2w(aget("buf", cw(1))));
  ProgBuilder Else;
  Else.let("y", b2w(aget("s", v("i"))));
  ProgBuilder Body;
  Body.let("x", mkNondetPeek())
      .letMulti({"y"}, mkIf(eqw(andw(v("x"), cw(1)), cw(0)),
                            std::move(Then).ret({"y"}),
                            std::move(Else).ret({"y"})))
      .let("h", xorw(v("h"), addw(v("x"), v("y"))));
  ProgBuilder B;
  B.letMulti({"h"}, mkRange("i", cw(0), v("len"), {acc("h", cw(0))},
                            std::move(Body).ret({"h"})));
  return std::move(FB).done(std::move(B).ret({"h"}));
}

struct Run {
  Result<std::vector<Value>> Out;
  uint64_t NextDraw;
};

Run runAt(const SourceFn &Fn, const std::vector<Value> &Args, uint64_t Fuel) {
  EffectCtx Ctx;
  EvalOptions Opts;
  Opts.Fuel = Fuel;
  Result<std::vector<Value>> Out = evalFn(Fn, Args, Ctx, Opts);
  return {std::move(Out), Ctx.Nondet.next()};
}

uint64_t errorHash(const SourceFn &Fn, const std::vector<Value> &Args,
                   uint64_t Fuel) {
  Run R = runAt(Fn, Args, Fuel);
  return R.Out ? 0 : fnv1a64(R.Out.error().str());
}

/// The smallest fuel under which \p Fn succeeds on \p Args.
uint64_t minimalFuel(const SourceFn &Fn, const std::vector<Value> &Args) {
  uint64_t Hi = 1;
  while (!runAt(Fn, Args, Hi).Out)
    Hi *= 2;
  uint64_t Lo = 0;
  while (Lo < Hi) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    if (runAt(Fn, Args, Mid).Out)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return Lo;
}

/// Checks \p Fn on \p Args against \p Want (null: no pinned row) and
/// prints the computed row when anything differs.
void checkRow(const char *Name, const SourceFn &Fn, size_t Size,
              const std::vector<Value> &Args, const Pin *Want) {
  SCOPED_TRACE(std::string(Name) + " size " + std::to_string(Size));
  bool Match = Want != nullptr;
  if (Match) {
    Run Full = runAt(Fn, Args, Want->MinFuel);
    Match = Full.Out && hashValues(*Full.Out) == Want->OutHash &&
            Full.NextDraw == Want->NextDraw && Want->MinFuel > 0 &&
            errorHash(Fn, Args, Want->MinFuel - 1) == Want->StarvedHash &&
            errorHash(Fn, Args, Want->MinFuel / 2) == Want->HalfHash;
  }
  if (Match)
    return;
  uint64_t F = minimalFuel(Fn, Args);
  Run Full = runAt(Fn, Args, F);
  ASSERT_TRUE(bool(Full.Out));
  char Row[256];
  std::snprintf(Row, sizeof(Row),
                "    {\"%s\", %zu, 0x%016" PRIx64 "ull, %" PRIu64 ",\n"
                "     0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull},",
                Name, Size, hashValues(*Full.Out), F,
                errorHash(Fn, Args, F - 1), errorHash(Fn, Args, F / 2),
                Full.NextDraw);
  ADD_FAILURE() << (Want ? "observables differ from the pinned row; "
                         : "no pinned row; ")
                << "computed:\n"
                << Row;
}

const Pin *findPin(const std::string &Program, size_t Size) {
  for (const Pin &P : kPins)
    if (Program == P.Program && Size == P.Size)
      return &P;
  return nullptr;
}

/// Sets each length argument to its array's length, as the differential
/// layer does before running a vector.
void fixLengths(const SourceFn &Fn, const sep::FnSpec &Spec,
                std::vector<Value> &Args) {
  auto Index = [&](const std::string &Name) {
    for (size_t I = 0; I < Fn.Params.size(); ++I)
      if (Fn.Params[I].Name == Name)
        return I;
    return Fn.Params.size();
  };
  for (const sep::ArgSpec &A : Spec.Args)
    if (A.TheKind == sep::ArgSpec::Kind::ArrayLen)
      Args[Index(A.SourceName)] =
          Value::word(Args[Index(A.OfArray)].elems().size());
}

TEST(ModelEvalPinTest, SuiteObservablesArePinned) {
  const std::vector<size_t> Sizes = validate::ValidationOptions().Sizes;
  size_t Rows = 0;
  for (const ProgramDef &P : allPrograms()) {
    Rng R(0xc0ffee);
    for (size_t Size : Sizes) {
      std::vector<Value> Args =
          P.VOpts.MakeInputs ? P.VOpts.MakeInputs(P.Model, R, Size)
                             : validate::defaultInputs(P.Model, R, Size);
      fixLengths(P.Model, P.Spec, Args);
      checkRow(P.Name.c_str(), P.Model, Size, Args, findPin(P.Name, Size));
      ++Rows;
    }
  }
  EXPECT_EQ(Rows, 7 * Sizes.size());
}

TEST(ModelEvalPinTest, ScopedNondetDrawsArePinned) {
  SourceFn Fn = nondetWalk();
  Rng R(0xd1ce);
  for (size_t Size : {size_t(0), size_t(1), size_t(5), size_t(64)}) {
    std::vector<Value> Args = validate::defaultInputs(Fn, R, Size);
    Args[1] = Value::word(Size);
    checkRow("nondet_walk", Fn, Size, Args, findPin("nondet_walk", Size));
  }
}

} // namespace
