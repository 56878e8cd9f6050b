//===- tests/codelint/ReportPinTest.cpp - Target-side report pins ---------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Pins the full text of both target-side reports, AnalysisReport::str()
// and codelint::Report::str(), on three corpora:
//
//  - the seven suite programs, as compiled;
//  - the tests/analysis seeded-bug functions and their clean twins, under
//    fnv1a's fnspec (the same (s, len) signature) and, for analysis, also
//    under the hand-built byte-array ABI that SeededBugsTest uses;
//  - the tests/codelint wrong-code corpus: fnv1a with an out-of-bounds
//    store, a returned stackalloc pointer or a self-call, and a copy
//    program that stores a stackalloc pointer;
//  - fnv1a with one extra read per access check the suite never fails:
//    an unknown table, a pointer as a table index, an index past the
//    table, a scalar as an address, and a read through a pointer whose
//    stackalloc scope has ended.
//
// Each text is pinned as an fnv1a64 hash. On a mismatch the test prints
// the row it computed, in table syntax, and the texts behind it.
//
// A second test checks that the reports the pipeline keeps
// (ProgramOutcome::AReport and ClReport) equal the standalone entry
// points' reports, with both layers on and with each one on alone.
//
//===----------------------------------------------------------------------===//

#include "codelint/Codelint.h"
#include "pipeline/Pipeline.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace relc;
using namespace relc::bedrock;
using relc::hash::fnv1a64;

namespace {

struct Pin {
  const char *Case;
  uint64_t Analysis; ///< AnalysisReport::str() under the program's fnspec.
  uint64_t Codelint; ///< codelint::Report::str() under the program's fnspec.
  uint64_t HandAbi;  ///< AnalysisReport::str() under the hand-built ABI
                     ///< (seeded-bug functions only; 0 otherwise).
};

// clang-format off
const Pin kPins[] = {
    {"fnv1a",
     0x8926d67c6e112723ull, 0x4ca893c7c559024eull, 0x0ull},
    {"utf8",
     0x493a16cd31917cc0ull, 0xe54a44e156b6a0c6ull, 0x0ull},
    {"upstr",
     0x2aab9e1b6150cd37ull, 0xfc40208191d78957ull, 0x0ull},
    {"m3s",
     0xd76e5d0e85b16bebull, 0x8f07d351aac4a550ull, 0x0ull},
    {"ip",
     0x5fca3f22c9267966ull, 0x19530799d902fe32ull, 0x0ull},
    {"fasta",
     0xb2820ddea4280191ull, 0xf006ddfbde96442eull, 0x0ull},
    {"crc32",
     0xcafb797559abf549ull, 0x29ccac935ee36590ull, 0x0ull},
    {"uninit_bug",
     0xbb2d80dbdaef3a62ull, 0x60f5320538075f20ull, 0xbb2d80dbdaef3a62ull},
    {"uninit_ok",
     0xac5965a263ae4524ull, 0xb44570bb74bdee7aull, 0xac5965a263ae4524ull},
    {"off_by_one_bug",
     0x83f1a432256230b3ull, 0x58028ac783d268b2ull, 0x62b6621439edcd08ull},
    {"off_by_one_ok",
     0xc70bb9496626c6bfull, 0xe3c63c8cc53725dbull, 0xc70bb9496626c6bfull},
    {"dead_store_bug",
     0x9db2a2a092b3b412ull, 0x6f6f58f67c42e9e7ull, 0x9db2a2a092b3b412ull},
    {"dead_store_ok",
     0x6f47d42296abd4c0ull, 0xd99491ddf9e529e5ull, 0x6f47d42296abd4c0ull},
    {"unreachable_bug",
     0xd4dcbd24789b2575ull, 0x2e9c6f4423a7d1c0ull, 0xd4dcbd24789b2575ull},
    {"unreachable_ok",
     0x15a2d709a48f2453ull, 0x65403de4bc11806eull, 0x15a2d709a48f2453ull},
    {"fnv1a-oob-store",
     0x4c0c5f4cc6a7dfceull, 0xdb3a4cdacdd50f5dull, 0x0ull},
    {"fnv1a-frame-escape",
     0xa10797c08f8b81a5ull, 0x954f96ca95dfe222ull, 0x0ull},
    {"fnv1a-unbounded-stack",
     0x8c5526f48cba0080ull, 0x3cfa631d1e26e1bcull, 0x0ull},
    {"fnv1a-unknown-table",
     0x6e8b326052c61241ull, 0xadb9ca72592fc49eull, 0x0ull},
    {"fnv1a-pointer-index",
     0xfcd161694aac6b24ull, 0x75fa49dda9c62119ull, 0x0ull},
    {"fnv1a-index-past-table",
     0x479f6b70f1039e9bull, 0x4237cf7dd86a1812ull, 0x0ull},
    {"fnv1a-scalar-address",
     0x683a07be352b3658ull, 0x7b0477c40c5dc242ull, 0x0ull},
    {"fnv1a-expired-region",
     0xcaf2e0c44c5667b5ull, 0x4ece5d33e878e4d1ull, 0x0ull},
    {"cpy",
     0xb642e1fc1f141e3eull, 0x9a7cb898c9f40aa8ull, 0x0ull},
    {"cpy-leak-buf",
     0x51c34ab2a1254efeull, 0x72ea1f2f6972774eull, 0x0ull},
    {"cpy-leak-(buf + 3)",
     0x51c34ab2a1254efeull, 0xab0552967b1305e1ull, 0x0ull},
};
// clang-format on

/// One function to analyze, with the program whose fnspec it runs under.
struct Case {
  std::string Name;
  const programs::ProgramDef *Def = nullptr;
  Function Fn;
  bool HandAbi = false; ///< Also analyze under byteArrayAbi().
};

Function compiled(const programs::ProgramDef &P) {
  core::Compiler C;
  Result<core::CompileResult> R = C.compileFn(P.Model, P.Spec, P.Hints);
  EXPECT_TRUE(bool(R)) << P.Name << ": " << (R ? "" : R.error().str());
  return R ? R->Fn : Function();
}

/// The ABI tests/analysis/SeededBugsTest.cpp digests by hand.
analysis::AbiInfo byteArrayAbi() {
  analysis::AbiInfo Abi;
  analysis::Region R;
  R.K = analysis::Region::Kind::Array;
  R.Name = "s";
  R.EltBytes = 1;
  R.Extent = solver::ls("len_s");
  R.ClauseStr = "array s len";
  Abi.Regions.push_back(R);
  Abi.ArgRegion["s"] = 0;
  Abi.ArgTerm["len"] = solver::ls("len_s");
  Abi.EntryFacts.addGe0(solver::ls("len_s"), "length nonnegative");
  Abi.EntryFacts.addGe0(solver::lc(int64_t(1) << 32) - solver::ls("len_s"),
                        "ABI length bound");
  return Abi;
}

Function mkFn(const char *Name, CmdPtr Body) {
  Function F;
  F.Name = Name;
  F.Args = {"s", "len"};
  F.Rets = {"out"};
  F.Body = std::move(Body);
  return F;
}

// The four seeded bodies of SeededBugsTest, each with its clean twin.
CmdPtr uninitBody(bool Seeded) {
  std::vector<CmdPtr> Cmds;
  if (!Seeded)
    Cmds.push_back(set("acc", lit(0)));
  Cmds.push_back(ifThenElse(bin(BinOp::LtU, lit(0), var("len")),
                            set("acc", load(AccessSize::Byte, var("s"))),
                            skip()));
  Cmds.push_back(set("out", add(var("acc"), lit(1))));
  return seqAll(std::move(Cmds));
}

CmdPtr storeLoopBody(bool Seeded) {
  ExprPtr Guard =
      Seeded ? bin(BinOp::LtU, var("i"), add(var("len"), lit(1)))
             : bin(BinOp::LtU, var("i"), var("len"));
  return seqAll(
      {set("i", lit(0)),
       whileLoop(std::move(Guard),
                 seqAll({store(AccessSize::Byte, add(var("s"), var("i")),
                               lit(0)),
                         set("i", add(var("i"), lit(1)))})),
       set("out", var("i"))});
}

CmdPtr deadStoreBody(bool Seeded) {
  std::vector<CmdPtr> Cmds;
  Cmds.push_back(set("h", lit(17)));
  if (Seeded)
    Cmds.push_back(set("h", lit(23)));
  else
    Cmds.push_back(set("h", add(var("h"), lit(23))));
  Cmds.push_back(set("out", var("h")));
  return seqAll(std::move(Cmds));
}

CmdPtr unreachableBody(bool Seeded) {
  ExprPtr Guard = Seeded ? bin(BinOp::LtU, lit(3), lit(3))
                         : bin(BinOp::LtU, lit(3), var("len"));
  return seqAll({set("h", lit(0)),
                 ifThenElse(std::move(Guard), set("h", lit(1)), skip()),
                 set("out", var("h"))});
}

/// CodelintTest's copy program: t := copy(buf) over a stack array.
const programs::ProgramDef &cpyProgram() {
  static const programs::ProgramDef Def = [] {
    programs::ProgramDef D;
    D.Name = "cpy";
    ir::FnBuilder FB("cpy", ir::Monad::Pure);
    FB.wordParam("x");
    ir::ProgBuilder B;
    B.let("buf", ir::mkStack({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}))
        .let("t", ir::mkCopy("buf"))
        .let("r", ir::b2w(ir::aget("t", ir::cw(0))));
    D.Model = std::move(FB).done(std::move(B).ret({"r"}));
    D.Spec = sep::FnSpec("cpy");
    D.Spec.scalarArg("x").retScalar("r");
    return D;
  }();
  return Def;
}

std::vector<Case> corpus() {
  std::vector<Case> Out;
  for (const programs::ProgramDef &P : programs::allPrograms())
    Out.push_back({P.Name, &P, compiled(P)});

  const programs::ProgramDef *Fnv = programs::findProgram("fnv1a");
  using BodyFn = CmdPtr (*)(bool);
  const std::pair<const char *, BodyFn> Seeded[] = {
      {"uninit", uninitBody},
      {"off_by_one", storeLoopBody},
      {"dead_store", deadStoreBody},
      {"unreachable", unreachableBody}};
  for (const auto &[Name, Body] : Seeded)
    for (bool Bug : {true, false}) {
      std::string N = std::string(Name) + (Bug ? "_bug" : "_ok");
      Out.push_back({N, Fnv, mkFn(N.c_str(), Body(Bug)), true});
    }

  Function F = compiled(*Fnv);
  auto Extend = [&](const char *Name, CmdPtr Tail) {
    Function Bad = F;
    Bad.Body = seqAll({Bad.Body, std::move(Tail)});
    Out.push_back({Name, Fnv, std::move(Bad)});
  };
  Extend("fnv1a-oob-store",
         store(AccessSize::Byte, add(var("s"), var("len")), lit(0)));
  Extend("fnv1a-frame-escape", stackalloc("scr", 8, set("h", var("scr"))));
  Extend("fnv1a-unbounded-stack",
         call({"h"}, "fnv1a", {var("s"), var("len")}));

  F.Tables.push_back({"tbl", AccessSize::Byte, {1, 2, 3, 4}});
  Extend("fnv1a-unknown-table",
         set("h", tableGet(AccessSize::Byte, "nosuch", lit(0))));
  Extend("fnv1a-pointer-index",
         set("h", tableGet(AccessSize::Byte, "tbl", var("s"))));
  Extend("fnv1a-index-past-table",
         set("h", tableGet(AccessSize::Byte, "tbl", var("len"))));
  Extend("fnv1a-scalar-address", set("h", load(AccessSize::Byte, var("len"))));
  Extend("fnv1a-expired-region",
         seqAll({stackalloc("p", 8, set("q", var("p"))),
                 set("h", load(AccessSize::Byte, var("q")))}));

  const programs::ProgramDef &Cpy = cpyProgram();
  Out.push_back({"cpy", &Cpy, compiled(Cpy)});
  for (ExprPtr Leak : {var("buf"), add(var("buf"), lit(3))}) {
    Function Bad = compiled(Cpy);
    Bad.Body = stackalloc(
        "buf", 11,
        stackalloc("t", 11,
                   seqAll({store(AccessSize::Eight, var("t"), Leak),
                           set("r", lit(0))})));
    Out.push_back({"cpy-leak-" + Leak->str(), &Cpy, std::move(Bad)});
  }
  return Out;
}

analysis::AnalysisReport analysisOf(const Case &C) {
  return analysis::analyzeProgram(C.Fn, C.Def->Spec, C.Def->Model,
                                  C.Def->Hints.EntryFacts);
}

codelint::Report codelintOf(const Case &C) {
  return codelint::analyzeFunction(C.Fn, C.Def->Spec, C.Def->Model,
                                   C.Def->Hints.EntryFacts);
}

TEST(ReportPinTest, BothReportsMatchTheirPins) {
  std::vector<Case> Cases = corpus();
  EXPECT_EQ(Cases.size(), std::size(kPins));
  for (size_t I = 0; I < Cases.size(); ++I) {
    const Case &C = Cases[I];
    SCOPED_TRACE(C.Name);
    std::string A = analysisOf(C).str();
    std::string L = codelintOf(C).str();
    std::string H =
        C.HandAbi ? analysis::analyzeFunction(C.Fn, byteArrayAbi()).str()
                  : "";
    Pin Got{C.Name.c_str(), fnv1a64(A), fnv1a64(L), H.empty() ? 0 : fnv1a64(H)};
    const Pin *Want = I < std::size(kPins) ? &kPins[I] : nullptr;
    bool Same = Want && C.Name == Want->Case &&
                Got.Analysis == Want->Analysis &&
                Got.Codelint == Want->Codelint && Got.HandAbi == Want->HandAbi;
    EXPECT_TRUE(Same) << "computed row:\n    {\"" << C.Name << "\", 0x"
                      << std::hex << Got.Analysis << "ull, 0x" << Got.Codelint
                      << "ull, 0x" << Got.HandAbi << "ull},\n"
                      << "analysis:\n" << A << "codelint:\n" << L
                      << "hand-ABI analysis:\n" << H;
  }
}

TEST(ReportPinTest, PipelineKeepsTheStandaloneReports) {
  std::vector<Case> Cases = corpus();
  // One program definition per case, named after it, so one certify call
  // runs the whole corpus; the tamper hook swaps in the case's code.
  std::vector<programs::ProgramDef> Defs;
  for (const Case &C : Cases) {
    Defs.push_back(*C.Def);
    Defs.back().Name = C.Name;
  }
  std::vector<const programs::ProgramDef *> Progs;
  for (const programs::ProgramDef &D : Defs)
    Progs.push_back(&D);
  pipeline::TamperHook Swap = [&Cases](const programs::ProgramDef &D,
                                       core::CompileResult &R) {
    for (const Case &C : Cases)
      if (C.Name == D.Name)
        R.Fn = C.Fn;
  };

  const std::pair<bool, bool> Layers[] = {{true, true}, {true, false},
                                          {false, true}};
  for (auto [Analyze, Codelint] : Layers) {
    SCOPED_TRACE(std::string("analysis ") + (Analyze ? "on" : "off") +
                 ", codelint " + (Codelint ? "on" : "off"));
    pipeline::PipelineOptions Opts;
    Opts.Validate = Opts.Tv = false;
    Opts.Analyze = Analyze;
    Opts.Codelint = Codelint;
    Opts.Jobs = 2;
    std::vector<pipeline::ProgramOutcome> Out =
        pipeline::certifyPrograms(Progs, Opts, nullptr, Swap);
    ASSERT_EQ(Out.size(), Cases.size());
    for (size_t I = 0; I < Cases.size(); ++I) {
      SCOPED_TRACE(Cases[I].Name);
      const pipeline::ProgramOutcome &O = Out[I];
      ASSERT_TRUE(O.CompileOk) << O.CompileError;
      EXPECT_EQ(O.Analysis.Ran, Analyze);
      EXPECT_EQ(O.Codelint.Ran, Codelint);
      if (Analyze) {
        EXPECT_EQ(O.AReport.str(), analysisOf(Cases[I]).str());
      }
      if (Codelint) {
        EXPECT_EQ(O.ClReport.str(), codelintOf(Cases[I]).str());
      }
    }
  }
}

} // namespace
