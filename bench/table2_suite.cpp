//===- bench/table2_suite.cpp - Table 2: the benchmark suite ---------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 2: per program, the programmer-effort columns
// (Source / Lemmas / Hints, in lines measured from the marked sections of
// src/programs/), the End-to-End flag, and the feature matrix (Arithmetic,
// Inline, Arrays, Loops, Mutation). The feature matrix is *computed from
// the derivation* — which rule families actually fired while compiling
// each model — not hand-declared.
//
//===----------------------------------------------------------------------===//

#include "programs/Programs.h"
#include "support/SectionCount.h"

#include <cstdio>

using namespace relc;

namespace {

unsigned sectionOrZero(const std::string &File, const std::string &Name) {
  Result<unsigned> N = countSectionLines(File, Name);
  return N ? *N : 0;
}

const char *mark(bool B) { return B ? "x" : "."; }

} // namespace

int main() {
  std::printf("=== Table 2: the benchmark suite ===\n");
  std::printf("%-7s %6s %7s %5s %10s | %5s %6s %6s %5s %8s\n", "Name",
              "Source", "Lemmas", "Hints", "End-to-End", "Arith", "Inline",
              "Arrays", "Loops", "Mutation");

  core::Compiler Compiler;
  for (const programs::ProgramDef &P : programs::allPrograms()) {
    Result<core::CompileResult> C =
        Compiler.compileFn(P.Model, P.Spec, P.Hints);
    if (!C) {
      std::printf("%-7s FAILED TO COMPILE: %s\n", P.Name.c_str(),
                  C.error().str().c_str());
      continue;
    }
    unsigned Source = sectionOrZero(P.SourceFile, "program-" + P.Name +
                                                      "-source");
    unsigned Lemmas = sectionOrZero(P.SourceFile, "program-" + P.Name +
                                                      "-lemmas");
    unsigned Hints = sectionOrZero(P.SourceFile, "program-" + P.Name +
                                                     "-hints");
    const auto &F = C->Features;
    auto Has = [&](const char *Name) { return F.count(Name) != 0; };
    std::string LemmaStr = Lemmas ? std::to_string(Lemmas) : "-";
    std::string HintStr = Hints ? std::to_string(Hints) : "-";
    std::printf("%-7s %6u %7s %5s %10s | %5s %6s %6s %5s %8s\n",
                P.Name.c_str(), Source, LemmaStr.c_str(), HintStr.c_str(),
                P.EndToEnd ? "yes" : "no", mark(Has("Arithmetic")),
                mark(Has("Inline")), mark(Has("Arrays")), mark(Has("Loops")),
                mark(Has("Mutation")));
    std::printf("        %s\n", P.Description.c_str());
  }

  std::printf("\n(paper reference — Source/Lemmas/Hints in lines of Coq: "
              "fnv1a 35/-/2, utf8 56/-/6, upstr 21/-/6, m3s 11/-/-, "
              "ip 37/3/7, fasta 19/6/5, crc32 31/16/3; feature matrices "
              "match Table 2)\n");
  return 0;
}
