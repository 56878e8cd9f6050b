//===- programs/Programs.cpp - The Table 2 benchmark suite -----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "programs/Programs.h"

namespace relc {
namespace programs {

const std::vector<ProgramDef> &allPrograms() {
  static const std::vector<ProgramDef> Programs = [] {
    std::vector<ProgramDef> Out;
    Out.push_back(makeFnv1a());
    Out.push_back(makeUtf8());
    Out.push_back(makeUpstr());
    Out.push_back(makeM3s());
    Out.push_back(makeIpChecksum());
    Out.push_back(makeFasta());
    Out.push_back(makeCrc32());
    return Out;
  }();
  return Programs;
}

const ProgramDef *findProgram(const std::string &Name) {
  for (const ProgramDef &P : allPrograms())
    if (P.Name == Name)
      return &P;
  return nullptr;
}

} // namespace programs
} // namespace relc
