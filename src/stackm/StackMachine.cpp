//===- stackm/StackMachine.cpp - The §2 demonstration pair ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "stackm/StackMachine.h"

#include "support/Rng.h"

#include <algorithm>

namespace relc {
namespace stackm {

SExprPtr sInt(int64_t Value) { return std::make_shared<SInt>(Value); }
SExprPtr sAdd(SExprPtr Lhs, SExprPtr Rhs) {
  return std::make_shared<SAdd>(std::move(Lhs), std::move(Rhs));
}
SExprPtr sMul(SExprPtr Lhs, SExprPtr Rhs) {
  return std::make_shared<SMul>(std::move(Lhs), std::move(Rhs));
}

// Both languages compute in two's-complement int64: sums and products wrap
// (signed overflow would be undefined behaviour), identically on both sides.
static int64_t wrapAdd(int64_t A, int64_t B) {
  return int64_t(uint64_t(A) + uint64_t(B));
}
static int64_t wrapMul(int64_t A, int64_t B) {
  return int64_t(uint64_t(A) * uint64_t(B));
}

int64_t evalS(const SExpr &E) {
  if (const auto *I = dyn_cast<SInt>(&E))
    return I->value();
  if (const auto *A = dyn_cast<SAdd>(&E))
    return wrapAdd(evalS(*A->lhs()), evalS(*A->rhs()));
  const auto *M = cast<SMul>(&E);
  return wrapMul(evalS(*M->lhs()), evalS(*M->rhs()));
}

std::string TOp::str() const {
  switch (TheKind) {
  case Kind::Push:
    return "Push " + std::to_string(Imm);
  case Kind::PopAdd:
    return "PopAdd";
  case Kind::PopMul:
    return "PopMul";
  }
  return "?";
}

std::string str(const TProgram &P) {
  std::string Out = "[";
  for (size_t I = 0; I < P.size(); ++I) {
    if (I != 0)
      Out += "; ";
    Out += P[I].str();
  }
  return Out + "]";
}

std::vector<int64_t> evalT(const TProgram &P, std::vector<int64_t> Stack) {
  return evalT(P, std::move(Stack), nullptr);
}

std::vector<int64_t> evalT(const TProgram &P, std::vector<int64_t> Stack,
                           size_t *MaxDepth) {
  size_t Max = Stack.size();
  // 𝜎Op folded over the program, as in the paper. Invalid pops are no-ops.
  for (const TOp &Op : P) {
    switch (Op.TheKind) {
    case TOp::Kind::Push:
      Stack.push_back(Op.Imm);
      Max = std::max(Max, Stack.size());
      break;
    case TOp::Kind::PopAdd:
    case TOp::Kind::PopMul: {
      if (Stack.size() < 2)
        break;
      int64_t Z2 = Stack.back();
      Stack.pop_back();
      int64_t Z1 = Stack.back();
      Stack.pop_back();
      Stack.push_back(Op.TheKind == TOp::Kind::PopAdd ? wrapAdd(Z1, Z2)
                                                      : wrapMul(Z1, Z2));
      break;
    }
    }
  }
  if (MaxDepth)
    *MaxDepth = Max;
  return Stack;
}

//===----------------------------------------------------------------------===//
// Traditional compiler.
//===----------------------------------------------------------------------===//

Result<TProgram> compileStoT(const SExpr &E) {
  if (const auto *I = dyn_cast<SInt>(&E))
    return TProgram{TOp::push(I->value())};
  if (const auto *A = dyn_cast<SAdd>(&E)) {
    Result<TProgram> L = compileStoT(*A->lhs());
    if (!L)
      return L.takeError();
    Result<TProgram> R = compileStoT(*A->rhs());
    if (!R)
      return R.takeError();
    TProgram Out = L.take();
    TProgram Rhs = R.take();
    Out.insert(Out.end(), Rhs.begin(), Rhs.end());
    Out.push_back(TOp::popAdd());
    return Out;
  }
  // The monolithic compiler is closed: SMul is out of its language. This is
  // exactly the contrast §2.3 draws with the open-ended relational compiler.
  return Error("StoT: unsupported construct: " + E.str());
}

//===----------------------------------------------------------------------===//
// Derivations.
//===----------------------------------------------------------------------===//

std::string Derivation::str(unsigned Indent) const {
  std::string Pad(Indent, ' ');
  std::string Out = Pad + RuleName + "  ⊢  " + stackm::str(Emitted) + "  ~  " +
                    (Source ? Source->str() : "?") + "\n";
  for (const auto &C : Children)
    Out += C->str(Indent + 2);
  return Out;
}

unsigned Derivation::size() const {
  unsigned N = 1;
  for (const auto &C : Children)
    N += C->size();
  return N;
}

//===----------------------------------------------------------------------===//
// Rules: one object per lemma.
//===----------------------------------------------------------------------===//

namespace {

/// StoT_RInt: [TPush z] ~ SInt z.
class IntRule : public SRule {
public:
  std::string name() const override { return "StoT_RInt"; }
  bool matches(const SExpr &Goal) const override { return isa<SInt>(&Goal); }
  std::vector<SExprPtr> premises(const SExpr &) const override { return {}; }
  TProgram assemble(const SExpr &Goal,
                    const std::vector<TProgram> &) const override {
    return {TOp::push(cast<SInt>(&Goal)->value())};
  }
};

/// StoT_RAdd: t1 ~ s1 -> t2 ~ s2 -> t1 ++ t2 ++ [TPopAdd] ~ SAdd s1 s2.
class AddRule : public SRule {
public:
  std::string name() const override { return "StoT_RAdd"; }
  bool matches(const SExpr &Goal) const override { return isa<SAdd>(&Goal); }
  std::vector<SExprPtr> premises(const SExpr &Goal) const override {
    const auto *A = cast<SAdd>(&Goal);
    return {A->lhsPtr(), A->rhsPtr()};
  }
  TProgram assemble(const SExpr &,
                    const std::vector<TProgram> &Parts) const override {
    TProgram Out = Parts[0];
    Out.insert(Out.end(), Parts[1].begin(), Parts[1].end());
    Out.push_back(TOp::popAdd());
    return Out;
  }
};

/// Extension: t1 ~ s1 -> t2 ~ s2 -> t1 ++ t2 ++ [TPopMul] ~ SMul s1 s2.
class MulRule : public SRule {
public:
  std::string name() const override { return "Ext_RMul"; }
  bool matches(const SExpr &Goal) const override { return isa<SMul>(&Goal); }
  std::vector<SExprPtr> premises(const SExpr &Goal) const override {
    const auto *M = cast<SMul>(&Goal);
    return {M->lhsPtr(), M->rhsPtr()};
  }
  TProgram assemble(const SExpr &,
                    const std::vector<TProgram> &Parts) const override {
    TProgram Out = Parts[0];
    Out.insert(Out.end(), Parts[1].begin(), Parts[1].end());
    Out.push_back(TOp::popMul());
    return Out;
  }
};

/// True iff \p E is built only from supported constructs (so evalS is its
/// meaning under the trusted semantics).
bool isClosedArith(const SExpr &E) {
  if (isa<SInt>(&E))
    return true;
  if (const auto *A = dyn_cast<SAdd>(&E))
    return isClosedArith(*A->lhs()) && isClosedArith(*A->rhs());
  if (const auto *M = dyn_cast<SMul>(&E))
    return isClosedArith(*M->lhs()) && isClosedArith(*M->rhs());
  return false;
}

/// Extension: for any closed constant subtree s, [TPush (𝜎S s)] ~ s.
/// Demonstrates a semantic (not purely syntactic) rule: its side condition
/// is discharged by evaluation, and the derivation records the folded value
/// so the checker can re-discharge it.
class ConstFoldRule : public SRule {
public:
  std::string name() const override { return "Ext_RConstFold"; }
  bool matches(const SExpr &Goal) const override {
    // Only worth applying when it actually folds a compound term.
    return !isa<SInt>(&Goal) && isClosedArith(Goal);
  }
  std::vector<SExprPtr> premises(const SExpr &) const override { return {}; }
  TProgram assemble(const SExpr &Goal,
                    const std::vector<TProgram> &) const override {
    return {TOp::push(evalS(Goal))};
  }
};

} // namespace

std::unique_ptr<SRule> makeIntRule() { return std::make_unique<IntRule>(); }
std::unique_ptr<SRule> makeAddRule() { return std::make_unique<AddRule>(); }
std::unique_ptr<SRule> makeMulRule() { return std::make_unique<MulRule>(); }
std::unique_ptr<SRule> makeConstFoldRule() {
  return std::make_unique<ConstFoldRule>();
}

SRuleSet SRuleSet::base() {
  SRuleSet RS;
  RS.add(makeIntRule());
  RS.add(makeAddRule());
  return RS;
}

void SRuleSet::add(std::unique_ptr<SRule> Rule) {
  Rules.push_back(std::move(Rule));
}

void SRuleSet::addFront(std::unique_ptr<SRule> Rule) {
  Rules.insert(Rules.begin(), std::move(Rule));
}

//===----------------------------------------------------------------------===//
// Proof-search driver.
//===----------------------------------------------------------------------===//

Result<CompiledS> compileRelational(const SRuleSet &Rules, SExprPtr Source) {
  assert(Source && "null source");
  // First-applicable-rule, no backtracking: predictable search (§3.1).
  for (const auto &Rule : Rules.rules()) {
    if (!Rule->matches(*Source))
      continue;
    std::vector<SExprPtr> Premises = Rule->premises(*Source);
    std::vector<TProgram> Parts;
    auto Node = std::make_unique<Derivation>();
    for (const SExprPtr &P : Premises) {
      Result<CompiledS> Sub = compileRelational(Rules, P);
      if (!Sub)
        return Sub.takeError().note("while proving premise of " +
                                    Rule->name() + " for " + Source->str());
      Parts.push_back(Sub->Program);
      Node->Children.push_back(std::move(Sub->Proof));
    }
    TProgram Out = Rule->assemble(*Source, Parts);
    Node->RuleName = Rule->name();
    Node->Source = Source;
    Node->Emitted = Out;
    Node->Goal = "?t ~ " + Source->str();
    return CompiledS{std::move(Out), std::move(Node)};
  }
  return Error("unsolved goal: ?t ~ " + Source->str() +
               " (no applicable rule; register a lemma for this construct)");
}

//===----------------------------------------------------------------------===//
// Derivation replay: the trusted checker.
//===----------------------------------------------------------------------===//

static TProgram concatWith(const std::vector<const TProgram *> &Parts,
                           TOp Last) {
  TProgram Out;
  for (const TProgram *P : Parts)
    Out.insert(Out.end(), P->begin(), P->end());
  Out.push_back(Last);
  return Out;
}

Status checkDerivation(const Derivation &D) {
  if (!D.Source)
    return Error("derivation node without source term");

  // Children must be valid derivations first (inside-out checking).
  for (const auto &C : D.Children) {
    Status S = checkDerivation(*C);
    if (!S)
      return S.takeError().note("in subderivation of " + D.RuleName);
  }

  const SExpr &Src = *D.Source;
  auto Mismatch = [&](const std::string &Why) -> Status {
    return Error("derivation check failed for rule " + D.RuleName + ": " +
                 Why + " (goal " + D.Goal + ")");
  };

  if (D.RuleName == "StoT_RInt") {
    const auto *I = dyn_cast<SInt>(&Src);
    if (!I)
      return Mismatch("conclusion is not SInt");
    if (!D.Children.empty())
      return Mismatch("StoT_RInt has no premises");
    if (!(D.Emitted == TProgram{TOp::push(I->value())}))
      return Mismatch("emitted program is not [Push z]");
    return Status::success();
  }

  if (D.RuleName == "StoT_RAdd" || D.RuleName == "Ext_RMul") {
    bool IsAdd = D.RuleName == "StoT_RAdd";
    const SExpr *L = nullptr, *R = nullptr;
    if (const auto *A = dyn_cast<SAdd>(&Src); A && IsAdd) {
      L = A->lhs();
      R = A->rhs();
    } else if (const auto *M = dyn_cast<SMul>(&Src); M && !IsAdd) {
      L = M->lhs();
      R = M->rhs();
    } else {
      return Mismatch("conclusion does not match rule head");
    }
    if (D.Children.size() != 2)
      return Mismatch("expected exactly two premises");
    if (D.Children[0]->Source.get() != L &&
        D.Children[0]->Source->str() != L->str())
      return Mismatch("first premise certifies the wrong subterm");
    if (D.Children[1]->Source.get() != R &&
        D.Children[1]->Source->str() != R->str())
      return Mismatch("second premise certifies the wrong subterm");
    TProgram Expect =
        concatWith({&D.Children[0]->Emitted, &D.Children[1]->Emitted},
                   IsAdd ? TOp::popAdd() : TOp::popMul());
    if (!(D.Emitted == Expect))
      return Mismatch("emitted program is not t1 ++ t2 ++ [op]");
    return Status::success();
  }

  if (D.RuleName == "Ext_RConstFold") {
    if (!D.Children.empty())
      return Mismatch("Ext_RConstFold has no premises");
    if (!isClosedArith(Src))
      return Mismatch("side condition failed: source is not closed");
    if (!(D.Emitted == TProgram{TOp::push(evalS(Src))}))
      return Mismatch("folded constant does not match 𝜎S of the source");
    return Status::success();
  }

  return Mismatch("unknown rule (not in the trusted schema set)");
}

Status checkEquivalence(const TProgram &P, const SExpr &E) {
  int64_t Expect = evalS(E);
  Rng R(0xd3adb33f);
  // ∀ zs, 𝜎T t zs = 𝜎S s :: zs — tested on the empty stack plus random ones.
  for (unsigned Trial = 0; Trial < 32; ++Trial) {
    std::vector<int64_t> Stack;
    for (uint64_t I = 0, N = Trial == 0 ? 0 : R.below(6); I < N; ++I)
      Stack.push_back(static_cast<int64_t>(R.next()));
    std::vector<int64_t> Want = Stack;
    Want.push_back(Expect);
    std::vector<int64_t> Got = evalT(P, Stack);
    if (Got != Want)
      return Error("equivalence check failed: 𝜎T(t, zs) != 𝜎S(s) :: zs for " +
                   E.str());
  }
  return Status::success();
}

} // namespace stackm
} // namespace relc
