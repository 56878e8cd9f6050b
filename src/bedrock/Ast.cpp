//===- bedrock/Ast.cpp - Bedrock2-like target language AST ----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "bedrock/Ast.h"

#include "support/StringExtras.h"

#include <cassert>

namespace relc {
namespace bedrock {

const char *binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::DivU:
    return "/u";
  case BinOp::RemU:
    return "%u";
  case BinOp::And:
    return "&";
  case BinOp::Or:
    return "|";
  case BinOp::Xor:
    return "^";
  case BinOp::Shl:
    return "<<";
  case BinOp::LShr:
    return ">>u";
  case BinOp::AShr:
    return ">>s";
  case BinOp::LtU:
    return "<u";
  case BinOp::LtS:
    return "<s";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  }
  return "?";
}

Word evalBinOp(BinOp Op, Word A, Word B) {
  switch (Op) {
  case BinOp::Add:
    return A + B;
  case BinOp::Sub:
    return A - B;
  case BinOp::Mul:
    return A * B;
  case BinOp::DivU:
    return B == 0 ? ~Word(0) : A / B; // RISC-V convention.
  case BinOp::RemU:
    return B == 0 ? A : A % B; // RISC-V convention.
  case BinOp::And:
    return A & B;
  case BinOp::Or:
    return A | B;
  case BinOp::Xor:
    return A ^ B;
  case BinOp::Shl:
    return A << (B & 63);
  case BinOp::LShr:
    return A >> (B & 63);
  case BinOp::AShr:
    return static_cast<Word>(static_cast<int64_t>(A) >> (B & 63));
  case BinOp::LtU:
    return A < B ? 1 : 0;
  case BinOp::LtS:
    return static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0;
  case BinOp::Eq:
    return A == B ? 1 : 0;
  case BinOp::Ne:
    return A != B ? 1 : 0;
  }
  assert(false && "unknown binop");
  return 0;
}

//===----------------------------------------------------------------------===//
// Expression printing.
//===----------------------------------------------------------------------===//

std::string Literal::str() const {
  // Small constants print in decimal, larger ones in hex for readability.
  if (Value < 1024)
    return std::to_string(Value);
  return hexStr(Value);
}

std::string Load::str() const {
  return "load" + std::to_string(unsigned(Size)) + "(" + Addr->str() + ")";
}

std::string TableGet::str() const {
  return "table" + std::to_string(unsigned(Size)) + "(" + Table + ", " +
         Index->str() + ")";
}

std::string Bin::str() const {
  return "(" + Lhs->str() + " " + binOpName(Op) + " " + Rhs->str() + ")";
}

void forEachVar(const Expr &E,
                const std::function<void(const std::string &)> &Fn) {
  switch (E.kind()) {
  case Expr::Kind::Literal:
    return;
  case Expr::Kind::Var:
    Fn(cast<Var>(&E)->name());
    return;
  case Expr::Kind::Load:
    forEachVar(*cast<Load>(&E)->addr(), Fn);
    return;
  case Expr::Kind::TableGet:
    forEachVar(*cast<TableGet>(&E)->index(), Fn);
    return;
  case Expr::Kind::Bin:
    forEachVar(*cast<Bin>(&E)->lhs(), Fn);
    forEachVar(*cast<Bin>(&E)->rhs(), Fn);
    return;
  }
}

ExprPtr lit(Word Value) { return std::make_shared<Literal>(Value); }
ExprPtr var(std::string Name) { return std::make_shared<Var>(std::move(Name)); }
ExprPtr load(AccessSize Size, ExprPtr Addr) {
  return std::make_shared<Load>(Size, std::move(Addr));
}
ExprPtr tableGet(AccessSize Size, std::string Table, ExprPtr Index) {
  return std::make_shared<TableGet>(Size, std::move(Table), std::move(Index));
}
ExprPtr bin(BinOp Op, ExprPtr Lhs, ExprPtr Rhs) {
  return std::make_shared<Bin>(Op, std::move(Lhs), std::move(Rhs));
}
ExprPtr add(ExprPtr L, ExprPtr R) {
  return bin(BinOp::Add, std::move(L), std::move(R));
}
ExprPtr sub(ExprPtr L, ExprPtr R) {
  return bin(BinOp::Sub, std::move(L), std::move(R));
}
ExprPtr mul(ExprPtr L, ExprPtr R) {
  return bin(BinOp::Mul, std::move(L), std::move(R));
}

//===----------------------------------------------------------------------===//
// Command printing.
//===----------------------------------------------------------------------===//

static std::string pad(unsigned Indent) { return std::string(Indent, ' '); }

void forEachCmd(const Cmd &C, const std::function<void(const Cmd &)> &Fn) {
  Fn(C);
  if (const auto *S = dyn_cast<Seq>(&C)) {
    forEachCmd(*S->first(), Fn);
    forEachCmd(*S->second(), Fn);
  } else if (const auto *I = dyn_cast<If>(&C)) {
    forEachCmd(*I->thenCmd(), Fn);
    forEachCmd(*I->elseCmd(), Fn);
  } else if (const auto *W = dyn_cast<While>(&C)) {
    forEachCmd(*W->body(), Fn);
  } else if (const auto *SA = dyn_cast<Stackalloc>(&C)) {
    forEachCmd(*SA->body(), Fn);
  }
}

std::string Cmd::line() const {
  std::string Out = str(0);
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == ' '))
    Out.pop_back();
  return Out;
}

std::string Skip::str(unsigned Indent) const {
  return pad(Indent) + "/*skip*/\n";
}

std::string Set::str(unsigned Indent) const {
  return pad(Indent) + Name + " = " + Value->str() + "\n";
}

std::string Unset::str(unsigned Indent) const {
  return pad(Indent) + "unset " + Name + "\n";
}

std::string Store::str(unsigned Indent) const {
  return pad(Indent) + "store" + std::to_string(unsigned(Size)) + "(" +
         Addr->str() + ") = " + Value->str() + "\n";
}

std::string Seq::str(unsigned Indent) const {
  return First->str(Indent) + Second->str(Indent);
}

std::string If::str(unsigned Indent) const {
  std::string Out = pad(Indent) + "if (" + Cond->str() + ") {\n";
  Out += Then->str(Indent + 2);
  if (!isa<Skip>(Else.get())) {
    Out += pad(Indent) + "} else {\n";
    Out += Else->str(Indent + 2);
  }
  Out += pad(Indent) + "}\n";
  return Out;
}

std::string While::str(unsigned Indent) const {
  std::string Out = pad(Indent) + "while (" + Cond->str() + ") {\n";
  Out += Body->str(Indent + 2);
  Out += pad(Indent) + "}\n";
  return Out;
}

std::string Call::str(unsigned Indent) const {
  std::vector<std::string> ArgStrs;
  for (const ExprPtr &A : Args)
    ArgStrs.push_back(A->str());
  std::string Out = pad(Indent);
  if (!Rets.empty())
    Out += join(Rets, ", ") + " = ";
  Out += Callee + "(" + join(ArgStrs, ", ") + ")\n";
  return Out;
}

std::string Stackalloc::str(unsigned Indent) const {
  std::string Out = pad(Indent) + "stackalloc " + Name + "[" +
                    std::to_string(NumBytes) + "] {\n";
  Out += Body->str(Indent + 2);
  Out += pad(Indent) + "}\n";
  return Out;
}

std::string Interact::str(unsigned Indent) const {
  std::vector<std::string> ArgStrs;
  for (const ExprPtr &A : Args)
    ArgStrs.push_back(A->str());
  std::string Out = pad(Indent);
  if (!Rets.empty())
    Out += join(Rets, ", ") + " = ";
  Out += "external!" + Action + "(" + join(ArgStrs, ", ") + ")\n";
  return Out;
}

CmdPtr skip() { return std::make_shared<Skip>(); }
CmdPtr set(std::string Name, ExprPtr Value) {
  return std::make_shared<Set>(std::move(Name), std::move(Value));
}
CmdPtr unset(std::string Name) {
  return std::make_shared<Unset>(std::move(Name));
}
CmdPtr store(AccessSize Size, ExprPtr Addr, ExprPtr Value) {
  return std::make_shared<Store>(Size, std::move(Addr), std::move(Value));
}
CmdPtr seq(CmdPtr First, CmdPtr Second) {
  return std::make_shared<Seq>(std::move(First), std::move(Second));
}
CmdPtr seqAll(std::vector<CmdPtr> Cmds) {
  if (Cmds.empty())
    return skip();
  CmdPtr Out = Cmds.back();
  for (size_t I = Cmds.size() - 1; I-- > 0;)
    Out = seq(Cmds[I], Out);
  return Out;
}
CmdPtr ifThenElse(ExprPtr Cond, CmdPtr Then, CmdPtr Else) {
  return std::make_shared<If>(std::move(Cond), std::move(Then),
                              std::move(Else));
}
CmdPtr whileLoop(ExprPtr Cond, CmdPtr Body) {
  return std::make_shared<While>(std::move(Cond), std::move(Body));
}
CmdPtr call(std::vector<std::string> Rets, std::string Callee,
            std::vector<ExprPtr> Args) {
  return std::make_shared<Call>(std::move(Rets), std::move(Callee),
                                std::move(Args));
}
CmdPtr stackalloc(std::string Name, Word NumBytes, CmdPtr Body) {
  return std::make_shared<Stackalloc>(std::move(Name), NumBytes,
                                      std::move(Body));
}
CmdPtr interact(std::vector<std::string> Rets, std::string Action,
                std::vector<ExprPtr> Args) {
  return std::make_shared<Interact>(std::move(Rets), std::move(Action),
                                    std::move(Args));
}

//===----------------------------------------------------------------------===//
// Functions and modules.
//===----------------------------------------------------------------------===//

std::string Function::str() const {
  std::string Out = "func " + Name + "(" + join(Args, ", ") + ")";
  if (!Rets.empty())
    Out += " -> (" + join(Rets, ", ") + ")";
  Out += " {\n";
  for (const InlineTable &T : Tables)
    Out += "  table " + T.Name + "[" + std::to_string(T.Elements.size()) +
           " x " + std::to_string(unsigned(T.EltSize)) + "B]\n";
  if (Body)
    Out += Body->str(2);
  Out += "}\n";
  return Out;
}

const InlineTable *Function::findTable(const std::string &TableName) const {
  for (const InlineTable &T : Tables)
    if (T.Name == TableName)
      return &T;
  return nullptr;
}

const Function *Module::find(const std::string &Name) const {
  for (const Function &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

std::string Module::str() const {
  std::string Out;
  for (const Function &F : Functions)
    Out += F.str() + "\n";
  return Out;
}

} // namespace bedrock
} // namespace relc
