//===- cgen/CEmit.cpp - Bedrock2-to-C pretty-printer ------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cgen/CEmit.h"

#include "support/StringExtras.h"

#include <map>
#include <optional>
#include <set>

namespace relc {
namespace cgen {

using namespace bedrock;

namespace {

/// How the locals of a function body get their values.
struct Bindings {
  /// Every `x = e` (the assignments that can make x a byte).
  std::vector<const Set *> Sets;
  /// Locals bound by call and interact returns (never bytes: the value
  /// comes from outside the function being printed).
  std::set<std::string> Opaque;
  /// Stackalloc binders (declared by their scoped block, never bytes).
  std::set<std::string> Scoped;
};

/// Records how each local of \p C is bound.
void collectBindings(const Cmd &C, Bindings *Out) {
  forEachCmd(C, [Out](const Cmd &Sub) {
    if (const auto *S = dyn_cast<Set>(&Sub))
      Out->Sets.push_back(S);
    else if (const auto *Cl = dyn_cast<Call>(&Sub))
      Out->Opaque.insert(Cl->rets().begin(), Cl->rets().end());
    else if (const auto *I = dyn_cast<Interact>(&Sub))
      Out->Opaque.insert(I->rets().begin(), I->rets().end());
    else if (const auto *SA = dyn_cast<Stackalloc>(&Sub))
      Out->Scoped.insert(SA->name());
  });
}

/// Whether \p E is in [0, 255] whenever every local in \p Bytes is: a
/// literal below 256, a byte local, a 1-byte load or table read, or an `&`
/// with such an operand.
bool isByteValued(const Expr &E, const std::set<std::string> &Bytes) {
  switch (E.kind()) {
  case Expr::Kind::Literal:
    return cast<Literal>(&E)->value() < 256;
  case Expr::Kind::Var:
    return Bytes.count(cast<Var>(&E)->name()) != 0;
  case Expr::Kind::Load:
    return cast<Load>(&E)->size() == AccessSize::Byte;
  case Expr::Kind::TableGet:
    return cast<TableGet>(&E)->size() == AccessSize::Byte;
  case Expr::Kind::Bin: {
    const auto *B = cast<Bin>(&E);
    return B->op() == BinOp::And && (isByteValued(*B->lhs(), Bytes) ||
                                     isByteValued(*B->rhs(), Bytes));
  }
  }
  return false;
}

/// The locals of \p Fn that hold a byte at every read: the greatest set of
/// assigned locals, arguments and \p B's opaque and scoped names excluded,
/// whose every assignment is byte-valued under the set itself. Sound
/// because C declares each local `= 0` and, by induction over execution,
/// every store to a member keeps it in [0, 255].
std::set<std::string> byteLocals(const Function &Fn, const Bindings &B) {
  std::set<std::string> Bytes;
  for (const Set *S : B.Sets)
    Bytes.insert(S->name());
  for (const std::string &N : B.Opaque)
    Bytes.erase(N);
  for (const std::string &N : B.Scoped)
    Bytes.erase(N);
  for (const std::string &A : Fn.Args)
    Bytes.erase(A);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const Set *S : B.Sets)
      if (Bytes.count(S->name()) && !isByteValued(*S->value(), Bytes)) {
        Bytes.erase(S->name());
        Changed = true;
      }
  }
  return Bytes;
}

/// Maps Bedrock2 names (which may contain '$') to unique C identifiers.
class NameMap {
public:
  std::string get(const std::string &Name) {
    auto It = Map.find(Name);
    if (It != Map.end())
      return It->second;
    std::string C = sanitizeCIdentifier(replaceAll(Name, "$", "_"));
    while (Used.count(C))
      C += "_";
    Used.insert(C);
    Map.emplace(Name, C);
    return Map.at(Name);
  }

private:
  std::map<std::string, std::string> Map;
  std::set<std::string> Used;
};

const char *intType(AccessSize Size) {
  switch (Size) {
  case AccessSize::Byte:
    return "uint8_t";
  case AccessSize::Two:
    return "uint16_t";
  case AccessSize::Four:
    return "uint32_t";
  case AccessSize::Eight:
    return "uint64_t";
  }
  return "uint8_t";
}

class Emitter {
public:
  Emitter(const Function &Fn, const CEmitOptions &Opts)
      : Fn(Fn), Opts(Opts) {}

  Result<std::string> run() {
    if (Fn.Rets.size() > 1)
      return Error("C emission supports at most one return value (function " +
                   Fn.Name + " has " + std::to_string(Fn.Rets.size()) + ")");

    std::string FnName = Opts.NamePrefix + Fn.Name;
    std::string Sig = (Fn.Rets.empty() ? "void" : "uintptr_t");
    std::string Head;
    if (Opts.StaticFunctions)
      Head += "static ";
    Head += Sig + " " + sanitizeCIdentifier(FnName) + "(";
    for (size_t I = 0; I < Fn.Args.size(); ++I) {
      if (I)
        Head += ", ";
      Head += "uintptr_t " + Names.get(Fn.Args[I]);
    }
    Head += ")";

    std::string Body;
    // Inline tables become static const arrays.
    for (const InlineTable &T : Fn.Tables) {
      Body += "  static const " + std::string(intType(T.EltSize)) + " " +
              Names.get("table_" + T.Name) + "[" +
              std::to_string(T.Elements.size()) + "] = {";
      for (size_t I = 0; I < T.Elements.size(); ++I) {
        if (I)
          Body += ", ";
        if (I % 8 == 0)
          Body += "\n    ";
        Body += hexStr(T.Elements[I]);
      }
      Body += "\n  };\n";
    }

    // Locals assigned anywhere (stackalloc binders aside) are declared up
    // front (Bedrock2 locals are function-scoped words).
    Bindings B;
    collectBindings(*Fn.Body, &B);
    ByteLocals = byteLocals(Fn, B);
    std::set<std::string> Locals = B.Opaque;
    for (const Set *S : B.Sets)
      Locals.insert(S->name());
    for (const std::string &A : Fn.Args)
      Locals.erase(A);
    for (const std::string &L : Locals)
      Body += "  uintptr_t " + Names.get(L) + " = 0;\n";

    Result<std::string> Stmts = emitCmd(*Fn.Body, 1);
    if (!Stmts)
      return Stmts.takeError();
    Body += *Stmts;

    if (!Fn.Rets.empty())
      Body += "  return " + Names.get(Fn.Rets[0]) + ";\n";

    return Head + " {\n" + Body + "}\n";
  }

private:
  const Function &Fn;
  const CEmitOptions &Opts;
  NameMap Names;
  std::set<std::string> ByteLocals;

  std::string pad(unsigned Depth) { return std::string(2 * Depth, ' '); }

  Result<std::string> emitExpr(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::Literal: {
      Word V = cast<Literal>(&E)->value();
      return (V < 1024 ? std::to_string(V) : hexStr(V)) +
             std::string("ull");
    }
    case Expr::Kind::Var:
      return Names.get(cast<Var>(&E)->name());
    case Expr::Kind::Load: {
      const auto *L = cast<Load>(&E);
      Result<std::string> A = emitExpr(*L->addr());
      if (!A)
        return A;
      return "(uintptr_t)(*(const " + std::string(intType(L->size())) +
             " *)(" + *A + "))";
    }
    case Expr::Kind::TableGet: {
      const auto *T = cast<TableGet>(&E);
      Result<std::string> I = emitExpr(*T->index());
      if (!I)
        return I;
      return "(uintptr_t)" + Names.get("table_" + T->table()) + "[" + *I +
             "]";
    }
    case Expr::Kind::Bin: {
      const auto *B = cast<Bin>(&E);
      if (std::optional<ByteRangeCheck> RC = byteRangeCheck(*B)) {
        Result<std::string> X = emitExpr(*RC->X);
        if (!X)
          return X;
        return "((uintptr_t)((uint8_t)(" + *X + " - " +
               std::to_string(RC->C) + "u) < " + std::to_string(RC->K) +
               "u))";
      }
      Result<std::string> L = emitExpr(*B->lhs());
      if (!L)
        return L;
      Result<std::string> R = emitExpr(*B->rhs());
      if (!R)
        return R;
      return emitBin(B->op(), *L, *R, *B->rhs());
    }
    }
    return Error("unknown expression kind");
  }

  /// `(x - c) <u k` with x a byte, 0 < k < 256 and c + k <= 256.
  struct ByteRangeCheck {
    const Expr *X;
    Word C, K;
  };

  /// The one rule that is not a syntax mapping: such a range check prints
  /// as the 8-bit compare `(uint8_t)(x - c) < k`, which GCC vectorizes and
  /// the 64-bit one it does not. Both hold exactly when x is in [c, c + k):
  /// inside it neither subtraction wraps, and below c the 64-bit one wraps
  /// past 2^64 - 256 and the 8-bit one to at least 256 - c >= k (DESIGN.md
  /// §4.4). (k = 0 and k = 256 stay 64-bit: C compilers warn that the
  /// narrow compare is constant.)
  std::optional<ByteRangeCheck> byteRangeCheck(const Bin &B) const {
    const auto *D = dyn_cast<Bin>(B.lhs());
    const auto *K = dyn_cast<Literal>(B.rhs());
    if (B.op() != BinOp::LtU || !D || D->op() != BinOp::Sub || !K)
      return std::nullopt;
    const auto *C = dyn_cast<Literal>(D->rhs());
    if (!C || K->value() == 0 || K->value() >= 256 ||
        C->value() > 256 - K->value() || !isByteValued(*D->lhs(), ByteLocals))
      return std::nullopt;
    return ByteRangeCheck{D->lhs(), C->value(), K->value()};
  }

  /// Shift amounts: constants below 64 print bare; anything else is masked
  /// to match the target semantics (C makes oversize shifts undefined).
  static bool isSmallConstant(const Expr &E) {
    const auto *L = dyn_cast<Literal>(&E);
    return L && L->value() < 64;
  }

  Result<std::string> emitBin(BinOp Op, const std::string &L,
                              const std::string &R, const Expr &RhsExpr) {
    auto Infix = [&](const char *O) {
      return "(" + L + " " + O + " " + R + ")";
    };
    auto Shift = [&](const char *O) {
      if (isSmallConstant(RhsExpr))
        return "(" + L + " " + O + " " + R + ")";
      return "(" + L + " " + O + " (" + R + " & 63))";
    };
    switch (Op) {
    case BinOp::Add:
      return Infix("+");
    case BinOp::Sub:
      return Infix("-");
    case BinOp::Mul:
      return Infix("*");
    case BinOp::DivU:
      return Infix("/"); // Guarded by rule side conditions; see header.
    case BinOp::RemU:
      return Infix("%");
    case BinOp::And:
      return Infix("&");
    case BinOp::Or:
      return Infix("|");
    case BinOp::Xor:
      return Infix("^");
    case BinOp::Shl:
      return Shift("<<");
    case BinOp::LShr:
      return Shift(">>");
    case BinOp::AShr:
      if (isSmallConstant(RhsExpr))
        return "((uintptr_t)((int64_t)" + L + " >> " + R + "))";
      return "((uintptr_t)((int64_t)" + L + " >> (" + R + " & 63)))";
    case BinOp::LtU:
      return "((uintptr_t)(" + L + " < " + R + "))";
    case BinOp::LtS:
      return "((uintptr_t)((int64_t)" + L + " < (int64_t)" + R + "))";
    case BinOp::Eq:
      return "((uintptr_t)(" + L + " == " + R + "))";
    case BinOp::Ne:
      return "((uintptr_t)(" + L + " != " + R + "))";
    }
    return Error("unknown binary operator");
  }

  Result<std::string> emitCmd(const Cmd &C, unsigned Depth) {
    switch (C.kind()) {
    case Cmd::Kind::Skip:
      return std::string();

    case Cmd::Kind::Set: {
      const auto *S = cast<Set>(&C);
      Result<std::string> V = emitExpr(*S->value());
      if (!V)
        return V;
      return pad(Depth) + Names.get(S->name()) + " = " + *V + ";\n";
    }

    case Cmd::Kind::Unset:
      return std::string(); // Scope bookkeeping only; no C effect.

    case Cmd::Kind::Store: {
      const auto *S = cast<Store>(&C);
      Result<std::string> A = emitExpr(*S->addr());
      if (!A)
        return A;
      Result<std::string> V = emitExpr(*S->value());
      if (!V)
        return V;
      return pad(Depth) + "*(" + intType(S->size()) + " *)(" + *A + ") = (" +
             intType(S->size()) + ")(" + *V + ");\n";
    }

    case Cmd::Kind::Seq: {
      const auto *S = cast<Seq>(&C);
      Result<std::string> A = emitCmd(*S->first(), Depth);
      if (!A)
        return A;
      Result<std::string> B = emitCmd(*S->second(), Depth);
      if (!B)
        return B;
      return *A + *B;
    }

    case Cmd::Kind::If: {
      const auto *I = cast<If>(&C);
      Result<std::string> Cond = emitExpr(*I->cond());
      if (!Cond)
        return Cond;
      // Idiom: `if (c) x = a; else x = b;` prints as the conditional
      // expression a C programmer would write (and optimizers vectorize).
      if (const auto *TS = dyn_cast<Set>(I->thenCmd()))
        if (const auto *ES = dyn_cast<Set>(I->elseCmd()))
          if (TS->name() == ES->name()) {
            Result<std::string> A = emitExpr(*TS->value());
            if (!A)
              return A;
            Result<std::string> B = emitExpr(*ES->value());
            if (!B)
              return B;
            return pad(Depth) + Names.get(TS->name()) + " = " + *Cond +
                   " ? " + *A + " : " + *B + ";\n";
          }
      Result<std::string> T = emitCmd(*I->thenCmd(), Depth + 1);
      if (!T)
        return T;
      std::string Out = pad(Depth) + "if (" + *Cond + ") {\n" + *T;
      if (!isa<Skip>(I->elseCmd())) {
        Result<std::string> E = emitCmd(*I->elseCmd(), Depth + 1);
        if (!E)
          return E;
        Out += pad(Depth) + "} else {\n" + *E;
      }
      return Out + pad(Depth) + "}\n";
    }

    case Cmd::Kind::While: {
      const auto *W = cast<While>(&C);
      Result<std::string> Cond = emitExpr(*W->cond());
      if (!Cond)
        return Cond;
      Result<std::string> B = emitCmd(*W->body(), Depth + 1);
      if (!B)
        return B;
      return pad(Depth) + "while (" + *Cond + ") {\n" + *B + pad(Depth) +
             "}\n";
    }

    case Cmd::Kind::Call: {
      const auto *Cl = cast<Call>(&C);
      if (Cl->rets().size() > 1)
        return Error("C emission: call with multiple returns");
      std::string Args;
      for (size_t I = 0; I < Cl->args().size(); ++I) {
        if (I)
          Args += ", ";
        Result<std::string> A = emitExpr(*Cl->args()[I]);
        if (!A)
          return A;
        Args += *A;
      }
      std::string Out = pad(Depth);
      if (!Cl->rets().empty())
        Out += Names.get(Cl->rets()[0]) + " = ";
      Out += sanitizeCIdentifier(Opts.NamePrefix + Cl->callee()) + "(" + Args +
             ");\n";
      return Out;
    }

    case Cmd::Kind::Stackalloc: {
      const auto *S = cast<Stackalloc>(&C);
      Result<std::string> B = emitCmd(*S->body(), Depth + 1);
      if (!B)
        return B;
      std::string Buf = Names.get(S->name() + "$buf");
      std::string Ptr = Names.get(S->name());
      return pad(Depth) + "{\n" + pad(Depth + 1) + "uint8_t " + Buf + "[" +
             std::to_string(S->numBytes() ? S->numBytes() : 1) + "];\n" +
             pad(Depth + 1) + "uintptr_t " + Ptr + " = (uintptr_t)" + Buf +
             ";\n" + *B + pad(Depth) + "}\n";
    }

    case Cmd::Kind::Interact: {
      const auto *I = cast<Interact>(&C);
      if (I->action() == "read" && I->args().empty() &&
          I->rets().size() == 1)
        return pad(Depth) + Names.get(I->rets()[0]) + " = relc_ext_read();\n";
      if (I->action() == "write" && I->args().size() == 1 &&
          I->rets().empty()) {
        Result<std::string> A = emitExpr(*I->args()[0]);
        if (!A)
          return A;
        return pad(Depth) + "relc_ext_write(" + *A + ");\n";
      }
      return Error("C emission: unknown external action '" + I->action() +
                   "'");
    }
    }
    return Error("unknown command kind");
  }
};

} // namespace

std::string cPrelude() {
  return "#include <stdint.h>\n"
         "\n"
         "/* Environment hooks for externally observable interactions. */\n"
         "extern uintptr_t relc_ext_read(void);\n"
         "extern void relc_ext_write(uintptr_t w);\n"
         "\n";
}

Result<std::string> emitFunction(const Function &Fn, const CEmitOptions &Opts) {
  Emitter E(Fn, Opts);
  return E.run();
}

Result<std::string> emitModule(const Module &Mod, const CEmitOptions &Opts) {
  std::string Out = "/* Generated by relc (relational compilation); do not "
                    "edit. */\n" +
                    cPrelude();
  // Forward declarations allow any call order.
  for (const Function &Fn : Mod.Functions) {
    if (Fn.Rets.size() > 1)
      return Error("C emission supports at most one return value");
    Out += std::string(Opts.StaticFunctions ? "static " : "") +
           (Fn.Rets.empty() ? "void" : "uintptr_t") + " " +
           sanitizeCIdentifier(Opts.NamePrefix + Fn.Name) + "(";
    for (size_t I = 0; I < Fn.Args.size(); ++I)
      Out += std::string(I ? ", " : "") + "uintptr_t";
    Out += ");\n";
  }
  Out += "\n";
  for (const Function &Fn : Mod.Functions) {
    Result<std::string> F = emitFunction(Fn, Opts);
    if (!F)
      return F.takeError().note("while emitting " + Fn.Name);
    Out += *F + "\n";
  }
  return Out;
}

} // namespace cgen
} // namespace relc
