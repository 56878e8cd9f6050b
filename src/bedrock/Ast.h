//===- bedrock/Ast.h - Bedrock2-like target language AST -------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The target language, modeled on Bedrock2 (Box 2 of the paper): an untyped,
// C-like imperative language. Program state is a flat byte-addressed memory,
// a map of local variables to machine words, and an I/O trace of externally
// observable events. Structured control flow only: sequencing, conditionals,
// while loops, calls. Stack allocation is a lexically scoped primitive.
// Inline tables are per-function constant byte arrays readable by expression.
//
// Words are 64-bit. Memory accesses come in 1/2/4/8-byte sizes, little
// endian, matching what the C backend emits.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_BEDROCK_AST_H
#define RELC_BEDROCK_AST_H

#include "support/Casting.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace relc {
namespace bedrock {

/// Machine word.
using Word = uint64_t;

/// Memory access widths, in bytes.
enum class AccessSize : uint8_t { Byte = 1, Two = 2, Four = 4, Eight = 8 };

/// Byte count of an access.
inline unsigned sizeBytes(AccessSize S) { return unsigned(S); }

/// Binary operators on words. Comparison operators yield 0 or 1.
enum class BinOp {
  Add,
  Sub,
  Mul,
  DivU, ///< Unsigned division; division by zero yields all-ones (like RISC-V).
  RemU, ///< Unsigned remainder; remainder by zero yields the dividend.
  And,
  Or,
  Xor,
  Shl,  ///< Left shift; shift amount taken modulo 64.
  LShr, ///< Logical right shift; amount modulo 64.
  AShr, ///< Arithmetic right shift; amount modulo 64.
  LtU,
  LtS,
  Eq,
  Ne
};

/// Operator spelling in the printed (bedrock-ish) syntax.
const char *binOpName(BinOp Op);

/// Evaluates \p Op on two words (the target language's word semantics; the
/// C backend must agree with this function exactly).
Word evalBinOp(BinOp Op, Word A, Word B);

//===----------------------------------------------------------------------===//
// Expressions.
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Kind { Literal, Var, Load, TableGet, Bin };

  explicit Expr(Kind K) : TheKind(K) {}
  virtual ~Expr() = default;

  Kind kind() const { return TheKind; }

  /// Pretty-prints in bedrock-ish concrete syntax.
  virtual std::string str() const = 0;

private:
  Kind TheKind;
};

using ExprPtr = std::shared_ptr<const Expr>;

class Literal : public Expr {
public:
  explicit Literal(Word Value) : Expr(Kind::Literal), Value(Value) {}

  Word value() const { return Value; }
  std::string str() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::Literal; }

private:
  Word Value;
};

class Var : public Expr {
public:
  explicit Var(std::string Name) : Expr(Kind::Var), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  std::string str() const override { return Name; }

  static bool classof(const Expr *E) { return E->kind() == Kind::Var; }

private:
  std::string Name;
};

/// load<size>(Addr): reads size bytes little-endian, zero-extended to a word.
class Load : public Expr {
public:
  Load(AccessSize Size, ExprPtr Addr)
      : Expr(Kind::Load), Size(Size), Addr(std::move(Addr)) {}

  AccessSize size() const { return Size; }
  const Expr *addr() const { return Addr.get(); }
  std::string str() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::Load; }

private:
  AccessSize Size;
  ExprPtr Addr;
};

/// table<size>(Name, Index): reads entry Index from the named inline table
/// of the enclosing function. Out-of-bounds reads are runtime errors (rule
/// side conditions must rule them out before code is emitted).
class TableGet : public Expr {
public:
  TableGet(AccessSize Size, std::string Table, ExprPtr Index)
      : Expr(Kind::TableGet), Size(Size), Table(std::move(Table)),
        Index(std::move(Index)) {}

  AccessSize size() const { return Size; }
  const std::string &table() const { return Table; }
  const Expr *index() const { return Index.get(); }
  std::string str() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::TableGet; }

private:
  AccessSize Size;
  std::string Table;
  ExprPtr Index;
};

class Bin : public Expr {
public:
  Bin(BinOp Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(Kind::Bin), Op(Op), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}

  BinOp op() const { return Op; }
  const Expr *lhs() const { return Lhs.get(); }
  const Expr *rhs() const { return Rhs.get(); }
  std::string str() const override;

  static bool classof(const Expr *E) { return E->kind() == Kind::Bin; }

private:
  BinOp Op;
  ExprPtr Lhs, Rhs;
};

/// Calls \p Fn for every Var node in \p E (with repetition, in evaluation
/// order). Used by the static analyzer's read-set computations.
void forEachVar(const Expr &E,
                const std::function<void(const std::string &)> &Fn);

/// Convenience constructors.
ExprPtr lit(Word Value);
ExprPtr var(std::string Name);
ExprPtr load(AccessSize Size, ExprPtr Addr);
ExprPtr tableGet(AccessSize Size, std::string Table, ExprPtr Index);
ExprPtr bin(BinOp Op, ExprPtr Lhs, ExprPtr Rhs);
ExprPtr add(ExprPtr L, ExprPtr R);
ExprPtr sub(ExprPtr L, ExprPtr R);
ExprPtr mul(ExprPtr L, ExprPtr R);

//===----------------------------------------------------------------------===//
// Commands (statements).
//===----------------------------------------------------------------------===//

class Cmd {
public:
  enum class Kind {
    Skip,
    Set,
    Unset,
    Store,
    Seq,
    If,
    While,
    Call,
    Stackalloc,
    Interact
  };

  explicit Cmd(Kind K) : TheKind(K) {}
  virtual ~Cmd() = default;

  Kind kind() const { return TheKind; }

  virtual std::string str(unsigned Indent = 0) const = 0;

  /// A straight-line command on one line: str(0) without its trailing
  /// newline, for notes and diagnostics that quote the command.
  std::string line() const;

  /// Number of statement nodes (used for the §4.3 statements/second metric).
  virtual unsigned countStmts() const { return 1; }

private:
  Kind TheKind;
};

using CmdPtr = std::shared_ptr<const Cmd>;

class Skip : public Cmd {
public:
  Skip() : Cmd(Kind::Skip) {}
  std::string str(unsigned Indent) const override;
  unsigned countStmts() const override { return 0; }
  static bool classof(const Cmd *C) { return C->kind() == Kind::Skip; }
};

/// x = e
class Set : public Cmd {
public:
  Set(std::string Name, ExprPtr Value)
      : Cmd(Kind::Set), Name(std::move(Name)), Value(std::move(Value)) {}

  const std::string &name() const { return Name; }
  const Expr *value() const { return Value.get(); }
  std::string str(unsigned Indent) const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Set; }

private:
  std::string Name;
  ExprPtr Value;
};

/// Removes a local from scope (Bedrock2's cmd.unset).
class Unset : public Cmd {
public:
  explicit Unset(std::string Name) : Cmd(Kind::Unset), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }
  std::string str(unsigned Indent) const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Unset; }

private:
  std::string Name;
};

/// store<size>(addr) = value
class Store : public Cmd {
public:
  Store(AccessSize Size, ExprPtr Addr, ExprPtr Value)
      : Cmd(Kind::Store), Size(Size), Addr(std::move(Addr)),
        Value(std::move(Value)) {}

  AccessSize size() const { return Size; }
  const Expr *addr() const { return Addr.get(); }
  const Expr *value() const { return Value.get(); }
  std::string str(unsigned Indent) const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Store; }

private:
  AccessSize Size;
  ExprPtr Addr, Value;
};

class Seq : public Cmd {
public:
  Seq(CmdPtr First, CmdPtr Second)
      : Cmd(Kind::Seq), First(std::move(First)), Second(std::move(Second)) {}

  const Cmd *first() const { return First.get(); }
  const Cmd *second() const { return Second.get(); }
  std::string str(unsigned Indent) const override;
  unsigned countStmts() const override {
    return First->countStmts() + Second->countStmts();
  }

  static bool classof(const Cmd *C) { return C->kind() == Kind::Seq; }

private:
  CmdPtr First, Second;
};

class If : public Cmd {
public:
  If(ExprPtr Cond, CmdPtr Then, CmdPtr Else)
      : Cmd(Kind::If), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  const Expr *cond() const { return Cond.get(); }
  const Cmd *thenCmd() const { return Then.get(); }
  const Cmd *elseCmd() const { return Else.get(); }
  std::string str(unsigned Indent) const override;
  unsigned countStmts() const override {
    return 1 + Then->countStmts() + Else->countStmts();
  }

  static bool classof(const Cmd *C) { return C->kind() == Kind::If; }

private:
  ExprPtr Cond;
  CmdPtr Then, Else;
};

class While : public Cmd {
public:
  While(ExprPtr Cond, CmdPtr Body)
      : Cmd(Kind::While), Cond(std::move(Cond)), Body(std::move(Body)) {}

  const Expr *cond() const { return Cond.get(); }
  const Cmd *body() const { return Body.get(); }
  std::string str(unsigned Indent) const override;
  unsigned countStmts() const override { return 1 + Body->countStmts(); }

  static bool classof(const Cmd *C) { return C->kind() == Kind::While; }

private:
  ExprPtr Cond;
  CmdPtr Body;
};

/// rets... = f(args...)
class Call : public Cmd {
public:
  Call(std::vector<std::string> Rets, std::string Callee,
       std::vector<ExprPtr> Args)
      : Cmd(Kind::Call), Rets(std::move(Rets)), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::vector<std::string> &rets() const { return Rets; }
  const std::string &callee() const { return Callee; }
  const std::vector<ExprPtr> &args() const { return Args; }
  std::string str(unsigned Indent) const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Call; }

private:
  std::vector<std::string> Rets;
  std::string Callee;
  std::vector<ExprPtr> Args;
};

/// stackalloc x[n] { body }: binds x to the address of an n-byte block of
/// scratch memory whose lifetime is the body. Initial contents are
/// unconstrained (the interpreter fills them from a nondeterminism oracle).
class Stackalloc : public Cmd {
public:
  Stackalloc(std::string Name, Word NumBytes, CmdPtr Body)
      : Cmd(Kind::Stackalloc), Name(std::move(Name)), NumBytes(NumBytes),
        Body(std::move(Body)) {}

  const std::string &name() const { return Name; }
  Word numBytes() const { return NumBytes; }
  const Cmd *body() const { return Body.get(); }
  std::string str(unsigned Indent) const override;
  unsigned countStmts() const override { return 1 + Body->countStmts(); }

  static bool classof(const Cmd *C) { return C->kind() == Kind::Stackalloc; }

private:
  std::string Name;
  Word NumBytes;
  CmdPtr Body;
};

/// rets... = external!name(args...): an observable interaction with the
/// environment. Appends an event to the trace; results are chosen by the
/// environment (the interpreter's ExtHandler).
class Interact : public Cmd {
public:
  Interact(std::vector<std::string> Rets, std::string Action,
           std::vector<ExprPtr> Args)
      : Cmd(Kind::Interact), Rets(std::move(Rets)), Action(std::move(Action)),
        Args(std::move(Args)) {}

  const std::vector<std::string> &rets() const { return Rets; }
  const std::string &action() const { return Action; }
  const std::vector<ExprPtr> &args() const { return Args; }
  std::string str(unsigned Indent) const override;

  static bool classof(const Cmd *C) { return C->kind() == Kind::Interact; }

private:
  std::vector<std::string> Rets;
  std::string Action;
  std::vector<ExprPtr> Args;
};

/// Calls \p Fn on \p C, then on every command nested in it, in program
/// order.
void forEachCmd(const Cmd &C, const std::function<void(const Cmd &)> &Fn);

/// Convenience constructors.
CmdPtr skip();
CmdPtr set(std::string Name, ExprPtr Value);
CmdPtr unset(std::string Name);
CmdPtr store(AccessSize Size, ExprPtr Addr, ExprPtr Value);
CmdPtr seq(CmdPtr First, CmdPtr Second);
/// Right-nested sequence of all commands (skip for the empty list).
CmdPtr seqAll(std::vector<CmdPtr> Cmds);
CmdPtr ifThenElse(ExprPtr Cond, CmdPtr Then, CmdPtr Else);
CmdPtr whileLoop(ExprPtr Cond, CmdPtr Body);
CmdPtr call(std::vector<std::string> Rets, std::string Callee,
            std::vector<ExprPtr> Args);
CmdPtr stackalloc(std::string Name, Word NumBytes, CmdPtr Body);
CmdPtr interact(std::vector<std::string> Rets, std::string Action,
                std::vector<ExprPtr> Args);

//===----------------------------------------------------------------------===//
// Functions and modules.
//===----------------------------------------------------------------------===//

/// An inline table: a named constant array local to a function.
struct InlineTable {
  std::string Name;
  AccessSize EltSize = AccessSize::Byte;
  std::vector<Word> Elements; ///< Each entry fits in EltSize bytes.
};

struct Function {
  std::string Name;
  std::vector<std::string> Args;
  std::vector<std::string> Rets;
  std::vector<InlineTable> Tables;
  CmdPtr Body;

  std::string str() const;
  unsigned countStmts() const { return Body ? Body->countStmts() : 0; }

  const InlineTable *findTable(const std::string &TableName) const;
};

/// A compilation unit: an environment of functions (σ in the judgment).
struct Module {
  std::vector<Function> Functions;

  const Function *find(const std::string &Name) const;
  std::string str() const;
};

} // namespace bedrock
} // namespace relc

#endif // RELC_BEDROCK_AST_H
