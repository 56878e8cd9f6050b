//===- support/Result.h - Error handling without exceptions ----*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A small Expected/Error pair in the spirit of llvm::Expected. The library
// never throws: fallible operations return Result<T>, and infallible
// invariants are enforced with assertions.
//
// Success is the common case, so it carries no error state: an Error is
// one pointer to a heap payload (null for a default Error), and a
// Result<T> is a variant of T or Error. A successful Result builds and
// destroys nothing but its T.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SUPPORT_RESULT_H
#define RELC_SUPPORT_RESULT_H

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace relc {

/// A structured error: a primary message plus a stack of context notes added
/// as the error propagates outward (innermost first).
class Error {
public:
  Error() = default;
  explicit Error(std::string Message)
      : P(std::make_unique<Payload>(std::move(Message))) {}
  Error(const Error &O) : P(O.P ? std::make_unique<Payload>(*O.P) : nullptr) {}
  Error(Error &&) noexcept = default;
  Error &operator=(const Error &O) {
    if (this != &O)
      P = O.P ? std::make_unique<Payload>(*O.P) : nullptr;
    return *this;
  }
  Error &operator=(Error &&) noexcept = default;

  const std::string &message() const {
    static const std::string None;
    return P ? P->Message : None;
  }
  const std::vector<std::string> &notes() const {
    static const std::vector<std::string> None;
    return P ? P->Notes : None;
  }

  /// Attaches a context note; returns *this to allow chaining on return.
  Error &note(std::string Note) {
    if (!P)
      P = std::make_unique<Payload>();
    P->Notes.push_back(std::move(Note));
    return *this;
  }

  /// Renders the message followed by indented context notes.
  std::string str() const {
    std::string Out = message();
    for (const std::string &N : notes()) {
      Out += "\n  note: ";
      Out += N;
    }
    return Out;
  }

private:
  struct Payload {
    std::string Message;
    std::vector<std::string> Notes;
  };
  std::unique_ptr<Payload> P;
};

/// Tag type used to construct failed Results unambiguously.
struct ErrorTag {};

/// Result<T> holds either a value of type T or an Error.
///
/// Unlike llvm::Expected there is no "unchecked" poisoning; callers are
/// expected to branch on operator bool before dereferencing (enforced with
/// assertions in debug builds).
template <typename T> class [[nodiscard]] Result {
public:
  /// Success constructors.
  Result(T Value) : Storage(std::in_place_index<0>, std::move(Value)) {}

  /// Failure constructor.
  Result(Error E) : Storage(std::in_place_index<1>, std::move(E)) {}

  /// True on success.
  explicit operator bool() const { return Storage.index() == 0; }

  T &operator*() {
    assert(*this && "dereferencing failed Result");
    return *std::get_if<0>(&Storage);
  }
  const T &operator*() const {
    assert(*this && "dereferencing failed Result");
    return *std::get_if<0>(&Storage);
  }
  T *operator->() {
    assert(*this && "dereferencing failed Result");
    return std::get_if<0>(&Storage);
  }
  const T *operator->() const {
    assert(*this && "dereferencing failed Result");
    return std::get_if<0>(&Storage);
  }

  /// Moves the value out; only valid on success.
  T take() {
    assert(*this && "taking from failed Result");
    return std::move(*std::get_if<0>(&Storage));
  }

  Error &error() {
    assert(!*this && "reading error of successful Result");
    return *std::get_if<1>(&Storage);
  }
  const Error &error() const {
    assert(!*this && "reading error of successful Result");
    return *std::get_if<1>(&Storage);
  }

  /// Moves the error out; only valid on failure. Convenient for propagating
  /// an inner failure with added context:
  ///   return R.takeError().note("while compiling loop body");
  Error takeError() {
    assert(!*this && "taking error of successful Result");
    return std::move(*std::get_if<1>(&Storage));
  }

private:
  std::variant<T, Error> Storage;
};

/// Result<void> analogue: success carries no payload.
class [[nodiscard]] Status {
public:
  Status() = default;
  Status(Error E) : Err(std::move(E)), Failed(true) {}

  static Status success() { return Status(); }

  explicit operator bool() const { return !Failed; }

  Error &error() {
    assert(Failed && "reading error of successful Status");
    return Err;
  }
  const Error &error() const {
    assert(Failed && "reading error of successful Status");
    return Err;
  }
  Error takeError() {
    assert(Failed && "taking error of successful Status");
    return std::move(Err);
  }

private:
  Error Err;
  bool Failed = false;
};

} // namespace relc

#endif // RELC_SUPPORT_RESULT_H
