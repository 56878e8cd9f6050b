//===- examples/effects_tour.cpp - Intensional & extensional effects -------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A tour of §3.4.1's effect taxonomy on three small programs:
//
//   - cells (intensional state): a compare-and-swap over a mutable cell —
//     the exact example §3.4.2 uses to motivate join-point inference;
//   - io (extensional): an echo-and-accumulate loop over the input tape,
//     with trace equality checked by the validator;
//   - nondet (extensional): an allocation of unspecified bytes whose spec
//     is the paper's "λ l ⇒ length l = n" predicate — validation checks
//     the predicate, not value equality.
//
//===----------------------------------------------------------------------===//

#include "ir/Build.h"
#include "pipeline/Pipeline.h"

#include <cstdio>

using namespace relc;
using namespace relc::ir;

static bool runOne(const char *Title, const SourceFn &Model,
                   const sep::FnSpec &Spec,
                   validate::ValidationOptions VOpts = {}) {
  programs::ProgramDef Def;
  Def.Name = Spec.TargetName;
  Def.Model = Model;
  Def.Spec = Spec;
  Def.VOpts = std::move(VOpts);
  std::vector<pipeline::ProgramOutcome> Out =
      pipeline::certifyPrograms({&Def}, {});
  if (!Out[0].CompileOk) {
    std::fprintf(stderr, "[%s] compilation failed:\n%s\n", Title,
                 Out[0].CompileError.c_str());
    return false;
  }
  if (!Out[0].ok()) {
    std::fprintf(stderr, "[%s] certification failed:\n%s\n", Title,
                 Out[0].ValidationError.c_str());
    return false;
  }
  std::printf("=== %s ===\n%s\n", Title, Out[0].Compiled.Fn.str().c_str());
  return true;
}

int main() {
  bool Ok = true;

  // 1. Intensional state: compare-and-swap on a cell (§3.4.2's example).
  //    let (r, c) := if t =? Cell.get c then (1, Cell.put c x) else (0, c)
  {
    FnBuilder FB("cas_model", Monad::Pure);
    FB.cellParam("c").wordParam("t").wordParam("x");
    ProgBuilder Then;
    Then.let("c", mkCellPut("c", v("x"))).let("r", cw(1));
    ProgBuilder Else;
    Else.let("r", cw(0));
    ProgBuilder Body;
    Body.let("cur", mkCellGet("c"))
        .letMulti({"r", "c"},
                  mkIf(eqw(v("cur"), v("t")),
                       std::move(Then).ret({"r", "c"}),
                       std::move(Else).ret({"r", "c"})))
        .let("r", v("r"));
    SourceFn Model = std::move(FB).done(std::move(Body).ret({"r", "c"}));
    sep::FnSpec Spec("cas");
    Spec.cellArg("c").scalarArg("t").scalarArg("x").retScalar("r")
        .retCellInPlace("c");
    Ok &= runOne("cells: compare-and-swap (intensional state)", Model, Spec);
  }

  // 2. IO monad: read n words, writing the running maximum after each.
  {
    FnBuilder FB("runmax_model", Monad::Io);
    FB.wordParam("n");
    ProgBuilder Loop;
    Loop.let("x", mkIoRead())
        .let("m", select(ltu(v("m"), v("x")), v("x"), v("m")))
        .let("_", mkIoWrite(v("m")));
    ProgBuilder Body;
    Body.letMulti({"m"}, mkRange("i", cw(0), v("n"), {acc("m", cw(0))},
                                 std::move(Loop).ret({"m"})))
        .let("m", v("m"));
    SourceFn Model = std::move(FB).done(std::move(Body).ret({"m"}));
    sep::FnSpec Spec("runmax");
    Spec.scalarArg("n").retScalar("m");
    validate::ValidationOptions VO;
    VO.MakeInputs = [](const SourceFn &, Rng &R, size_t) {
      return std::vector<Value>{Value::word(R.below(24))};
    };
    Ok &= runOne("io: running maximum over the tape (extensional)", Model,
                 Spec, VO);
  }

  // 3. Nondet monad: allocate 16 unspecified bytes, zero a prefix, return
  //    the first byte. Spec: the result is whatever byte 0 holds — which
  //    the program zeroed, so the ensures predicate pins it to 0.
  {
    FnBuilder FB("scratch_model", Monad::Nondet);
    FB.wordParam("k");
    ProgBuilder Fill;
    Fill.let("buf", mkPut("buf", v("j"), cb(0)));
    ProgBuilder Body;
    Body.let("buf", mkNondetAlloc(16))
        .letMulti({"buf"}, mkRange("j", cw(0), cw(8), {acc("buf", v("buf"))},
                                   std::move(Fill).ret({"buf"})))
        .let("first", b2w(aget("buf", cw(0))))
        .let("r", addw(v("first"), v("k")));
    SourceFn Model = std::move(FB).done(std::move(Body).ret({"r"}));
    sep::FnSpec Spec("scratch");
    Spec.scalarArg("k").retScalar("r");
    validate::ValidationOptions VO;
    VO.NondetEnsures = [](const std::vector<Value> &Inputs,
                          const validate::TargetOutputs &Out) -> Status {
      // ensures: r = k + buf[0] where buf[0] was zeroed: r = k.
      if (Out.Rets.size() != 1 || Out.Rets[0] != Inputs[0].asWord())
        return Error("scratch: r != k despite the zeroed prefix");
      return Status::success();
    };
    Ok &= runOne("nondet: unspecified scratch buffer (predicate spec)",
                 Model, Spec, VO);
  }

  return Ok ? 0 : 1;
}
