//===- cert/Reader.cpp - Certificate parsing ------------------------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "cert/Reader.h"

#include "support/Hash.h"
#include "support/StringExtras.h"

#include <map>

namespace relc {
namespace cert {

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON value + recursive-descent parser. Certificates only use
// objects, arrays, strings, unsigned integers, and booleans; anything
// else (floats, null) is rejected. Object keys keep first-wins semantics.
// Written certificates nest five levels; input nested deeper than
// kMaxDepth is malformed, so hostile input cannot recurse the parser into
// a stack overflow.
//===----------------------------------------------------------------------===//

struct JValue {
  enum class Kind { Object, Array, String, Number, Bool } K = Kind::Bool;
  std::map<std::string, JValue> Obj;
  std::vector<JValue> Arr;
  std::string Str;
  uint64_t Num = 0;
  bool B = false;
};

class JParser {
public:
  explicit JParser(const std::string &Text) : S(Text) {}

  std::optional<JValue> parse(std::string *Why) {
    std::optional<JValue> V = value();
    skipWs();
    if (V && Pos != S.size()) {
      *Why = "trailing garbage at offset " + std::to_string(Pos);
      return std::nullopt;
    }
    if (!V)
      *Why = Err.empty() ? "syntax error at offset " + std::to_string(Pos)
                         : Err;
    return V;
  }

private:
  static constexpr unsigned kMaxDepth = 32;

  const std::string &S;
  size_t Pos = 0;
  unsigned Depth = 0; ///< Objects and arrays open at Pos.
  std::string Err;

  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  std::optional<std::string> string() {
    skipWs();
    if (Pos >= S.size() || S[Pos] != '"')
      return std::nullopt;
    size_t End = Pos + 1;
    std::string Raw;
    while (End < S.size() && S[End] != '"') {
      if (S[End] == '\\') {
        if (End + 1 >= S.size())
          return std::nullopt;
        Raw += S[End];
        Raw += S[End + 1];
        End += 2;
        continue;
      }
      Raw += S[End++];
    }
    if (End >= S.size())
      return std::nullopt; // Unterminated.
    Pos = End + 1;
    std::string Out;
    if (!jsonUnescape(Raw, &Out))
      return std::nullopt;
    return Out;
  }

  std::optional<JValue> value() {
    skipWs();
    if (Pos >= S.size())
      return std::nullopt;
    char C = S[Pos];
    if (C == '{' || C == '[') {
      if (Depth == kMaxDepth) {
        Err = "nesting deeper than " + std::to_string(kMaxDepth) +
              " levels at offset " + std::to_string(Pos);
        return std::nullopt;
      }
      ++Depth;
      std::optional<JValue> V = C == '{' ? object() : array();
      --Depth;
      return V;
    }
    if (C == '"') {
      std::optional<std::string> Str = string();
      if (!Str)
        return std::nullopt;
      JValue V;
      V.K = JValue::Kind::String;
      V.Str = *Str;
      return V;
    }
    if (C >= '0' && C <= '9') {
      JValue V;
      V.K = JValue::Kind::Number;
      size_t Start = Pos;
      for (; Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9'; ++Pos) {
        uint64_t D = uint64_t(S[Pos] - '0');
        // A number past uint64_t is malformed, never wrapped.
        if (V.Num > (UINT64_MAX - D) / 10) {
          Err = "integer at offset " + std::to_string(Start) +
                " does not fit in 64 bits";
          return std::nullopt;
        }
        V.Num = V.Num * 10 + D;
      }
      return V;
    }
    auto Lit = [&](const char *Word, bool Val) -> std::optional<JValue> {
      size_t L = std::string(Word).size();
      if (S.compare(Pos, L, Word) != 0)
        return std::nullopt;
      Pos += L;
      JValue V;
      V.K = JValue::Kind::Bool;
      V.B = Val;
      return V;
    };
    if (C == 't')
      return Lit("true", true);
    if (C == 'f')
      return Lit("false", false);
    return std::nullopt;
  }

  std::optional<JValue> object() {
    if (!eat('{'))
      return std::nullopt;
    JValue V;
    V.K = JValue::Kind::Object;
    skipWs();
    if (eat('}'))
      return V;
    while (true) {
      std::optional<std::string> Key = string();
      if (!Key || !eat(':'))
        return std::nullopt;
      std::optional<JValue> Member = value();
      if (!Member)
        return std::nullopt;
      V.Obj.emplace(*Key, std::move(*Member));
      if (eat(','))
        continue;
      if (eat('}'))
        return V;
      return std::nullopt;
    }
  }

  std::optional<JValue> array() {
    if (!eat('['))
      return std::nullopt;
    JValue V;
    V.K = JValue::Kind::Array;
    skipWs();
    if (eat(']'))
      return V;
    while (true) {
      std::optional<JValue> Elem = value();
      if (!Elem)
        return std::nullopt;
      V.Arr.push_back(std::move(*Elem));
      if (eat(','))
        continue;
      if (eat(']'))
        return V;
      return std::nullopt;
    }
  }
};

//===----------------------------------------------------------------------===//
// Field extraction. Missing or mistyped required fields are malformed.
//===----------------------------------------------------------------------===//

/// Parse-time escape; caught at the Reader::parse boundary.
struct Bad {
  std::string Why;
};

[[noreturn]] void bad(const std::string &Why) { throw Bad{Why}; }

const JValue &field(const JValue &Obj, const std::string &Key) {
  auto It = Obj.Obj.find(Key);
  if (It == Obj.Obj.end())
    bad("missing field '" + Key + "'");
  return It->second;
}

std::string strField(const JValue &Obj, const std::string &Key) {
  const JValue &V = field(Obj, Key);
  if (V.K != JValue::Kind::String)
    bad("field '" + Key + "' is not a string");
  return V.Str;
}

uint64_t numField(const JValue &Obj, const std::string &Key) {
  const JValue &V = field(Obj, Key);
  if (V.K != JValue::Kind::Number)
    bad("field '" + Key + "' is not a number");
  return V.Num;
}

/// A number field stored in an unsigned: a wider value is malformed,
/// never narrowed.
unsigned u32Field(const JValue &Obj, const std::string &Key) {
  uint64_t V = numField(Obj, Key);
  if (V > UINT32_MAX)
    bad("field '" + Key + "' does not fit in 32 bits");
  return unsigned(V);
}

bool boolField(const JValue &Obj, const std::string &Key) {
  const JValue &V = field(Obj, Key);
  if (V.K != JValue::Kind::Bool)
    bad("field '" + Key + "' is not a boolean");
  return V.B;
}

const std::vector<JValue> &arrField(const JValue &Obj, const std::string &Key) {
  const JValue &V = field(Obj, Key);
  if (V.K != JValue::Kind::Array)
    bad("field '" + Key + "' is not an array");
  return V.Arr;
}

/// Term hashes render as "0x" + 16 hex digits; content hashes as bare
/// hex16. Accept both spellings for robustness.
uint64_t hashField(const JValue &Obj, const std::string &Key) {
  std::string S = strField(Obj, Key);
  if (S.size() > 2 && S[0] == '0' && S[1] == 'x')
    S = S.substr(2);
  uint64_t Out = 0;
  if (!hash::parseHex(S, &Out))
    bad("field '" + Key + "' is not a hash");
  return Out;
}

std::vector<std::string> strListField(const JValue &Obj,
                                      const std::string &Key) {
  std::vector<std::string> Out;
  for (const JValue &E : arrField(Obj, Key)) {
    if (E.K != JValue::Kind::String)
      bad("field '" + Key + "' has a non-string element");
    Out.push_back(E.Str);
  }
  return Out;
}

void parseTraces(const JValue &Root, Certificate &C) {
  for (const JValue &L : arrField(Root, "loops")) {
    if (L.K != JValue::Kind::Object)
      bad("loop entry is not an object");
    LoopRec R;
    R.Ordinal = u32Field(L, "ordinal");
    R.Binding = strField(L, "binding");
    R.FoldHash = hashField(L, "fold_hash");
    R.Carried = u32Field(L, "carried");
    R.Regions = u32Field(L, "regions");
    R.Path = strField(L, "path");
    const JValue &W = field(L, "witness");
    if (W.K != JValue::Kind::Object)
      bad("loop witness is not an object");
    R.WitnessLocals = strListField(W, "locals");
    R.WitnessRegions = strListField(W, "regions");
    R.TargetPath = strField(W, "target_path");
    C.Loops.push_back(std::move(R));
  }
  for (const JValue &B : arrField(Root, "bindings")) {
    if (B.K != JValue::Kind::Object)
      bad("binding entry is not an object");
    C.Bindings.push_back(
        {strField(B, "path"), strField(B, "name"), hashField(B, "hash")});
  }
  for (const JValue &O : arrField(Root, "outputs")) {
    if (O.K != JValue::Kind::Object)
      bad("output entry is not an object");
    OutputRec R;
    R.Name = strField(O, "name");
    R.Kind = strField(O, "kind");
    R.Matched = boolField(O, "matched");
    R.SrcHash = hashField(O, "src_hash");
    R.TgtHash = hashField(O, "tgt_hash");
    R.SourceBinding = strField(O, "source_binding");
    R.TargetPath = strField(O, "target_path");
    C.Outputs.push_back(std::move(R));
  }
}

} // namespace

std::optional<Certificate> Reader::parse(const std::string &Text,
                                         ReadError *Err) {
  auto Fail = [&](Reject Why, const std::string &Detail) {
    if (Err)
      *Err = {Why, Detail};
    return std::nullopt;
  };

  std::string Why;
  std::optional<JValue> Root = JParser(Text).parse(&Why);
  if (!Root || Root->K != JValue::Kind::Object)
    return Fail(Reject::MalformedCertificate,
                Root ? "certificate is not a JSON object" : Why);

  try {
    Certificate C;
    auto VerIt = Root->Obj.find("schema_version");
    if (VerIt == Root->Obj.end())
      bad("no 'schema_version'");
    if (VerIt->second.K != JValue::Kind::Number)
      bad("'schema_version' is not a number");
    if (VerIt->second.Num != kSchemaVersion)
      return Fail(Reject::UnknownSchemaVersion,
                  "schema_version " + std::to_string(VerIt->second.Num) +
                      (VerIt->second.Num > kSchemaVersion ? " is newer"
                                                          : " is older") +
                      " than this checker (knows " +
                      std::to_string(kSchemaVersion) + ")");
    C.SchemaVersion = unsigned(VerIt->second.Num);
    C.Producer = strField(*Root, "producer");
    C.Function = strField(*Root, "function");
    C.Key.ModelHash = hashField(*Root, "model_hash");
    C.Key.SpecHash = hashField(*Root, "spec_hash");
    C.Key.CodeHash = hashField(*Root, "code_hash");
    C.Verdict = strField(*Root, "verdict");
    C.Reason = strField(*Root, "reason");
    parseTraces(*Root, C);
    // The codelint section is optional to the decoder; the checker
    // rejects its absence (missing-codelint).
    auto ClIt = Root->Obj.find("codelint");
    if (ClIt != Root->Obj.end()) {
      const JValue &Cl = ClIt->second;
      if (Cl.K != JValue::Kind::Object)
        bad("'codelint' is not an object");
      CodelintRec L;
      L.Version = u32Field(Cl, "version");
      L.Mem = strField(Cl, "mem");
      L.Stack = strField(Cl, "stack");
      L.Steps = strField(Cl, "steps");
      L.Accesses = numField(Cl, "accesses");
      L.LocalsBytes = numField(Cl, "locals_bytes");
      L.ScratchBytes = numField(Cl, "scratch_bytes");
      L.OperandDepth = numField(Cl, "operand_depth");
      L.StepBound = numField(Cl, "step_bound");
      C.Codelint = std::move(L);
    }
    return C;
  } catch (const Bad &B) {
    return Fail(Reject::MalformedCertificate, B.Why);
  }
}

} // namespace cert
} // namespace relc
