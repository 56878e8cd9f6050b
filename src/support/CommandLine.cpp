//===- support/CommandLine.cpp - Table-driven flag parsing -----------------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cstdio>

namespace relc {
namespace cl {

OptionTable::OptionTable(std::string Tool, std::string Overview)
    : Tool(std::move(Tool)), Overview(std::move(Overview)) {}

void OptionTable::flag(std::vector<std::string> Names, bool *Target,
                       std::string Help) {
  custom(std::move(Names), false, "", std::move(Help),
         [Target](const std::string &, std::string *) {
           *Target = true;
           return true;
         });
}

void OptionTable::str(std::vector<std::string> Names, std::string *Target,
                      std::string Meta, std::string Help) {
  custom(std::move(Names), true, std::move(Meta), std::move(Help),
         [Target](const std::string &V, std::string *) {
           *Target = V;
           return true;
         });
}

void OptionTable::num(std::vector<std::string> Names, unsigned *Target,
                      unsigned Min, std::string Meta, std::string Help) {
  custom(std::move(Names), true, std::move(Meta), std::move(Help),
         [Target, Min](const std::string &V, std::string *Err) {
           unsigned long N = 0;
           bool Numeric = !V.empty();
           for (char C : V) {
             if (C < '0' || C > '9' || N >= 1000000) {
               Numeric = false;
               break;
             }
             N = N * 10 + unsigned(C - '0');
           }
           if (!Numeric || N < Min) {
             *Err = "invalid count '" + V + "'";
             return false;
           }
           *Target = unsigned(N);
           return true;
         });
}

void OptionTable::custom(
    std::vector<std::string> Names, bool HasValue, std::string Meta,
    std::string Help,
    std::function<bool(const std::string &, std::string *)> Consume) {
  Option O;
  O.Names = std::move(Names);
  O.HasValue = HasValue;
  O.Meta = std::move(Meta);
  O.Help = std::move(Help);
  O.Consume = std::move(Consume);
  Options.push_back(std::move(O));
}

void OptionTable::positional(
    std::string Meta, std::string Help,
    std::function<bool(const std::string &, std::string *)> Consume) {
  PosMeta = std::move(Meta);
  PosHelp = std::move(Help);
  PosConsume = std::move(Consume);
}

const OptionTable::Option *OptionTable::find(const std::string &Name) const {
  for (const Option &O : Options)
    for (const std::string &N : O.Names)
      if (N == Name)
        return &O;
  return nullptr;
}

std::string OptionTable::usageLine() const {
  std::string U = "usage: " + Tool + " [options]";
  if (PosConsume)
    U += " [" + PosMeta + "...]";
  return U;
}

std::string OptionTable::helpText() const {
  std::string Out = usageLine() + "\n\n";
  if (!Overview.empty())
    Out += Overview + "\n\n";

  // Left column: "-a, -b <meta>", padded to one shared width.
  std::vector<std::string> Lefts;
  size_t Width = 0;
  for (const Option &O : Options) {
    std::string L = join(O.Names, ", ");
    if (O.HasValue)
      L += " " + O.Meta;
    Width = std::max(Width, L.size());
    Lefts.push_back(std::move(L));
  }
  std::string HelpLeft = "-h, -help";
  Width = std::max(Width, HelpLeft.size());

  auto Row = [&](const std::string &Left, const std::string &Help) {
    std::string Pad(Width - Left.size() + 2, ' ');
    std::string Indent(2 + Width + 2, ' ');
    std::string R = "  " + Left + Pad;
    for (size_t I = 0; I < Help.size();) {
      size_t E = Help.find('\n', I);
      if (E == std::string::npos)
        E = Help.size();
      if (I)
        R += Indent;
      R += Help.substr(I, E - I) + "\n";
      I = E + 1;
    }
    if (Help.empty())
      R += "\n";
    return R;
  };

  for (size_t I = 0; I < Options.size(); ++I)
    Out += Row(Lefts[I], Options[I].Help);
  Out += Row(HelpLeft, "show this help");
  if (PosConsume && !PosHelp.empty())
    Out += "\n  " + PosMeta + ": " + PosHelp + "\n";
  return Out;
}

std::string OptionTable::suggestion(const std::string &Unknown) const {
  std::string Best;
  unsigned BestDist = 3; // Suggest only within edit distance 2.
  for (const Option &O : Options)
    for (const std::string &N : O.Names) {
      unsigned D = editDistance(Unknown, N);
      if (D < BestDist) {
        BestDist = D;
        Best = N;
      }
    }
  return Best;
}

ParseResult OptionTable::parse(int Argc, char **Argv, int Begin) const {
  for (int I = Begin; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.empty() || A[0] != '-') {
      if (!PosConsume) {
        std::fprintf(stderr, "%s: unexpected argument '%s'\n%s\n",
                     Tool.c_str(), A.c_str(), usageLine().c_str());
        return ParseResult::Error;
      }
      std::string Err;
      if (!PosConsume(A, &Err)) {
        std::fprintf(stderr, "%s: %s\n", Tool.c_str(), Err.c_str());
        return ParseResult::Error;
      }
      continue;
    }
    // Normalize --flag to -flag: every option takes both spellings.
    if (A.size() > 2 && A[1] == '-')
      A.erase(A.begin());
    // -flag=value: split at the first '='. The empty value in '-flag=' is
    // preserved (it reaches Consume, which reports it in its own words).
    std::string Inline;
    bool HasInline = false;
    if (size_t Eq = A.find('='); Eq != std::string::npos) {
      Inline = A.substr(Eq + 1);
      A.erase(Eq);
      HasInline = true;
    }
    if (!HasInline && (A == "-h" || A == "-help")) {
      std::printf("%s", helpText().c_str());
      return ParseResult::Help;
    }
    const Option *O = find(A);
    if (!O) {
      std::string Hint = suggestion(A);
      if (!Hint.empty())
        Hint = "; did you mean '" + Hint + "'?";
      std::fprintf(stderr, "%s: unknown option '%s'%s\n%s\n", Tool.c_str(),
                   Argv[I], Hint.c_str(), usageLine().c_str());
      return ParseResult::Error;
    }
    if (HasInline && !O->HasValue) {
      std::fprintf(stderr, "%s: option '%s' does not take a value\n%s\n",
                   Tool.c_str(), A.c_str(), usageLine().c_str());
      return ParseResult::Error;
    }
    std::string Value;
    if (O->HasValue) {
      if (HasInline) {
        Value = Inline;
      } else if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: option '%s' expects %s\n%s\n", Tool.c_str(),
                     A.c_str(), O->Meta.c_str(), usageLine().c_str());
        return ParseResult::Error;
      } else {
        Value = Argv[++I];
      }
    }
    std::string Err;
    if (!O->Consume(Value, &Err)) {
      std::fprintf(stderr, "%s: %s\n", Tool.c_str(), Err.c_str());
      return ParseResult::Error;
    }
  }
  return ParseResult::Ok;
}

SubcommandSet::SubcommandSet(std::string Tool, std::string Overview)
    : Tool(std::move(Tool)), Overview(std::move(Overview)) {}

OptionTable &SubcommandSet::add(std::string Name, std::string Brief,
                                std::string Overview) {
  Sub S;
  S.Name = Name;
  S.Brief = std::move(Brief);
  S.Table =
      std::make_unique<OptionTable>(Tool + " " + Name, std::move(Overview));
  Subs.push_back(std::move(S));
  return *Subs.back().Table;
}

const SubcommandSet::Sub *SubcommandSet::find(const std::string &Name) const {
  for (const Sub &S : Subs)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

std::string SubcommandSet::usageLine() const {
  return "usage: " + Tool + " <command> [options]";
}

std::string SubcommandSet::helpText() const {
  std::string Out = usageLine() + "\n\n";
  if (!Overview.empty())
    Out += Overview + "\n\n";
  Out += "commands:\n";
  size_t Width = 0;
  for (const Sub &S : Subs)
    Width = std::max(Width, S.Name.size());
  for (const Sub &S : Subs)
    Out += "  " + S.Name + std::string(Width - S.Name.size() + 2, ' ') +
           S.Brief + "\n";
  Out += "\nrun '" + Tool + " <command> -help' for per-command options\n";
  return Out;
}

std::string SubcommandSet::suggestion(const std::string &Unknown) const {
  std::string Best;
  unsigned BestDist = 3; // Suggest only within edit distance 2.
  for (const Sub &S : Subs) {
    unsigned D = editDistance(Unknown, S.Name);
    if (D < BestDist) {
      BestDist = D;
      Best = S.Name;
    }
  }
  return Best;
}

SubcommandSet::Dispatch SubcommandSet::dispatch(int Argc, char **Argv) const {
  Dispatch D;
  if (Argc < 2) {
    std::fprintf(stderr, "%s: missing command\n%s", Tool.c_str(),
                 helpText().c_str());
    return D;
  }
  std::string A = Argv[1];
  if (A == "-h" || A == "-help" || A == "--help") {
    std::printf("%s", helpText().c_str());
    D.Result = ParseResult::Help;
    return D;
  }
  if (A == "help") {
    // `help <sub>` forwards to that subcommand's page.
    if (Argc >= 3) {
      if (const Sub *S = find(Argv[2])) {
        std::printf("%s", S->Table->helpText().c_str());
        D.Result = ParseResult::Help;
        D.Name = S->Name;
        return D;
      }
      std::fprintf(stderr, "%s: unknown command '%s'\n", Tool.c_str(),
                   Argv[2]);
      return D;
    }
    std::printf("%s", helpText().c_str());
    D.Result = ParseResult::Help;
    return D;
  }
  const Sub *S = find(A);
  if (!S) {
    std::string Hint = suggestion(A);
    if (!Hint.empty())
      Hint = "; did you mean '" + Hint + "'?";
    std::fprintf(stderr, "%s: unknown command '%s'%s\n%s\n", Tool.c_str(),
                 A.c_str(), Hint.c_str(), usageLine().c_str());
    return D;
  }
  D.Name = S->Name;
  D.Result = S->Table->parse(Argc, Argv, 2);
  return D;
}

} // namespace cl
} // namespace relc
