//===- tests/support/CommandLineTest.cpp - Table-driven flag parsing -------===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The shared cl::OptionTable parser behind relc-gen / relc-lint /
// relc-check: both dash spellings, value consumption, numeric minima,
// positional handlers, -help, and typo suggestions.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/ToolFlags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

using namespace relc;

namespace {

/// Runs T.parse over the given arguments (argv[0] is synthesized).
cl::ParseResult parseArgs(const cl::OptionTable &T,
                          std::vector<std::string> Args) {
  std::vector<char *> Argv;
  std::string Tool = "test-tool";
  Argv.push_back(Tool.data());
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return T.parse(int(Argv.size()), Argv.data());
}

struct Fixture {
  bool Verbose = false;
  std::string Out = "default";
  unsigned Jobs = 1;
  std::vector<std::string> Pos;
  cl::OptionTable T{"test-tool", "A tool for testing the option table."};

  Fixture() {
    T.flag({"-v", "-verbose"}, &Verbose, "be chatty");
    T.str({"-out"}, &Out, "<dir>", "output directory");
    T.num({"-j", "-jobs"}, &Jobs, 1, "<n>", "job count");
    T.positional("name", "things to process",
                 [this](const std::string &A, std::string *Err) {
                   if (A == "bad") {
                     *Err = "unknown name '" + A + "'";
                     return false;
                   }
                   Pos.push_back(A);
                   return true;
                 });
  }
};

TEST(CommandLineTest, SingleAndDoubleDashSpellings) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-v", "--out", "here", "-jobs", "4"}),
            cl::ParseResult::Ok);
  EXPECT_TRUE(F.Verbose);
  EXPECT_EQ(F.Out, "here");
  EXPECT_EQ(F.Jobs, 4u);

  Fixture G;
  EXPECT_EQ(parseArgs(G.T, {"--verbose", "-out", "there"}),
            cl::ParseResult::Ok);
  EXPECT_TRUE(G.Verbose);
  EXPECT_EQ(G.Out, "there");
}

TEST(CommandLineTest, DefaultsSurviveEmptyArgv) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {}), cl::ParseResult::Ok);
  EXPECT_FALSE(F.Verbose);
  EXPECT_EQ(F.Out, "default");
  EXPECT_EQ(F.Jobs, 1u);
  EXPECT_TRUE(F.Pos.empty());
}

TEST(CommandLineTest, PositionalArgumentsCollected) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"alpha", "-v", "beta"}), cl::ParseResult::Ok);
  ASSERT_EQ(F.Pos.size(), 2u);
  EXPECT_EQ(F.Pos[0], "alpha");
  EXPECT_EQ(F.Pos[1], "beta");
}

TEST(CommandLineTest, PositionalRejectionIsAnError) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"alpha", "bad"}), cl::ParseResult::Error);
}

TEST(CommandLineTest, UnknownOptionIsAnError) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-frobnicate"}), cl::ParseResult::Error);
}

TEST(CommandLineTest, MissingValueIsAnError) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-out"}), cl::ParseResult::Error);
}

TEST(CommandLineTest, NumRejectsGarbageAndBelowMin) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-j", "zero"}), cl::ParseResult::Error);
  Fixture G;
  EXPECT_EQ(parseArgs(G.T, {"-j", "0"}), cl::ParseResult::Error);
  Fixture H;
  EXPECT_EQ(parseArgs(H.T, {"-j", "16"}), cl::ParseResult::Ok);
  EXPECT_EQ(H.Jobs, 16u);
}

TEST(CommandLineTest, NumWithZeroMinAcceptsZero) {
  // relc-gen/relc-lint declare -j with Min = 0: "-j 0" is valid and means
  // "use the hardware" (resolved by pipeline::resolveJobs, not here).
  unsigned Jobs = 1;
  cl::OptionTable T{"test-tool", "overview"};
  T.num({"-j", "-jobs"}, &Jobs, 0, "<n>", "job count (0 = hardware)");
  EXPECT_EQ(parseArgs(T, {"-j", "0"}), cl::ParseResult::Ok);
  EXPECT_EQ(Jobs, 0u);
  EXPECT_EQ(parseArgs(T, {"-j", "-1"}), cl::ParseResult::Error);
}

TEST(CommandLineTest, HelpFlagShortCircuits) {
  Fixture F;
  testing::internal::CaptureStdout();
  cl::ParseResult R = parseArgs(F.T, {"-help"});
  std::string Out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(R, cl::ParseResult::Help);
  EXPECT_NE(Out.find("usage: test-tool"), std::string::npos);
  EXPECT_NE(Out.find("-out"), std::string::npos);
  EXPECT_NE(Out.find("output directory"), std::string::npos);
}

TEST(CommandLineTest, HelpTextListsEverySpelling) {
  Fixture F;
  std::string Help = F.T.helpText();
  EXPECT_NE(Help.find("A tool for testing"), std::string::npos);
  EXPECT_NE(Help.find("-v"), std::string::npos);
  EXPECT_NE(Help.find("-verbose"), std::string::npos);
  EXPECT_NE(Help.find("-jobs"), std::string::npos);
  EXPECT_NE(Help.find("<n>"), std::string::npos);
  EXPECT_NE(Help.find("name"), std::string::npos);
}

TEST(CommandLineTest, TypoSuggestion) {
  Fixture F;
  EXPECT_EQ(F.T.suggestion("-vebose"), "-verbose");
  EXPECT_EQ(F.T.suggestion("-ouy"), "-out");
  // Nothing within distance 2 of this.
  EXPECT_EQ(F.T.suggestion("-completely-different"), "");
}

TEST(CommandLineTest, UsageLineMentionsPositionalMeta) {
  Fixture F;
  std::string U = F.T.usageLine();
  EXPECT_NE(U.find("test-tool"), std::string::npos);
  EXPECT_NE(U.find("name"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// -flag=value spelling.
//===----------------------------------------------------------------------===//

TEST(CommandLineTest, EqualsValueForm) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-out=there", "-j=8"}), cl::ParseResult::Ok);
  EXPECT_EQ(F.Out, "there");
  EXPECT_EQ(F.Jobs, 8u);
}

TEST(CommandLineTest, EqualsValueFormWithDoubleDash) {
  // The relc-gen spelling '--tv-step-budget=5000': double dash plus
  // inline value, routed through a custom consumer.
  uint64_t Budget = 0;
  cl::OptionTable T{"test-tool", "overview"};
  T.custom({"-tv-step-budget"}, /*HasValue=*/true, "<n>", "step cap",
           [&Budget](const std::string &V, std::string *Err) {
             if (V.empty() ||
                 V.find_first_not_of("0123456789") != std::string::npos) {
               *Err = "expected a non-negative integer, got '" + V + "'";
               return false;
             }
             Budget = std::strtoull(V.c_str(), nullptr, 10);
             return true;
           });
  EXPECT_EQ(parseArgs(T, {"--tv-step-budget=5000"}), cl::ParseResult::Ok);
  EXPECT_EQ(Budget, 5000u);
}

TEST(CommandLineTest, EqualsEmptyValueReachesConsumer) {
  // '-j=' hands the empty string to the numeric consumer, which rejects
  // it in its own words — not the generic missing-value error.
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-j="}), cl::ParseResult::Error);
  // And a string option accepts the empty value as-is.
  Fixture G;
  EXPECT_EQ(parseArgs(G.T, {"-out="}), cl::ParseResult::Ok);
  EXPECT_EQ(G.Out, "");
}

TEST(CommandLineTest, EqualsOnValuelessFlagIsAnError) {
  Fixture F;
  EXPECT_EQ(parseArgs(F.T, {"-v=1"}), cl::ParseResult::Error);
  EXPECT_FALSE(F.Verbose);
}

TEST(CommandLineTest, EqualsOnUnknownOptionStillSuggests) {
  // The '=value' tail must not defeat the typo suggestion.
  Fixture F;
  testing::internal::CaptureStderr();
  EXPECT_EQ(parseArgs(F.T, {"--ouy=here"}), cl::ParseResult::Error);
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("did you mean '-out'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Typo suggestions between two flags that share a prefix.
//===----------------------------------------------------------------------===//

TEST(CommandLineTest, TypoSuggestionForRulesFlags) {
  // Two flags whose names share a prefix: misspelling -rules or
  // -rulint-report must point at the real flag, not at its neighbour.
  bool Rules = false, RulintReport = false;
  cl::OptionTable T{"relc-lint", "overview"};
  T.flag({"-rules"}, &Rules, "metatheory gate");
  T.flag({"-rulint-report"}, &RulintReport, "registry summary");
  EXPECT_EQ(T.suggestion("-rule"), "-rules");
  EXPECT_EQ(T.suggestion("-ruels"), "-rules");
  EXPECT_EQ(T.suggestion("-rulint-reprot"), "-rulint-report");

  testing::internal::CaptureStderr();
  EXPECT_EQ(parseArgs(T, {"--rulez"}), cl::ParseResult::Error);
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_NE(Err.find("did you mean '-rules'"), std::string::npos);
  EXPECT_FALSE(Rules);
}

//===----------------------------------------------------------------------===//
// SubcommandSet: the relcd serve|ping|stats|shutdown driver.
//===----------------------------------------------------------------------===//

/// Runs S.dispatch over the given arguments (argv[0] is synthesized).
cl::SubcommandSet::Dispatch dispatchArgs(const cl::SubcommandSet &S,
                                         std::vector<std::string> Args) {
  std::vector<char *> Argv;
  std::string Tool = "relcd";
  Argv.push_back(Tool.data());
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return S.dispatch(int(Argv.size()), Argv.data());
}

struct SubFixture {
  std::string Socket = "relcd.sock";
  bool Quiet = false;
  cl::SubcommandSet S{"relcd", "The relc certification daemon."};
  SubFixture() {
    cl::OptionTable &Serve =
        S.add("serve", "run the daemon", "Runs the daemon in the foreground.");
    Serve.str({"-socket"}, &Socket, "<path>", "socket path to listen on");
    Serve.flag({"-q"}, &Quiet, "suppress the startup banner");
    cl::OptionTable &Ping =
        S.add("ping", "probe a running daemon", "Probes a running daemon.");
    Ping.str({"-socket"}, &Socket, "<path>", "socket path to probe");
  }
};

TEST(CommandLineTest, SubcommandDispatchSelectsAndParses) {
  SubFixture F;
  cl::SubcommandSet::Dispatch D =
      dispatchArgs(F.S, {"serve", "-socket", "/tmp/x.sock", "-q"});
  EXPECT_EQ(D.Result, cl::ParseResult::Ok);
  EXPECT_EQ(D.Name, "serve");
  EXPECT_EQ(F.Socket, "/tmp/x.sock");
  EXPECT_TRUE(F.Quiet);
}

TEST(CommandLineTest, SubcommandMissingCommandIsAnError) {
  SubFixture F;
  testing::internal::CaptureStderr();
  cl::SubcommandSet::Dispatch D = dispatchArgs(F.S, {});
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(D.Result, cl::ParseResult::Error);
  EXPECT_EQ(D.Name, "");
  EXPECT_NE(Err.find("relcd: missing command"), std::string::npos);
  EXPECT_NE(Err.find("serve"), std::string::npos); // Help page follows.
}

TEST(CommandLineTest, SubcommandTopLevelHelpListsEveryCommand) {
  SubFixture F;
  testing::internal::CaptureStdout();
  cl::SubcommandSet::Dispatch D = dispatchArgs(F.S, {"-help"});
  std::string Out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(D.Result, cl::ParseResult::Help);
  EXPECT_NE(Out.find("serve"), std::string::npos);
  EXPECT_NE(Out.find("run the daemon"), std::string::npos);
  EXPECT_NE(Out.find("ping"), std::string::npos);
  EXPECT_NE(Out.find("probe a running daemon"), std::string::npos);
}

TEST(CommandLineTest, SubcommandPerCommandHelp) {
  // Both spellings reach the same page: `relcd serve -help` and
  // `relcd help serve`.
  {
    SubFixture F;
    testing::internal::CaptureStdout();
    cl::SubcommandSet::Dispatch D = dispatchArgs(F.S, {"serve", "-help"});
    std::string Out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(D.Result, cl::ParseResult::Help);
    EXPECT_EQ(D.Name, "serve");
    EXPECT_NE(Out.find("usage: relcd serve"), std::string::npos);
    EXPECT_NE(Out.find("-socket"), std::string::npos);
  }
  {
    SubFixture F;
    testing::internal::CaptureStdout();
    cl::SubcommandSet::Dispatch D = dispatchArgs(F.S, {"help", "serve"});
    std::string Out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(D.Result, cl::ParseResult::Help);
    EXPECT_EQ(D.Name, "serve");
    EXPECT_NE(Out.find("-socket"), std::string::npos);
  }
}

TEST(CommandLineTest, SubcommandTypoIsSuggested) {
  SubFixture F;
  EXPECT_EQ(F.S.suggestion("srve"), "serve");
  EXPECT_EQ(F.S.suggestion("pign"), "ping");
  EXPECT_EQ(F.S.suggestion("frobnicate"), "");
  testing::internal::CaptureStderr();
  cl::SubcommandSet::Dispatch D = dispatchArgs(F.S, {"srve"});
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(D.Result, cl::ParseResult::Error);
  EXPECT_NE(Err.find("unknown command 'srve'; did you mean 'serve'?"),
            std::string::npos);
}

TEST(CommandLineTest, SubcommandFlagErrorsStayPerCommand) {
  // A flag typo inside a subcommand gets that table's suggestion, and
  // the dispatch still names which subcommand was running.
  SubFixture F;
  testing::internal::CaptureStderr();
  cl::SubcommandSet::Dispatch D =
      dispatchArgs(F.S, {"serve", "-socet", "/tmp/x"});
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(D.Result, cl::ParseResult::Error);
  EXPECT_EQ(D.Name, "serve");
  EXPECT_NE(Err.find("did you mean '-socket'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ToolFlags: the shared cache-dir / budget / jobs tables and the one
// cache-directory precedence rule.
//===----------------------------------------------------------------------===//

/// Sets/unsets RELC_CACHE_DIR for one test, restoring the prior value.
struct ScopedEnv {
  std::string Name;
  std::string Saved;
  bool HadValue;
  ScopedEnv(const std::string &N, const char *Value) : Name(N) {
    const char *Old = std::getenv(N.c_str());
    HadValue = Old != nullptr;
    Saved = Old ? Old : "";
    if (Value)
      ::setenv(N.c_str(), Value, 1);
    else
      ::unsetenv(N.c_str());
  }
  ~ScopedEnv() {
    if (HadValue)
      ::setenv(Name.c_str(), Saved.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }
};

TEST(CommandLineTest, ResolveCacheDirPrecedence) {
  // The one documented rule:
  //   -no-cache > -cache-dir <dir> > $RELC_CACHE_DIR > .relc-cache
  {
    ScopedEnv E("RELC_CACHE_DIR", nullptr);
    cl::CacheDirFlags F;
    EXPECT_EQ(cl::resolveCacheDir(F), ".relc-cache");
  }
  {
    ScopedEnv E("RELC_CACHE_DIR", "/tmp/env-cache");
    cl::CacheDirFlags F;
    EXPECT_EQ(cl::resolveCacheDir(F), "/tmp/env-cache");
    F.Dir = "/tmp/flag-cache"; // The flag beats the environment.
    EXPECT_EQ(cl::resolveCacheDir(F), "/tmp/flag-cache");
    F.NoCache = true; // -no-cache beats everything.
    EXPECT_EQ(cl::resolveCacheDir(F), "");
  }
  {
    // An empty RELC_CACHE_DIR is "unset", not "cache in ''".
    ScopedEnv E("RELC_CACHE_DIR", "");
    cl::CacheDirFlags F;
    EXPECT_EQ(cl::resolveCacheDir(F), ".relc-cache");
  }
}

TEST(CommandLineTest, CacheDirFlagsParseBothSpellings) {
  cl::CacheDirFlags F;
  cl::OptionTable T{"test-tool", "overview"};
  cl::addCacheDirFlags(T, F);
  EXPECT_EQ(parseArgs(T, {"--cache-dir", "/tmp/c", "-no-cache"}),
            cl::ParseResult::Ok);
  EXPECT_EQ(F.Dir, "/tmp/c");
  EXPECT_TRUE(F.NoCache);
}

TEST(CommandLineTest, BudgetFlagsParse) {
  cl::BudgetFlags F;
  cl::OptionTable T{"test-tool", "overview"};
  cl::addBudgetFlags(T, F);
  EXPECT_EQ(parseArgs(T, {"-layer-timeout-ms", "500",
                          "--tv-step-budget=5000"}),
            cl::ParseResult::Ok);
  EXPECT_EQ(F.LayerTimeoutMs, 500u);
  EXPECT_EQ(F.TvStepBudget, 5000u);
  cl::BudgetFlags G;
  cl::OptionTable U{"test-tool", "overview"};
  cl::addBudgetFlags(U, G);
  EXPECT_EQ(parseArgs(U, {"-tv-step-budget", "many"}), cl::ParseResult::Error);
  EXPECT_EQ(G.TvStepBudget, 0u);
}

TEST(CommandLineTest, JobsFlagAcceptsZeroForHardware) {
  unsigned Jobs = 1;
  cl::OptionTable T{"test-tool", "overview"};
  cl::addJobsFlag(T, Jobs, "certification");
  EXPECT_EQ(parseArgs(T, {"-j", "0"}), cl::ParseResult::Ok);
  EXPECT_EQ(Jobs, 0u);
  EXPECT_EQ(parseArgs(T, {"--jobs", "8"}), cl::ParseResult::Ok);
  EXPECT_EQ(Jobs, 8u);
  EXPECT_NE(T.helpText().find("certification"), std::string::npos);
}

} // namespace
