//===- support/CommandLine.h - Table-driven flag parsing --------*- C++ -*-===//
//
// Part of relc, a C++ reproduction of "Relational Compilation for
// Performance-Critical Applications" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// One table-driven command-line parser shared by every relc tool
// (relc-gen, relc-lint, relc-check), replacing the per-tool hand-rolled
// argv loops that had drifted apart. The contract all three tools had
// already converged on is preserved exactly:
//
//   - every option is accepted in both -flag and --flag spelling;
//   - value options consume the following argument (-out <dir>);
//   - -h / -help print a generated help page and exit 0;
//   - an unknown option is an error (exit 2), now with a typo
//     suggestion ("did you mean '-out'?") computed by edit distance;
//   - non-dash arguments go to an optional positional handler
//     (relc-lint's and relc-check's program names).
//
// The table is also the single source of the help text, so flags can no
// longer exist without documentation or vice versa.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_SUPPORT_COMMANDLINE_H
#define RELC_SUPPORT_COMMANDLINE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace relc {
namespace cl {

/// What parse() decided; the tool maps this onto its exit code.
enum class ParseResult {
  Ok,    ///< All arguments consumed; run the tool.
  Help,  ///< -h/-help was given and the help page printed; exit 0.
  Error, ///< Bad argument; message printed to stderr; exit 2.
};

class OptionTable {
public:
  /// \p Tool names the binary in messages ("relc-gen"); \p Overview is
  /// printed (verbatim, with a trailing blank line) at the top of -help.
  OptionTable(std::string Tool, std::string Overview);

  //===--------------------------------------------------------------------===//
  // Table construction. \p Names lists every accepted single-dash
  // spelling ("-j", "-jobs"); the first is canonical in messages.
  //===--------------------------------------------------------------------===//

  /// A boolean option: presence sets \p Target.
  void flag(std::vector<std::string> Names, bool *Target, std::string Help);

  /// A string-valued option: consumes the next argument into \p Target.
  void str(std::vector<std::string> Names, std::string *Target,
           std::string Meta, std::string Help);

  /// An unsigned option with a minimum (job counts): consumes the next
  /// argument, rejecting non-numeric or < \p Min values.
  void num(std::vector<std::string> Names, unsigned *Target, unsigned Min,
           std::string Meta, std::string Help);

  /// A custom option: \p Consume parses the (possibly absent) value.
  /// \p HasValue decides whether the next argument is consumed.
  void custom(std::vector<std::string> Names, bool HasValue, std::string Meta,
              std::string Help,
              std::function<bool(const std::string &Value, std::string *Err)>
                  Consume);

  /// Handler for non-dash arguments, shown as "[<Meta>...]" in the usage
  /// line. Returning false (with \p Err set) aborts parsing with exit 2.
  void positional(std::string Meta, std::string Help,
                  std::function<bool(const std::string &Arg, std::string *Err)>
                      Consume);

  //===--------------------------------------------------------------------===//
  // Parsing and rendering.
  //===--------------------------------------------------------------------===//

  /// Parses argv[Begin..argc). Help goes to stdout; errors to stderr.
  /// \p Begin defaults to 1 (skip the binary name); subcommand drivers
  /// pass 2 to skip the subcommand word as well.
  ParseResult parse(int Argc, char **Argv, int Begin = 1) const;

  /// "usage: <tool> [options] [<meta>...]".
  std::string usageLine() const;

  /// The full generated help page.
  std::string helpText() const;

  /// Closest known option to \p Unknown within edit distance 2, or "".
  std::string suggestion(const std::string &Unknown) const;

private:
  struct Option {
    std::vector<std::string> Names; ///< Single-dash canonical spellings.
    bool HasValue = false;
    std::string Meta; ///< "<dir>", "<n>", ... (value options only).
    std::string Help; ///< May be multi-line; lines after the first wrap.
    std::function<bool(const std::string &, std::string *)> Consume;
  };

  std::string Tool;
  std::string Overview;
  std::vector<Option> Options;
  std::string PosMeta, PosHelp;
  std::function<bool(const std::string &, std::string *)> PosConsume;

  const Option *find(const std::string &Name) const;
};

/// A named set of subcommands, each with its own OptionTable — the
/// `relcd serve|ping|stats|shutdown` driver. argv[1] selects the
/// subcommand; everything after it is parsed by that subcommand's table
/// (so per-subcommand `-help` comes for free), and an unknown subcommand
/// gets the same edit-distance typo suggestions unknown flags get.
class SubcommandSet {
public:
  /// \p Tool names the binary in messages ("relcd"); \p Overview heads
  /// the top-level help page.
  SubcommandSet(std::string Tool, std::string Overview);

  /// Registers subcommand \p Name and returns its table (tool name
  /// "<tool> <name>"). \p Brief is its one-line help entry. The returned
  /// reference stays valid for the SubcommandSet's lifetime.
  OptionTable &add(std::string Name, std::string Brief, std::string Overview);

  /// What dispatch() decided.
  struct Dispatch {
    ParseResult Result = ParseResult::Error;
    std::string Name; ///< Selected subcommand ("" when none was reached).
  };

  /// Selects the subcommand named by argv[1] and parses the rest with its
  /// table. No argv[1], `-h`/`-help`, or `help` prints the top-level help
  /// page (Result = Help); an unknown subcommand prints a suggestion and
  /// errors. `help <sub>` prints that subcommand's help page.
  Dispatch dispatch(int Argc, char **Argv) const;

  /// "usage: <tool> <command> [options]".
  std::string usageLine() const;

  /// The top-level help page listing every subcommand.
  std::string helpText() const;

  /// Closest subcommand name to \p Unknown within edit distance 2, or "".
  std::string suggestion(const std::string &Unknown) const;

private:
  struct Sub {
    std::string Name;
    std::string Brief;
    std::unique_ptr<OptionTable> Table;
  };

  std::string Tool;
  std::string Overview;
  std::vector<Sub> Subs;

  const Sub *find(const std::string &Name) const;
};

} // namespace cl
} // namespace relc

#endif // RELC_SUPPORT_COMMANDLINE_H
