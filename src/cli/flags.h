// The dprof command-line flags, written down once.
//
// Each row of the flag table gives a flag's name, the syntax of its value,
// the commands that accept it, its help text, and the setter that stores
// the parsed value (mostly straight into the RunSpec). ParseArgs, the check
// that a command accepts a flag, and `dprof help` (UsageText) all read the
// table. Rows check syntax only; value ranges are checked where the value is
// consumed (ValidateRunSpec, ValidateWhatIf, ValidateBenchParams).

#ifndef DPROF_SRC_CLI_FLAGS_H_
#define DPROF_SRC_CLI_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"

namespace dprof {

// The subcommands that take flags, as bits of FlagSpec::commands.
enum Command : unsigned { kRun = 1, kWhatIf = 2, kBench = 4, kCrashtest = 8 };

const char* CommandName(Command command);

// The syntax a flag's value must have.
enum class FlagKind {
  kSwitch,           // no value
  kString,           // any token
  kInteger,          // decimal digits only: no sign, no exponent
  kPositiveInteger,  // kInteger, and not zero
  kPositiveReal,     // a finite number > 0
};

// Everything one invocation's arguments say.
struct CliOptions {
  CliOptions() { spec.build_view_json = false; }

  // The run request (run, whatif; crashtest's --threads). View JSON is only
  // rendered when --json asks for the document.
  RunSpec spec;
  // The scenario (run, whatif: the first argument or --scenario) or the
  // bench (bench: the first argument).
  std::string name;
  bool json = false;
  // whatif: --auto, --top, and the --type/--fix pairs in order.
  bool auto_search = false;
  uint64_t top = 3;
  std::vector<WhatIfCandidate> candidates;
  // bench: iteration scale.
  double scale = 1.0;
};

// A flag's value, parsed according to its FlagKind.
struct FlagValue {
  std::string text;
  uint64_t integer = 0;  // kInteger, kPositiveInteger
  double real = 0.0;     // kPositiveReal
};

// Stores `value` into `options`; sets `*error` (left empty on success) when
// the value cannot be honoured.
using FlagSetter = void (*)(CliOptions& options, const FlagValue& value, std::string* error);

struct FlagSpec {
  const char* name;  // "--cores"
  FlagKind kind;
  unsigned commands;  // Command bits
  const char* arg;    // help placeholder for the value ("N"); "" for switches
  const char* help;
  FlagSetter set;
};

// The flag table, in help order.
const std::vector<FlagSpec>& Flags();

// Parses `args` — the tokens after the command word — into `options`. The
// first token names the scenario (run, whatif) or bench (bench) unless it
// starts with "--". Returns false with a one-line `*error` on an unknown
// flag, a flag `command` does not accept, a missing or malformed value, a
// setter's error, or a whatif --type that no --fix follows.
bool ParseArgs(Command command, const std::vector<std::string>& args, CliOptions* options,
               std::string* error);

// The `dprof help` text: the commands, then every table row with the
// commands that accept it.
std::string UsageText();

}  // namespace dprof

#endif  // DPROF_SRC_CLI_FLAGS_H_
