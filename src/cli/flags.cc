#include "src/cli/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace dprof {

namespace {

constexpr unsigned kAll = kRun | kWhatIf | kBench | kCrashtest;
constexpr struct {
  Command command;
  const char* name;
} kCommandNames[] = {
    {kRun, "run"}, {kWhatIf, "whatif"}, {kBench, "bench"}, {kCrashtest, "crashtest"}};

// Integer rows hold any uint64_t. An int field refuses a value it cannot
// hold, naming it as typed; ValidateRunSpec range-checks the rest.
void SetInt(const char* flag, const FlagValue& value, int* field, std::string* error) {
  if (value.integer > static_cast<uint64_t>(INT_MAX)) {
    *error = std::string(flag) + " is out of range; got " + value.text;
    return;
  }
  *field = static_cast<int>(value.integer);
}

// Checks `value->text` against the row's FlagKind and fills in the number.
std::string ParseValue(const FlagSpec& flag, FlagValue* value) {
  const std::string name = flag.name;
  const char* text = value->text.c_str();
  char* end = nullptr;
  errno = 0;
  if (flag.kind == FlagKind::kInteger || flag.kind == FlagKind::kPositiveInteger) {
    // strtoull alone would accept a sign and wrap "-5" to 2^64 - 5.
    if (std::isdigit(static_cast<unsigned char>(text[0])) != 0) {
      value->integer = std::strtoull(text, &end, 10);
    }
    if (end == nullptr || errno != 0 || *end != '\0') {
      return name + " expects a non-negative integer, got '" + value->text + "'";
    }
    if (flag.kind == FlagKind::kPositiveInteger && value->integer == 0) {
      return name + " must be positive";
    }
  } else if (flag.kind == FlagKind::kPositiveReal) {
    value->real = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value->real) || !(value->real > 0.0)) {
      return name + " expects a positive finite number, got '" + value->text + "'";
    }
  }
  return "";
}

// "run, whatif" for kRun | kWhatIf.
std::string CommandNames(unsigned commands) {
  std::string list;
  for (const auto& entry : kCommandNames) {
    if ((commands & entry.command) == 0) continue;
    list += list.empty() ? "" : ", ";
    list += entry.name;
  }
  return list;
}

}  // namespace

const char* CommandName(Command command) {
  for (const auto& entry : kCommandNames) {
    if (entry.command == command) return entry.name;
  }
  return "";
}

const std::vector<FlagSpec>& Flags() {
  using K = FlagKind;
  using O = CliOptions;
  using V = FlagValue;
  using E = std::string*;
  static const std::vector<FlagSpec> flags = {
      {"--json", K::kSwitch, kAll, "", "machine-readable output",
       [](O& o, const V&, E) { o.json = o.spec.build_view_json = true; }},
      {"--scenario", K::kString, kRun | kWhatIf, "NAME",
       "scenario to run (instead of the first argument)",
       [](O& o, const V& v, E error) {
         if (!o.name.empty()) *error = "--scenario names a second scenario, '" + v.text + "'";
         o.name = v.text;
       }},
      {"--cores", K::kInteger, kRun | kWhatIf, "N", "simulated cores (default 16)",
       [](O& o, const V& v, E error) { SetInt("--cores", v, &o.spec.cores, error); }},
      {"--topology", K::kString, kRun | kWhatIf, "NAME", "paper-amd or big; overrides --cores",
       [](O& o, const V& v, E) { o.spec.topology = v.text; }},
      {"--cycles", K::kPositiveInteger, kRun | kWhatIf, "N", "phase-1 simulated cycles",
       [](O& o, const V& v, E) { o.spec.collect_cycles = v.integer; }},
      {"--threads", K::kInteger, kRun | kWhatIf | kCrashtest, "N",
       "host worker threads (default 0: hardware concurrency)",
       [](O& o, const V& v, E error) { SetInt("--threads", v, &o.spec.threads, error); }},
      {"--type", K::kString, kRun | kWhatIf, "NAME",
       "drill-down type (run); the type the next --fix applies to (whatif)",
       [](O& o, const V& v, E) { o.spec.drill_type = v.text; }},
      {"--fix", K::kString, kWhatIf, "KIND",
       "repeatable fix for the preceding --type: pad_to_line, align, recolor, replicate, "
       "pin_home[@socket], identity",
       [](O& o, const V& v, E error) {
         // A --fix takes up the type the preceding --type named; a repeated
         // --fix reuses the type of the --fix before it.
         WhatIfCandidate candidate{o.spec.drill_type, TypeTransformKind::kIdentity, -1};
         if (candidate.type.empty() && !o.candidates.empty()) {
           candidate.type = o.candidates.back().type;
         }
         if (!ParseTypeTransformSpec(v.text, &candidate.kind, &candidate.param)) {
           *error = "--fix: unknown kind '" + v.text + "' (see dprof help)";
         } else if (candidate.type.empty()) {
           *error = "--fix requires a preceding --type";
         } else {
           o.candidates.push_back(candidate);
           o.spec.drill_type.clear();
         }
       }},
      {"--auto", K::kSwitch, kWhatIf, "", "search the top profiled types x all fixes",
       [](O& o, const V&, E) { o.auto_search = true; }},
      {"--top", K::kPositiveInteger, kWhatIf, "N", "types --auto explores (default 3)",
       [](O& o, const V& v, E) { o.top = v.integer; }},
      {"--local-tx-queue", K::kSwitch, kRun | kWhatIf, "",
       "memcached fix: transmit on the local core's queue",
       [](O& o, const V&, E) { o.spec.local_tx_queue = true; }},
      {"--admission-control", K::kSwitch, kRun | kWhatIf, "",
       "apache fix: cap accepted connections",
       [](O& o, const V&, E) { o.spec.admission_control = true; }},
      {"--legacy-loop", K::kSwitch, kRun, "", "run on the legacy loop, not the epoch engine",
       [](O& o, const V&, E) { o.spec.use_engine = false; }},
      {"--sampled", K::kSwitch, kRun | kWhatIf, "", "statistical fast-forward",
       [](O& o, const V&, E) { o.spec.sampled = true; }},
      {"--sampling-period", K::kPositiveInteger, kRun | kWhatIf, "N",
       "cycles per sampling period (default 400000)",
       [](O& o, const V& v, E) { o.spec.sampling_period = v.integer; }},
      {"--sampling-window", K::kPositiveInteger, kRun | kWhatIf, "N",
       "detailed cycles per period (default 20000)",
       [](O& o, const V& v, E) { o.spec.sampling_window = v.integer; }},
      {"--audit", K::kPositiveInteger, kRun, "N", "verify tag-lattice invariants every N epochs",
       [](O& o, const V& v, E) { o.spec.audit_epochs = v.integer; }},
      {"--fault", K::kString, kRun, "SEAMS", "comma-separated fault seams, or all",
       [](O& o, const V& v, E) { o.spec.fault_seams = v.text; }},
      {"--fault-seed", K::kInteger, kRun, "N", "seed salting every fault decision",
       [](O& o, const V& v, E) { o.spec.fault_seed = v.integer; }},
      {"--watchdog-stall-epochs", K::kPositiveInteger, kRun, "N",
       "stalled epochs before a diagnostic (default 256)",
       [](O& o, const V& v, E) { o.spec.watchdog_stall_epochs = v.integer; }},
      {"--watchdog-seconds", K::kPositiveReal, kRun, "X",
       "wall budget before a diagnostic (default 300)",
       [](O& o, const V& v, E) { o.spec.watchdog_wall_seconds = v.real; }},
      {"--seed", K::kInteger, kRun | kWhatIf | kBench, "N", "machine seed (default 1)",
       [](O& o, const V& v, E) { o.spec.seed = v.integer; }},
      {"--scale", K::kPositiveReal, kBench, "X", "bench iteration scale (default 1.0)",
       [](O& o, const V& v, E) { o.scale = v.real; }},
  };
  return flags;
}

bool ParseArgs(Command command, const std::vector<std::string>& args, CliOptions* options,
               std::string* error) {
  size_t i = 0;
  if (command != kCrashtest && !args.empty() && args[0].rfind("--", 0) != 0) {
    options->name = args[0];
    i = 1;
  }
  for (; i < args.size(); ++i) {
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& row : Flags()) {
      if (args[i] == row.name && (row.commands & command) != 0) flag = &row;
    }
    if (flag == nullptr) {
      std::string accepted;
      for (const FlagSpec& row : Flags()) {
        if ((row.commands & command) == 0) continue;
        accepted += accepted.empty() ? "" : " ";
        accepted += row.name;
      }
      *error = "unknown flag '" + args[i] + "' (accepted here: " + accepted + ")";
      return false;
    }
    FlagValue value;
    if (flag->kind != FlagKind::kSwitch) {
      if (i + 1 >= args.size()) {
        *error = std::string(flag->name) + " requires a value";
        return false;
      }
      value.text = args[++i];
      *error = ParseValue(*flag, &value);
      if (!error->empty()) return false;
    }
    flag->set(*options, value, error);
    if (!error->empty()) return false;
  }
  // In whatif, --type only names the type of the --fix after it, and that
  // --fix takes it up: a --type still pending here has no fix to apply.
  if (command == kWhatIf && !options->spec.drill_type.empty()) {
    *error = options->auto_search
                 ? "--type does not apply to --auto, which picks its own types"
                 : "--type '" + options->spec.drill_type + "' has no --fix after it";
    return false;
  }
  return true;
}

std::string UsageText() {
  std::string text =
      "usage: dprof <command> [args]\n"
      "\n"
      "commands:\n"
      "  list                        list scenarios and benches\n"
      "  run <scenario> [flags]      profile a scenario end to end\n"
      "  whatif <scenario> [flags]   rank candidate fixes by measured gain\n"
      "  bench <name> [flags]        run a registered benchmark\n"
      "  crashtest [flags]           scenario x fault-seam recovery matrix\n"
      "  help                        this text\n"
      "\n"
      "flags [and the commands that accept them]:\n";
  for (const FlagSpec& flag : Flags()) {
    std::string usage = std::string(flag.name) + (*flag.arg != '\0' ? " " : "") + flag.arg;
    usage.resize(std::max<size_t>(usage.size(), 27), ' ');
    text += "  " + usage + " " + flag.help + " [" + CommandNames(flag.commands) + "]\n";
  }
  return text;
}

}  // namespace dprof
