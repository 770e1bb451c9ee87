// The unified dprof driver.
//
//   dprof list                      — scenarios and benches with descriptions
//   dprof run <scenario> [flags]    — profile a scenario, print the summary
//   dprof whatif <scenario> [flags] — re-run with candidate fixes, rank gains
//   dprof bench <name> [flags]      — run a registered benchmark
//   dprof crashtest [flags]         — fault-injection matrix: every scenario
//                                     x every seam must recover or produce a
//                                     structured diagnostic, never crash
//   dprof help                      — the commands and every flag
//
// Every subcommand parses its arguments through the one flag table in
// src/cli/flags.cc, which also says which commands accept each flag, so an
// inapplicable flag errors instead of being silently ignored.

#include <cstdio>
#include <string>
#include <vector>

#include "src/cli/bench_registry.h"
#include "src/cli/crashtest.h"
#include "src/cli/flags.h"
#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"

namespace dprof {
namespace {

int Fail(const std::string& error) {
  std::fprintf(stderr, "dprof: %s\n", error.c_str());
  return 2;
}

int CmdList() {
  std::printf("scenarios:\n");
  ScenarioRegistry& scenarios = ScenarioRegistry::Default();
  for (const std::string& name : scenarios.Names()) {
    std::printf("  %-16s %s\n", name.c_str(), scenarios.Find(name)->description.c_str());
  }
  std::printf("\nbenches:\n");
  BenchRegistry& benches = BenchRegistry::Default();
  for (const std::string& name : benches.Names()) {
    std::printf("  %-24s %s\n", name.c_str(), benches.Find(name)->description.c_str());
  }
  return 0;
}

// run and whatif: the scenario must be named and registered, and the run
// request within the simulator's limits. Returns "" or a one-line error.
std::string CheckScenarioRun(Command command, const CliOptions& options) {
  if (options.name.empty()) {
    return std::string(CommandName(command)) +
           " requires a scenario name (first argument or --scenario)";
  }
  if (!ScenarioRegistry::Default().Has(options.name)) {
    return "unknown scenario '" + options.name + "'; try 'dprof list'";
  }
  return ValidateRunSpec(options.spec);
}

int CmdRun(const CliOptions& options) {
  const std::string error = CheckScenarioRun(kRun, options);
  if (!error.empty()) return Fail(error);
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), options.name, options.spec);
  if (!report.drill_type.empty() && !report.drill_type_found) {
    return Fail("scenario '" + options.name + "' has no type named '" + report.drill_type + "'");
  }

  if (options.json) {
    // On a diagnostic ending, the document still prints — it carries the
    // structured "error" block — but the exit code says the run failed.
    std::printf("%s\n", ScenarioReportToJson(report).c_str());
    return report.status.ok() ? 0 : 1;
  }
  std::printf("scenario: %s (%d cores, %llu cycles)\n", report.scenario.c_str(),
              report.cores, static_cast<unsigned long long>(report.collect_cycles));
  std::printf("requests: %llu (%.0f req/s), access samples: %llu\n\n",
              static_cast<unsigned long long>(report.requests), report.throughput_rps,
              static_cast<unsigned long long>(report.access_samples));
  std::printf("== data profile ==\n%s\n", report.profile_table.c_str());
  std::printf("== miss classification ==\n%s\n", report.miss_class_table.c_str());
  if (!report.drill_type.empty()) {
    if (report.path_trace_text.empty()) {
      std::printf("== path traces: %s ==\n(no histories collected)\n",
                  report.drill_type.c_str());
    } else {
      std::printf("== path traces: %s ==\n%s", report.drill_type.c_str(),
                  report.path_trace_text.c_str());
    }
  }
  if (report.degraded) {
    std::printf("note: sampled run degraded (%llu honesty violations%s%s)\n",
                static_cast<unsigned long long>(report.sampling_violations),
                report.sampling_window_widened ? ", window widened" : "",
                report.sampling_exact_fallback ? ", exact fallback" : "");
  }
  if (!report.status.ok()) {
    std::fprintf(stderr, "dprof: run ended in diagnostic: %s\n",
                 report.status.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdWhatIf(const CliOptions& options) {
  std::string error = CheckScenarioRun(kWhatIf, options);
  if (error.empty() && options.auto_search == !options.candidates.empty()) {
    error = "whatif needs either --auto or at least one --type/--fix pair";
  }
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  if (error.empty()) {
    error = ValidateWhatIf(registry, options.name, options.spec, options.candidates, options.top);
  }
  if (!error.empty()) return Fail(error);

  const WhatIfReport report = RunWhatIf(registry, options.name, options.spec, options.candidates,
                                        options.auto_search ? options.top : 0);
  if (options.auto_search && report.outcomes.empty()) {
    std::fprintf(stderr, "dprof: scenario '%s' produced no profiled types\n",
                 options.name.c_str());
    return 1;
  }
  if (options.json) {
    std::printf("%s\n", WhatIfReportToJson(report).c_str());
    return 0;
  }
  std::printf("scenario: %s (%d cores, %llu cycles)\n", report.scenario.c_str(),
              report.cores, static_cast<unsigned long long>(report.collect_cycles));
  std::printf("baseline: %llu requests (%.0f req/s)\n\n",
              static_cast<unsigned long long>(report.baseline_requests),
              report.baseline_rps);
  std::printf("== estimated gain per candidate fix ==\n%s",
              WhatIfReportToTable(report).c_str());
  return 0;
}

int CmdBench(const CliOptions& options) {
  if (options.name.empty()) return Fail("bench requires a bench name");
  const BenchInfo* info = BenchRegistry::Default().Find(options.name);
  if (info == nullptr) return Fail("unknown bench '" + options.name + "'; try 'dprof list'");
  BenchParams params;
  params.scale = options.scale;
  params.seed = options.spec.seed;
  const std::string error = ValidateBenchParams(params);
  if (!error.empty()) return Fail(error);

  const BenchReport report = info->fn(params);
  if (options.json) {
    std::printf("%s\n", BenchReportToJson(report).c_str());
  } else {
    std::printf("%s", BenchReportToText(report).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  const std::vector<std::string> args(argv, argv + argc);
  if (args.size() < 2) {
    std::fputs(UsageText().c_str(), stderr);
    return 2;
  }
  const std::string& word = args[1];
  if (word == "list") return CmdList();
  if (word == "help" || word == "--help" || word == "-h") {
    std::fputs(UsageText().c_str(), stdout);
    return 0;
  }
  for (const Command command : {kRun, kWhatIf, kBench, kCrashtest}) {
    if (word != CommandName(command)) continue;
    CliOptions options;
    std::string error;
    if (!ParseArgs(command, std::vector<std::string>(args.begin() + 2, args.end()), &options,
                   &error)) {
      return Fail(error);
    }
    switch (command) {
      case kRun:
        return CmdRun(options);
      case kWhatIf:
        return CmdWhatIf(options);
      case kBench:
        return CmdBench(options);
      case kCrashtest:
        error = ValidateRunSpec(options.spec);
        return error.empty() ? CmdCrashtest(options.json, options.spec.threads) : Fail(error);
    }
  }
  std::fprintf(stderr, "dprof: unknown command '%s'\n", word.c_str());
  std::fputs(UsageText().c_str(), stderr);
  return 2;
}

}  // namespace
}  // namespace dprof

int main(int argc, char** argv) { return dprof::Main(argc, argv); }
