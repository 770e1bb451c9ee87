// Tests for the dprof CLI subsystem: scenario registration and lookup,
// unknown-scenario handling, end-to-end scenario runs, the shape of the
// machine-readable JSON output, and the flag table behind every command.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "src/cli/bench_registry.h"
#include "src/cli/flags.h"
#include "src/cli/scenario_registry.h"
#include "src/util/json_writer.h"

namespace dprof {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("a\"b\\c\n");
  json.Key("n").Int(-3);
  json.Key("u").UInt(7);
  json.Key("x").Number(1.5);
  json.Key("flag").Bool(true);
  json.Key("items").BeginArray().Int(1).Int(2).EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":-3,\"u\":7,\"x\":1.5,"
            "\"flag\":true,\"items\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray().Number(std::numeric_limits<double>::infinity()).EndArray();
  EXPECT_EQ(json.str(), "[null]");
}

TEST(ScenarioRegistryTest, BuiltinsAreRegistered) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  EXPECT_TRUE(registry.Has("memcached"));
  EXPECT_TRUE(registry.Has("apache"));
  EXPECT_TRUE(registry.Has("kernel"));
  EXPECT_TRUE(registry.Has("conflict_demo"));
  EXPECT_EQ(registry.size(), 4u);
  for (const std::string& name : registry.Names()) {
    EXPECT_FALSE(registry.Find(name)->description.empty()) << name;
  }
}

TEST(ScenarioRegistryTest, UnknownScenarioIsReported) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  EXPECT_FALSE(registry.Has("no_such_scenario"));
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistryTest, DuplicateRegistrationIsRejected) {
  ScenarioRegistry registry;
  auto factory = [](const RunSpec&) { return std::unique_ptr<ScenarioRig>(); };
  EXPECT_TRUE(registry.Register("x", "first", factory));
  EXPECT_FALSE(registry.Register("x", "second", factory));
  EXPECT_EQ(registry.Find("x")->description, "first");
}

TEST(ScenarioRegistryTest, CustomScenarioFactoryReceivesParams) {
  ScenarioRegistry registry;
  int seen_cores = 0;
  registry.Register("probe", "records params", [&](const RunSpec& params) {
    seen_cores = params.cores;
    return std::unique_ptr<ScenarioRig>();
  });
  RunSpec params;
  params.cores = 5;
  registry.Find("probe")->factory(params);
  EXPECT_EQ(seen_cores, 5);
}

// A short end-to-end run of the cheapest scenario: the report must carry a
// non-empty data profile and sane counters.
TEST(ScenarioRunTest, ConflictDemoProducesProfile) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  RunSpec params;
  params.cores = 2;
  params.collect_cycles = 3'000'000;
  const ScenarioReport report = RunScenario(registry, "conflict_demo", params);
  EXPECT_EQ(report.scenario, "conflict_demo");
  EXPECT_EQ(report.cores, 2);
  EXPECT_GT(report.access_samples, 0u);
  EXPECT_FALSE(report.profile.empty());
  EXPECT_FALSE(report.profile_table.empty());
  double total_pct = 0.0;
  for (const ScenarioProfileRow& row : report.profile) {
    EXPECT_FALSE(row.type.empty());
    total_pct += row.miss_pct;
  }
  EXPECT_GT(total_pct, 0.0);
}

TEST(ScenarioRunTest, ReportJsonHasExpectedShape) {
  ScenarioRegistry registry;
  RegisterBuiltinScenarios(registry);
  RunSpec params;
  params.cores = 2;
  params.collect_cycles = 2'000'000;
  const ScenarioReport report = RunScenario(registry, "conflict_demo", params);
  const std::string json = ScenarioReportToJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"scenario\":\"conflict_demo\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput_rps\":"), std::string::npos);
  EXPECT_NE(json.find("\"profile\":["), std::string::npos);
  EXPECT_NE(json.find("\"miss_pct\":"), std::string::npos);
  // The embedded view documents.
  EXPECT_NE(json.find("\"views\":{"), std::string::npos);
  EXPECT_NE(json.find("\"working_set\":{"), std::string::npos);
  EXPECT_NE(json.find("\"miss_classification\":["), std::string::npos);
}

TEST(BenchRegistryTest, BuiltinsAreRegistered) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  EXPECT_NE(registry.Find("micro_costs"), nullptr);
  EXPECT_NE(registry.Find("memcached_throughput"), nullptr);
  EXPECT_NE(registry.Find("apache_throughput"), nullptr);
  EXPECT_EQ(registry.Find("no_such_bench"), nullptr);
}

TEST(BenchRegistryTest, PaperReproductionsAreRegistered) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  for (const char* name :
       {"table_6_1_memcached_profile", "table_6_2_lockstat_memcached",
        "table_6_3_oprofile_memcached", "table_6_4_6_5_apache_profile",
        "table_6_6_lockstat_apache", "table_6_7_6_8_6_9_history", "table_6_10_pairwise",
        "figure_6_1_dataflow_skbuff", "figure_6_2_ibs_overhead", "figure_6_3_unique_paths",
        "ablation_pairwise", "ablation_sampling_rate"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
}

// The reproductions run in-process and deterministically: the same table
// twice, with the paper's top type leading the profile.
TEST(BenchRegistryTest, PaperTableRunsInProcessAndRepeats) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  const BenchInfo* info = registry.Find("table_6_1_memcached_profile");
  ASSERT_NE(info, nullptr);
  const BenchReport first = info->fn(BenchParams{});
  const BenchReport second = info->fn(BenchParams{});
  EXPECT_EQ(first.bench, "table_6_1_memcached_profile");
  EXPECT_EQ(first.text, second.text);

  // The first row under the profile table's header rule.
  const std::string& text = first.text;
  const size_t header = text.find("Type name");
  ASSERT_NE(header, std::string::npos) << text;
  const size_t rule_end = text.find('\n', text.find('\n', header) + 1);
  ASSERT_NE(rule_end, std::string::npos);
  EXPECT_EQ(text.compare(rule_end + 1, 10, "size-1024 "), 0) << text;
}

TEST(BenchRegistryTest, MicroCostsJsonHasExpectedShape) {
  BenchRegistry registry;
  RegisterBuiltinBenches(registry);
  BenchParams params;
  params.scale = 0.01;  // keep the test fast; metric names are what matter
  const BenchReport report = registry.Find("micro_costs")->fn(params);
  EXPECT_EQ(report.bench, "micro_costs");
  EXPECT_GE(report.metrics.size(), 5u);

  const std::string json = BenchReportToJson(report);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"bench\":\"micro_costs\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  for (const char* metric :
       {"cache_touch", "slab_alloc_free", "resolve", "ibs_sampled_access", "path_trace_build",
        "ibs_interrupt_cycles", "watchpoint_interrupt_cycles"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + metric + "\""), std::string::npos)
        << metric;
  }
  // Every metric carries a numeric value and a unit.
  EXPECT_NE(json.find("\"value\":"), std::string::npos);
  EXPECT_NE(json.find("\"unit\":"), std::string::npos);
}

// Parses one invocation's arguments; returns the error ("" on success).
std::string Parse(Command command, const std::vector<std::string>& args,
                  CliOptions* options = nullptr) {
  CliOptions scratch;
  std::string error;
  ParseArgs(command, args, options != nullptr ? options : &scratch, &error);
  return error;
}

// A syntactically valid value for a row, so only acceptance is under test.
std::vector<std::string> Invocation(const FlagSpec& flag) {
  switch (flag.kind) {
    case FlagKind::kSwitch:
      return {flag.name};
    case FlagKind::kString:
      return {flag.name, "x"};
    default:
      return {flag.name, "1"};
  }
}

const Command kAllCommands[] = {kRun, kWhatIf, kBench, kCrashtest};

// Which command accepts which flag is user-visible behaviour: this is the
// whole command x flag matrix, spelled out independently of the table.
TEST(FlagTableTest, EveryCommandAcceptsExactlyItsFlags) {
  const std::map<Command, std::set<std::string>> accepted = {
      {kRun,
       {"--json", "--scenario", "--cores", "--topology", "--cycles", "--threads", "--type",
        "--local-tx-queue", "--admission-control", "--legacy-loop", "--sampled",
        "--sampling-period", "--sampling-window", "--audit", "--fault", "--fault-seed",
        "--watchdog-stall-epochs", "--watchdog-seconds", "--seed"}},
      {kWhatIf,
       {"--json", "--scenario", "--cores", "--topology", "--cycles", "--threads", "--type",
        "--fix", "--auto", "--top", "--local-tx-queue", "--admission-control", "--sampled",
        "--sampling-period", "--sampling-window", "--seed"}},
      {kBench, {"--json", "--seed", "--scale"}},
      {kCrashtest, {"--json", "--threads"}},
  };
  std::set<std::string> names;
  for (const FlagSpec& flag : Flags()) {
    EXPECT_TRUE(names.insert(flag.name).second) << "duplicate row " << flag.name;
    for (const Command command : kAllCommands) {
      const std::string error = Parse(command, Invocation(flag));
      const bool expected = accepted.at(command).count(flag.name) > 0;
      EXPECT_EQ(error.find("unknown flag") == std::string::npos, expected)
          << CommandName(command) << " " << flag.name << ": " << error;
    }
  }
  EXPECT_EQ(names.size(), 23u);
  for (const Command command : kAllCommands) {
    EXPECT_NE(Parse(command, {"--no-such-flag"}).find("unknown flag"), std::string::npos);
  }
}

TEST(FlagTableTest, HelpNamesEveryRowAndItsCommands) {
  const std::string help = UsageText();
  for (const FlagSpec& flag : Flags()) {
    const size_t line = help.find(std::string("\n  ") + flag.name + " ");
    ASSERT_NE(line, std::string::npos) << flag.name;
    const std::string text = help.substr(line + 1, help.find('\n', line + 1) - line - 1);
    const std::string commands = text.substr(text.rfind('['));
    for (const Command command : kAllCommands) {
      EXPECT_EQ(commands.find(CommandName(command)) != std::string::npos,
                (flag.commands & command) != 0)
          << text;
    }
  }
}

TEST(FlagTableTest, ScenarioIsNamedOnce) {
  CliOptions options;
  EXPECT_EQ(Parse(kRun, {"--scenario", "apache", "--json"}, &options), "");
  EXPECT_EQ(options.name, "apache");
  CliOptions positional;
  EXPECT_EQ(Parse(kRun, {"memcached"}, &positional), "");
  EXPECT_EQ(positional.name, "memcached");
  EXPECT_NE(Parse(kRun, {"memcached", "--scenario", "apache"}), "");
  EXPECT_NE(Parse(kWhatIf, {"--scenario", "memcached", "--scenario", "apache"}), "");
}

TEST(FlagTableTest, SettersWriteTheRunSpec) {
  CliOptions options;
  ASSERT_EQ(Parse(kRun,
                  {"conflict_demo", "--cores", "2", "--cycles", "3000", "--threads", "4",
                   "--seed", "18446744073709551615", "--legacy-loop", "--sampled",
                   "--sampling-period", "100", "--sampling-window", "10", "--json",
                   "--watchdog-seconds", "2.5"},
                  &options),
            "");
  EXPECT_EQ(options.spec.cores, 2);
  EXPECT_EQ(options.spec.collect_cycles, 3000u);
  EXPECT_EQ(options.spec.threads, 4);
  EXPECT_EQ(options.spec.seed, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(options.spec.use_engine);
  EXPECT_TRUE(options.spec.sampled);
  EXPECT_EQ(options.spec.sampling_period, 100u);
  EXPECT_EQ(options.spec.sampling_window, 10u);
  EXPECT_TRUE(options.json && options.spec.build_view_json);
  EXPECT_EQ(options.spec.watchdog_wall_seconds, 2.5);
  EXPECT_FALSE(CliOptions().spec.build_view_json);

  CliOptions whatif;
  ASSERT_EQ(Parse(kWhatIf,
                  {"m", "--type", "a", "--fix", "align", "--type", "b", "--fix", "pin_home@2"},
                  &whatif),
            "");
  ASSERT_EQ(whatif.candidates.size(), 2u);
  EXPECT_EQ(whatif.candidates[0].Label(), "a:align");
  EXPECT_EQ(whatif.candidates[1].Label(), "b:pin_home@2");
}

// In whatif, --type only names the type of the --fix after it: a repeated
// --fix reuses it, and a --type no --fix takes up is an error, with or
// without --auto.
TEST(FlagTableTest, WhatIfTypeNeedsAFix) {
  CliOptions options;
  ASSERT_EQ(Parse(kWhatIf, {"m", "--type", "a", "--fix", "align", "--fix", "recolor"}, &options),
            "");
  ASSERT_EQ(options.candidates.size(), 2u);
  EXPECT_EQ(options.candidates[0].Label(), "a:align");
  EXPECT_EQ(options.candidates[1].Label(), "a:recolor");
  EXPECT_EQ(options.spec.drill_type, "");

  EXPECT_NE(Parse(kWhatIf, {"m", "--type", "a", "--fix", "align", "--type", "b"}).find("'b'"),
            std::string::npos);
  EXPECT_NE(Parse(kWhatIf, {"m", "--auto", "--type", "a"}).find("--auto"), std::string::npos);
  EXPECT_NE(Parse(kWhatIf, {"m", "--type", "a", "--auto"}), "");
  // run's --type is its drill-down type and needs no --fix.
  EXPECT_EQ(Parse(kRun, {"m", "--type", "a"}), "");
}

// An int flag refuses a value past INT_MAX and names it as typed.
TEST(FlagTableTest, OversizedIntNamesTheTypedValue) {
  for (const char* flag : {"--cores", "--threads"}) {
    const std::string error = Parse(kRun, {flag, "99999999999999"});
    EXPECT_NE(error.find(flag), std::string::npos) << error;
    EXPECT_NE(error.find("99999999999999"), std::string::npos) << error;
    EXPECT_EQ(error.find("2147483647"), std::string::npos) << error;
  }
  CliOptions options;
  EXPECT_EQ(Parse(kRun, {"--threads", "2147483647"}, &options), "");
  EXPECT_EQ(options.spec.threads, 2147483647);
}

// Numbers mean what the parser says: no sign, no wrap-around, no infinity.
TEST(FlagTableTest, MalformedNumbersAreRejected) {
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"--cycles", "-5"},
           {"--cycles", "0"},
           {"--cycles", "2e6"},
           {"--cycles", "18446744073709551616"},
           {"--seed", "-1"},
           {"--seed", "+3"},
           {"--seed", " 3"},
           {"--cores", ""},
           {"--threads", "-1"},
           {"--watchdog-seconds", "inf"},
           {"--watchdog-seconds", "nan"},
           {"--watchdog-seconds", "0"},
           {"--cores"}}) {
    EXPECT_NE(Parse(kRun, args), "") << args[0] << " " << (args.size() > 1 ? args[1] : "");
  }
  for (const char* scale : {"inf", "-inf", "nan", "0", "-1", "1x"}) {
    EXPECT_NE(Parse(kBench, {"--scale", scale}), "") << scale;
  }
  // --scale is finite and positive, and bounded so the benches' scaled
  // iteration counts cannot overflow.
  BenchParams params;
  params.scale = 1e30;
  EXPECT_NE(ValidateBenchParams(params), "");
  params.scale = kMaxBenchScale;
  EXPECT_EQ(ValidateBenchParams(params), "");
}

// Every error names a flag of the table (user text echoed in quotes aside).
TEST(FlagTableTest, ErrorMessagesNameExistingFlags) {
  std::vector<std::string> errors = {
      Parse(kRun, {"--cores"}),
      Parse(kRun, {"--cycles", "x"}),
      Parse(kRun, {"--audit", "0"}),
      Parse(kBench, {"--scale", "inf"}),
      Parse(kRun, {"--bogus"}),
      Parse(kWhatIf, {"--fix", "align"}),
      Parse(kWhatIf, {"--type", "t", "--fix", "bogus"}),
      Parse(kRun, {"a", "--scenario", "b"}),
      Parse(kWhatIf, {"m", "--type", "t"}),
      Parse(kWhatIf, {"m", "--auto", "--type", "t"}),
      Parse(kRun, {"--cores", "99999999999999"}),
  };
  const auto invalid = [](auto mutate) {
    RunSpec spec;
    mutate(spec);
    return ValidateRunSpec(spec);
  };
  errors.push_back(invalid([](RunSpec& s) { s.topology = "nosuch"; }));
  errors.push_back(invalid([](RunSpec& s) { s.cores = 0; }));
  errors.push_back(invalid([](RunSpec& s) { s.threads = 2000; }));
  errors.push_back(invalid([](RunSpec& s) { s.sampling_period = 100; }));
  errors.push_back(invalid([](RunSpec& s) {
    s.sampled = true;
    s.sampling_period = 100;
    s.sampling_window = 200;
  }));
  errors.push_back(invalid([](RunSpec& s) { s.fault_seams = "nosuch"; }));
  errors.push_back(invalid([](RunSpec& s) { s.watchdog_wall_seconds = -1.0; }));
  BenchParams params;
  params.scale = 1e30;
  errors.push_back(ValidateBenchParams(params));

  std::set<std::string> names;
  for (const FlagSpec& flag : Flags()) names.insert(flag.name);
  const std::regex quoted("'[^']*'");
  const std::regex flag_name("--[a-z-]+");
  for (const std::string& error : errors) {
    ASSERT_NE(error, "");
    const std::string text = std::regex_replace(error, quoted, "");
    int named = 0;
    for (std::sregex_iterator it(text.begin(), text.end(), flag_name), end; it != end; ++it) {
      EXPECT_EQ(names.count(it->str()), 1u) << it->str() << " in: " << error;
      ++named;
    }
    EXPECT_GT(named, 0) << error;
  }
}

}  // namespace
}  // namespace dprof
