// Tests for the dprof CLI subsystem: scenario registration and lookup,
// unknown-scenario handling, end-to-end scenario runs, and the shape of the
// machine-readable JSON output.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "src/cli/bench_registry.h"
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
        "table_6_6_lockstat_apache", "table_6_7_history_collection", "table_6_8_history_rates",
        "table_6_9_overhead_breakdown", "table_6_10_pairwise", "figure_6_1_dataflow_skbuff",
        "figure_6_2_ibs_overhead", "figure_6_3_unique_paths", "ablation_pairwise",
        "ablation_sampling_rate"}) {
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

}  // namespace
}  // namespace dprof
