// Coverage for the whatif engine and the TypeTransform plumbing beneath it:
// identity transforms are byte-identical to plain runs (and reproduce the
// golden stats fingerprints through the RunSpec path), every transform is
// deterministic across host thread counts,
// pad-to-line on conflict_demo's deliberately aliased type yields a positive
// measured gain, and ValidateWhatIf rejects candidates no run could honour.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/cli/whatif.h"

namespace dprof {
namespace {

RunSpec SmallConflictSpec() {
  RunSpec spec;
  spec.cores = 2;
  spec.collect_cycles = 2'000'000;
  spec.threads = 1;
  return spec;
}

// An all-identity TransformSet must leave every layout decision untouched:
// the full report JSON is byte-identical to a run with no transforms.
TEST(WhatIfTest, IdentityTransformIsByteIdenticalToPlainRun) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  const std::string plain =
      ScenarioReportToJson(RunScenario(registry, "conflict_demo", SmallConflictSpec()));

  RunSpec identity = SmallConflictSpec();
  identity.transforms.Add("pkt_stat", TypeTransformKind::kIdentity);
  identity.transforms.Add("skbuff", TypeTransformKind::kIdentity);
  const std::string transformed =
      ScenarioReportToJson(RunScenario(registry, "conflict_demo", identity));
  EXPECT_EQ(plain, transformed);
}

// The RunSpec path with an identity transform reproduces the golden stats
// fingerprint (tests/golden_stats_test.cc, memcached entry): the whatif
// baseline is the same simulation the goldens pin.
TEST(WhatIfTest, IdentityRunReproducesGoldenFingerprint) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec;
  spec.cores = 8;
  spec.threads = 1;
  spec.collect_cycles = 6'000'000;
  spec.build_view_json = false;
  spec.adaptive_epoch_focus = false;
  spec.transforms.Add("skbuff", TypeTransformKind::kIdentity);
  const ScenarioReport report = RunScenario(registry, "memcached", spec);
  EXPECT_EQ(report.hierarchy.accesses, 12661292u);
  EXPECT_EQ(report.hierarchy.l1_hits, 7628418u);
  EXPECT_EQ(report.hierarchy.l1_misses, 5032874u);
  const uint64_t served[5] = {7628418, 2244339, 528931, 2185426, 74178};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(report.hierarchy.served[i], served[i]) << "served level " << i;
  }
  EXPECT_EQ(report.hierarchy.invalidation_misses, 2155207u);
}

// Every transform in the catalog must keep the engine's determinism
// guarantee: the report is byte-identical for any host thread count.
TEST(WhatIfTest, TransformsAreDeterministicAcrossThreads) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const TypeTransformKind kind : AllTypeTransformKinds()) {
    SCOPED_TRACE(TypeTransformKindName(kind));
    RunSpec spec = SmallConflictSpec();
    spec.collect_histories = false;
    spec.transforms.Add("pkt_stat", kind);
    spec.threads = 1;
    const std::string reference =
        ScenarioReportToJson(RunScenario(registry, "conflict_demo", spec));
    spec.threads = 4;
    EXPECT_EQ(reference, ScenarioReportToJson(RunScenario(registry, "conflict_demo", spec)));
  }
}

// pin_home rewires the allocator's remote-free path (alien arrays skipped,
// transfers staged to the epoch boundary): exercise it on a workload that
// actually frees across cores, in the same determinism matrix.
TEST(WhatIfTest, PinHomeOnHeapTypeIsDeterministic) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec;
  spec.cores = 4;
  spec.collect_cycles = 2'000'000;
  spec.collect_histories = false;
  spec.transforms.Add("skbuff", TypeTransformKind::kPinHome);
  spec.transforms.Add("size-1024", TypeTransformKind::kPinHome);
  spec.threads = 1;
  const std::string reference = ScenarioReportToJson(RunScenario(registry, "memcached", spec));
  spec.threads = 4;
  EXPECT_EQ(reference, ScenarioReportToJson(RunScenario(registry, "memcached", spec)));
}

// conflict_demo places pkt_stat objects at a stride that aliases every
// object onto one associativity set; pad_to_line repacks the run densely,
// so the what-if diff must measure a positive throughput gain. The identity
// control arm must measure exactly zero.
TEST(WhatIfTest, PadToLineOnAliasedTypeYieldsPositiveGain) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  const std::vector<WhatIfCandidate> candidates = {
      {"pkt_stat", TypeTransformKind::kPadToLine},
      {"pkt_stat", TypeTransformKind::kIdentity},
  };
  const WhatIfReport report =
      RunWhatIf(registry, "conflict_demo", SmallConflictSpec(), candidates);
  ASSERT_EQ(report.outcomes.size(), 2u);
  // Ranked best-first: the real fix above the control arm.
  EXPECT_EQ(report.outcomes[0].candidate.kind, TypeTransformKind::kPadToLine);
  EXPECT_GT(report.outcomes[0].delta_pct, 0.0);
  EXPECT_GT(report.outcomes[0].throughput_rps, report.baseline_rps);
  EXPECT_EQ(report.outcomes[1].candidate.kind, TypeTransformKind::kIdentity);
  EXPECT_EQ(report.outcomes[1].delta_rps, 0.0);
  EXPECT_EQ(report.outcomes[1].requests, report.baseline_requests);

  const std::string json = WhatIfReportToJson(report);
  EXPECT_NE(json.find("\"whatif_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"fix\":\"pad_to_line\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_pct\":"), std::string::npos);
  const std::string table = WhatIfReportToTable(report);
  EXPECT_NE(table.find("pad_to_line"), std::string::npos);
}

// --auto picks its candidates from RunWhatIf's own baseline: the report
// equals the one a separate probe run, AutoCandidates over the probe's
// profile and an explicit-candidate RunWhatIf produce. The multi-socket
// topology makes pin_home expand per socket, so the socket count is
// carried over too.
TEST(WhatIfTest, AutoSearchMatchesProbeThenCandidates) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec;
  spec.topology = "paper-amd";
  spec.collect_cycles = 500'000;
  spec.threads = 2;

  RunSpec probe = spec;
  probe.build_view_json = false;
  probe.collect_histories = false;
  probe.threads = 1;
  const ScenarioReport baseline = RunScenario(registry, "conflict_demo", probe);
  const std::vector<WhatIfCandidate> candidates =
      AutoCandidates(baseline.profile, 1, baseline.num_sockets);
  ASSERT_GT(candidates.size(), AllTypeTransformKinds().size());

  const WhatIfReport explicit_report = RunWhatIf(registry, "conflict_demo", spec, candidates);
  const WhatIfReport auto_report = RunWhatIf(registry, "conflict_demo", spec, {}, 1);
  EXPECT_EQ(auto_report.outcomes.size(), candidates.size());
  EXPECT_EQ(WhatIfReportToJson(auto_report), WhatIfReportToJson(explicit_report));
}

TEST(WhatIfTest, AutoCandidatesCrossTopTypesWithCatalog) {
  std::vector<ScenarioProfileRow> profile(3);
  profile[0].type = "size-1024";
  profile[1].type = "skbuff";
  profile[2].type = "slab";
  const std::vector<WhatIfCandidate> candidates = AutoCandidates(profile, 2);
  ASSERT_EQ(candidates.size(), 2 * AllTypeTransformKinds().size());
  EXPECT_EQ(candidates.front().type, "size-1024");
  EXPECT_EQ(candidates.back().type, "skbuff");
  // Asking for more types than profiled clamps instead of overrunning.
  EXPECT_EQ(AutoCandidates(profile, 10).size(), 3 * AllTypeTransformKinds().size());
}

// Candidates are checked before anything runs: the type must exist in the
// scenario (as `run --type` requires), pin_home@N must name a socket of the
// topology, and the --auto width must be in range.
TEST(WhatIfTest, ValidateWhatIfRejectsWhatRunWouldReject) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = SmallConflictSpec();
  const auto validate = [&](const std::string& type, const char* fix, size_t top = 3) {
    WhatIfCandidate candidate{type, TypeTransformKind::kIdentity, -1};
    EXPECT_TRUE(ParseTypeTransformSpec(fix, &candidate.kind, &candidate.param));
    return ValidateWhatIf(registry, "conflict_demo", spec, {candidate}, top);
  };
  EXPECT_EQ(validate("pkt_stat", "pad_to_line"), "");
  EXPECT_EQ(validate("pkt_stat", "pin_home@0"), "");
  EXPECT_NE(validate("no_such_type", "pad_to_line").find("no_such_type"), std::string::npos);
  EXPECT_NE(validate("pkt_stat", "pin_home@1"), "");  // flat machine: socket 0 only
  EXPECT_NE(validate("pkt_stat", "align", 0), "");
  EXPECT_NE(validate("pkt_stat", "align", kMaxAutoTop + 1), "");
  spec.topology = "paper-amd";
  EXPECT_EQ(validate("pkt_stat", "pin_home@3"), "");
  EXPECT_NE(validate("pkt_stat", "pin_home@4"), "");
  // --auto picks profiled types itself; only its width is checked.
  EXPECT_EQ(ValidateWhatIf(registry, "conflict_demo", spec, {}, kMaxAutoTop), "");
}

}  // namespace
}  // namespace dprof
