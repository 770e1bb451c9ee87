// Sampled execution mode (statistical fast-forward): the engine alternates
// short detailed windows with calibrated fast-forward stretches and reports
// scaled estimates with confidence intervals. These tests pin the three
// properties the mode is allowed to claim:
//
//  1. Honesty: every reported interval must cover the exact-mode value it
//     estimates, for every registered scenario. A sampled run that reports
//     a confidence interval excluding the ground truth is a bug, not a
//     statistics problem — the interval floors exist to absorb systematic
//     window-placement bias (see SamplingController::kMissRateFloorPct).
//  2. Determinism: the sampled report is byte-identical across engine
//     thread counts, because the window schedule is a pure function of the
//     committed min-clock.
//  3. It actually fast-forwards: most of the run must be skipped work
//     (scale well above 1), otherwise the mode is exact mode with extra
//     steps.
//  4. PMU hooks: armed watchpoints keep firing through fast-forward
//     stretches, and IBS samples only the detailed windows.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/machine/engine.h"
#include "src/machine/sampling.h"
#include "src/pmu/debug_registers.h"
#include "src/pmu/ibs_unit.h"

namespace dprof {
namespace {

// Short runs keep the suite fast; the windows-per-run count still lands
// well above 10 with the default 400k-cycle period.
constexpr uint64_t kTestCycles = 4'000'000;

RunSpec BaseSpec() {
  RunSpec spec;
  spec.cores = 8;
  spec.threads = 1;
  spec.collect_cycles = kTestCycles;
  spec.collect_histories = false;  // phase 1 is where sampling operates
  spec.build_view_json = false;
  return spec;
}

TEST(SamplingTest, IntervalsCoverExactValuesForEveryScenario) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  for (const std::string& name : registry.Names()) {
    SCOPED_TRACE("scenario: " + name);
    RunSpec spec = BaseSpec();
    const ScenarioReport exact = RunScenario(registry, name, spec);
    spec.sampled = true;
    const ScenarioReport sampled = RunScenario(registry, name, spec);

    ASSERT_TRUE(sampled.sampling.enabled);
    ASSERT_GT(exact.hierarchy.accesses, 0u);

    // Overall L1 miss rate: the exact value must sit inside the interval.
    const double exact_rate = 100.0 *
                              static_cast<double>(exact.hierarchy.l1_misses) /
                              static_cast<double>(exact.hierarchy.accesses);
    const SamplingInterval& rate = sampled.sampling.l1_miss_rate;
    EXPECT_LE(rate.lo, exact_rate) << "CI excludes exact rate from below";
    EXPECT_GE(rate.hi, exact_rate) << "CI excludes exact rate from above";
    EXPECT_LE(rate.lo, rate.estimate);
    EXPECT_GE(rate.hi, rate.estimate);

    // Per-type miss shares: every interval reported for a type that the
    // exact profile also ranks must cover the exact share.
    for (const auto& t : sampled.sampling.types) {
      for (const auto& row : exact.profile) {
        if (row.type != t.type) continue;
        EXPECT_LE(t.ci_lo, row.miss_pct)
            << "type " << t.type << " CI excludes exact share from below";
        EXPECT_GE(t.ci_hi, row.miss_pct)
            << "type " << t.type << " CI excludes exact share from above";
      }
    }

    // The exact dominant type must stay at the top of the sampled ranking.
    // At this short run length (~10 windows) the top pair can swap when
    // their shares sit within one interval of each other, so the test
    // requires top-2 containment; ci/check_tables.py pins exact top-type
    // identity at the full 10M-cycle operating point.
    ASSERT_FALSE(exact.profile.empty());
    ASSERT_FALSE(sampled.profile.empty());
    const std::string& exact_top = exact.profile[0].type;
    bool in_top2 = sampled.profile[0].type == exact_top;
    if (!in_top2 && sampled.profile.size() > 1) {
      in_top2 = sampled.profile[1].type == exact_top;
    }
    EXPECT_TRUE(in_top2) << "exact top type " << exact_top
                         << " fell out of the sampled top 2 (sampled top: "
                         << sampled.profile[0].type << ")";
  }
}

TEST(SamplingTest, SampledRunActuallyFastForwards) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.sampled = true;
  const ScenarioReport r = RunScenario(registry, "memcached", spec);
  EXPECT_GT(r.sampling.ff_epochs, 0u);
  EXPECT_GT(r.sampling.ff_accesses, r.sampling.measured_accesses);
  EXPECT_GT(r.sampling.scale, 2.0);
  // The lattice only sees detailed-window work: its access total tracks the
  // measured-window count (a handful of filter-window accesses replayed at
  // commit can land outside EndEpoch's accounting, so not exact equality).
  EXPECT_LE(r.sampling.measured_accesses, r.hierarchy.accesses);
  EXPECT_LT(r.hierarchy.accesses - r.sampling.measured_accesses,
            r.sampling.measured_accesses / 20);
}

TEST(SamplingTest, SampledReportIsThreadCountInvariant) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.sampled = true;
  spec.build_view_json = true;
  spec.threads = 1;
  const std::string t1 = ScenarioReportToJson(RunScenario(registry, "memcached", spec));
  spec.threads = 4;
  const std::string t4 = ScenarioReportToJson(RunScenario(registry, "memcached", spec));
  EXPECT_EQ(t1, t4) << "sampled report differs between 1 and 4 engine threads";
}

TEST(SamplingTest, ExactModeReportCarriesNoSamplingBlock) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.build_view_json = true;
  const ScenarioReport r = RunScenario(registry, "memcached", spec);
  EXPECT_FALSE(r.sampling.enabled);
  EXPECT_EQ(ScenarioReportToJson(r).find("\"sampling\""), std::string::npos)
      << "exact-mode JSON must stay byte-identical to pre-sampling builds";
}

TEST(SamplingTest, CustomPeriodAndWindowAreHonored) {
  ScenarioRegistry& registry = ScenarioRegistry::Default();
  RunSpec spec = BaseSpec();
  spec.sampled = true;
  spec.sampling_period = 200'000;
  spec.sampling_window = 40'000;
  const ScenarioReport r = RunScenario(registry, "memcached", spec);
  EXPECT_EQ(r.sampling.period_cycles, 200'000u);
  EXPECT_EQ(r.sampling.window_cycles, 40'000u);
  // A denser schedule measures more: scale drops toward period/window.
  EXPECT_LT(r.sampling.scale, 10.0);
}

// A fast-forward epoch whose committed clock overshoots its runway can carry
// the clock from before a period's window straight into the next period. No
// epoch boundary fell inside that window, so it was never offered: the
// controller owes it (the next epoch runs detailed) instead of counting the
// period as starved and degrading the run.
TEST(SamplingTest, JumpedWindowIsOwedNotCountedAsStarved) {
  SamplingController sc(SamplingConfig{true, 400'000, 20'000});
  ASSERT_TRUE(sc.BeginEpoch(0));  // period 0's window opens at offset 0
  sc.EndEpoch(true, 20'000, 100);
  ASSERT_FALSE(sc.BeginEpoch(20'000));
  sc.EndEpoch(false, 380'000, 100);
  ASSERT_FALSE(sc.BeginEpoch(400'000));  // period 1, before its window
  ASSERT_GT(sc.FfRunway(400'000), 0u);
  sc.EndEpoch(false, 400'000, 100);  // lands in period 2: window 1 jumped

  EXPECT_TRUE(sc.BeginEpoch(800'000)) << "the jumped window must be served late";
  EXPECT_EQ(sc.violations(), 0u);
  EXPECT_FALSE(sc.widened());
  EXPECT_FALSE(sc.exact_fallback());
}

// The honesty check itself is unchanged for windows that were offered: a
// window entered too late in its period to serve half its budget is a
// violation, and the window widens.
TEST(SamplingTest, OpenWindowServedTooLateStillCounts) {
  SamplingController sc(SamplingConfig{true, 400'000, 20'000});
  ASSERT_TRUE(sc.BeginEpoch(0));
  sc.EndEpoch(true, 20'000, 100);
  ASSERT_FALSE(sc.BeginEpoch(20'000));
  sc.EndEpoch(false, 380'000, 100);
  ASSERT_FALSE(sc.BeginEpoch(400'000));
  sc.EndEpoch(false, 399'000, 100);  // overshoots into the window's tail
  ASSERT_TRUE(sc.BeginEpoch(799'000));
  sc.EndEpoch(true, 2'000, 100);  // 2000 < 10000 served when the period ends

  sc.BeginEpoch(801'000);
  EXPECT_EQ(sc.violations(), 1u);
  EXPECT_TRUE(sc.widened());
}

// The paper's Apache drop-off scenario at the operating point
// ci/check_tables.py checks: fast-forward epochs overshoot whole windows
// there, which used to walk the honesty ladder to the exact fallback.
TEST(SamplingTest, ApacheSampledRunKeepsFastForwarding) {
  RunSpec spec = BaseSpec();
  spec.cores = 16;
  spec.collect_cycles = 10'000'000;
  spec.sampled = true;
  const ScenarioReport r = RunScenario(ScenarioRegistry::Default(), "apache", spec);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.sampling_violations, 0u);
  EXPECT_GE(r.sampling.scale, 2.0);
}

// Fast-forward keeps the paper's §5.3 watchpoint histories alive and keeps
// IBS to the measured windows. One core writes one watched word and then
// computes on every step, so each committed access is a watchpoint hit. An
// epoch hook splits driver touches, hits and IBS samples by epoch; an epoch
// that left the hierarchy untouched was fast-forwarded.
class FastForwardHookTest : public ::testing::Test {
 protected:
  static constexpr Addr kWatched = 0x100000;
  static constexpr uint64_t kComputeCycles = 200;

  struct Toucher final : CoreDriver {
    bool Step(CoreContext& ctx) override {
      ctx.Write(1, kWatched, 8);
      ctx.Compute(1, kComputeCycles);
      ++touches;
      return true;
    }
    uint64_t touches = 0;
  };

  struct EpochTotals {
    uint64_t touches = 0;
    uint64_t hits = 0;
    uint64_t samples = 0;
    bool ff = false;
  };

  FastForwardHookTest() : machine_(Config()), ibs_(1, 64) {
    machine_.SetDriver(0, &driver_);
    DebugRegCostModel costs;
    costs.interrupt_cycles = 50;
    watch_.set_costs(costs);
    watch_.SetHandler([this](const AccessEvent& event, int) { hits_.push_back(event); });
    watch_.Arm(0, kWatched, 8);
  }

  static MachineConfig Config() {
    MachineConfig config;
    config.hierarchy.num_cores = 1;
    return config;
  }

  // Runs a sampled engine and returns the per-epoch totals.
  std::vector<EpochTotals> Run() {
    struct Splitter final : EpochHook {
      void OnEpochCommit(uint64_t) override {
        const uint64_t accesses = t->machine_.hierarchy().Totals().accesses;
        EpochTotals e;
        e.touches = t->driver_.touches - prev.touches;
        e.hits = t->watch_.hits() - prev.hits;
        e.samples = t->ibs_.samples_taken() - prev.samples;
        e.ff = accesses == prev_accesses;
        epochs.push_back(e);
        prev = {t->driver_.touches, t->watch_.hits(), t->ibs_.samples_taken(), false};
        prev_accesses = accesses;
      }
      FastForwardHookTest* t = nullptr;
      EpochTotals prev;
      uint64_t prev_accesses = 0;
      std::vector<EpochTotals> epochs;
    } splitter;
    splitter.t = this;
    machine_.AddEpochHook(&splitter);
    EngineConfig config;
    config.threads = 1;
    config.sampling.enabled = true;
    Engine engine(&machine_, config);
    machine_.SetExecutor(&engine);
    machine_.RunFor(kTestCycles);
    machine_.SetExecutor(nullptr);
    machine_.RemoveEpochHook(&splitter);
    EXPECT_TRUE(engine.status().ok()) << engine.status().ToString();
    EXPECT_GT(engine.phase_stats().ff_epochs, 0u);
    return splitter.epochs;
  }

  Machine machine_;
  Toucher driver_;
  DebugRegisterFile watch_;
  IbsUnit ibs_;
  std::vector<AccessEvent> hits_;
};

TEST_F(FastForwardHookTest, WatchpointFiresAndChargesInFastForwardEpochs) {
  machine_.AddPmuHook(&watch_);
  uint64_t ff_touches = 0;
  for (const EpochTotals& e : Run()) {
    EXPECT_EQ(e.hits, e.touches) << (e.ff ? "fast-forward" : "detailed") << " epoch";
    ff_touches += e.ff ? e.touches : 0;
  }
  EXPECT_GT(ff_touches, driver_.touches / 2) << "most of the run must fast-forward";
  // Each hit's interrupt lands on the core's clock before its next access:
  // consecutive hits sit exactly one step plus one interrupt apart.
  ASSERT_EQ(hits_.size(), driver_.touches);
  const uint64_t step = Machine::kBaseOpCost + kComputeCycles +
                        watch_.costs().interrupt_cycles;
  for (size_t k = 1; k < hits_.size(); ++k) {
    ASSERT_EQ(hits_[k].now - hits_[k - 1].now, step + hits_[k].latency) << "hit " << k;
  }
}

TEST_F(FastForwardHookTest, IbsTakesNoSamplesFromFastForwardEpochs) {
  machine_.AddPmuHook(&ibs_);
  machine_.AddPmuHook(&watch_);
  uint64_t detailed_samples = 0;
  for (const EpochTotals& e : Run()) {
    if (e.ff) {
      EXPECT_EQ(e.samples, 0u) << "IBS sampled a fast-forward stretch";
    } else {
      detailed_samples += e.samples;
    }
    EXPECT_EQ(e.hits, e.touches) << (e.ff ? "fast-forward" : "detailed") << " epoch";
  }
  EXPECT_GT(detailed_samples, 0u);
}

TEST(SamplingTest, WilsonIntervalIsSaneAndFloored) {
  // 500 of 1000: symmetric interval around 50%, at least the floor wide.
  SamplingInterval i = SamplingController::WilsonCI(500, 1000, 2.5);
  EXPECT_NEAR(i.estimate, 50.0, 0.01);
  EXPECT_LE(i.lo, 47.5);
  EXPECT_GE(i.hi, 52.5);
  EXPECT_GE(i.lo, 0.0);
  EXPECT_LE(i.hi, 100.0);
  // Degenerate inputs clamp instead of dividing by zero.
  i = SamplingController::WilsonCI(0, 0, 2.5);
  EXPECT_EQ(i.estimate, 0.0);
  EXPECT_GE(i.hi, i.lo);
  // k == n stays within [0, 100] even with the floor applied.
  i = SamplingController::WilsonCI(10, 10, 5.0);
  EXPECT_LE(i.hi, 100.0);
  EXPECT_GE(i.lo, 0.0);
}

}  // namespace
}  // namespace dprof
