// The engine's commit-pass event sink.
//
// The commit pass calls MachineObserver::OnAccess/OnCompute inline, once per
// committed op, and consults PMU hooks through the QuietOps /
// OnQuietAccessBatch / AccessFilter contract. The tests here pin what that
// must preserve: each core's observed stream is its program order, the
// stream is identical for every host thread count, and the batched PMU
// paths take exactly the sampling decisions per-op dispatch takes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/machine/engine.h"
#include "src/pmu/debug_registers.h"
#include "src/pmu/ibs_unit.h"
#include "src/profilers/code_profiler.h"

namespace dprof {
namespace {

// (core, ip, addr, size, is_write, latency or compute cycles, now, is_compute)
using Recorded = std::tuple<int, FunctionId, Addr, uint32_t, bool, uint32_t, uint64_t, bool>;

struct Recorder final : MachineObserver {
  void OnAccess(const AccessEvent& e) override {
    stream.push_back({e.core, e.ip, e.addr, e.size, e.is_write, e.latency, e.now, false});
  }
  void OnCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) override {
    stream.push_back({core, ip, 0, 0, false, static_cast<uint32_t>(cycles), now, true});
  }
  std::vector<Recorded> stream;
};

constexpr Addr kLockWord = 0xa000;

struct MixedDriver final : CoreDriver {
  explicit MixedDriver(SimLock* lock) : lock(lock) {}
  bool Step(CoreContext& ctx) override {
    const Addr base = 0x100000 + static_cast<Addr>(ctx.core()) * 0x40000;
    ctx.Read(1, base + (steps % 128) * 64, 32);
    ctx.Compute(2, 40);
    ctx.Write(3, 0x900000 + (steps % 8) * 64, 8);  // shared, bounces
    if (steps % 5 == 0 && lock != nullptr) {
      ctx.LockAcquire(*lock, 4);
      ctx.Compute(4, 25);
      ctx.LockRelease(*lock, 4);
    }
    ++steps;
    return true;
  }
  SimLock* lock;
  uint64_t steps = 0;
};

// The events MixedDriver's first `steps` steps on `core` produce, in program
// order, without the committed latency and clock fields.
std::vector<Recorded> ExpectedProgram(int core, uint64_t steps) {
  const Addr base = 0x100000 + static_cast<Addr>(core) * 0x40000;
  std::vector<Recorded> program;
  for (uint64_t s = 0; s < steps; ++s) {
    program.push_back({core, 1, base + (s % 128) * 64, 32, false, 0, 0, false});
    program.push_back({core, 2, 0, 0, false, 40, 0, true});
    program.push_back({core, 3, 0x900000 + (s % 8) * 64, 8, true, 0, 0, false});
    if (s % 5 == 0) {
      program.push_back({core, 4, kLockWord, 8, true, 0, 0, false});
      program.push_back({core, 4, 0, 0, false, 25, 0, true});
      program.push_back({core, 4, kLockWord, 8, true, 0, 0, false});
    }
  }
  return program;
}

std::vector<Recorded> RunMixed(int threads, IbsUnit* ibs, std::vector<uint64_t>* steps) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  SimLock lock("sink lock", kLockWord);
  std::vector<MixedDriver> drivers(4, MixedDriver(&lock));
  for (int c = 0; c < 4; ++c) {
    machine.SetDriver(c, &drivers[c]);
  }
  Recorder recorder;
  machine.AddObserver(&recorder);
  if (ibs != nullptr) {
    machine.AddPmuHook(ibs);
  }
  Engine engine(&machine, EngineConfig{threads, 10'000});
  machine.SetExecutor(&engine);
  machine.RunFor(200'000);
  if (steps != nullptr) {
    for (int c = 0; c < 4; ++c) {
      steps->push_back(drivers[c].steps);
    }
  }
  return recorder.stream;
}

TEST(EventSinkTest, PerEventDeliveryFollowsProgramOrderUnderIbsSplits) {
  // An enabled IBS unit forces mid-segment dispatch points, so sampled
  // accesses commit through DispatchAccess between whole-segment runs.
  IbsUnit ibs(4, 64);
  std::vector<uint64_t> steps;
  const std::vector<Recorded> stream = RunMixed(1, &ibs, &steps);
  ASSERT_FALSE(stream.empty());
  EXPECT_GT(ibs.samples_taken(), 0u);

  // Every recorded op is committed and observed exactly once, each core's
  // events in program order, at strictly increasing committed clocks.
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    std::vector<Recorded> observed;
    uint64_t last_now = 0;
    for (const Recorded& e : stream) {
      if (std::get<0>(e) != c) {
        continue;
      }
      EXPECT_GT(std::get<6>(e), last_now);
      last_now = std::get<6>(e);
      Recorded shape = e;
      std::get<6>(shape) = 0;
      if (!std::get<7>(shape)) {
        std::get<5>(shape) = 0;  // committed latency
      }
      observed.push_back(shape);
    }
    ASSERT_GT(steps[c], 0u);
    EXPECT_EQ(observed, ExpectedProgram(c, steps[c]));
  }
}

TEST(EventSinkTest, ObserverIdenticalAcrossThreadCounts) {
  const std::vector<Recorded> t1 = RunMixed(1, nullptr, nullptr);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, RunMixed(4, nullptr, nullptr));  // worker threads must not reorder or drop
}

TEST(EventSinkTest, IbsQuietSkipMatchesPerOpCountdown) {
  // Feeding one unit per-op and its twin through QuietOps/OnQuietAccessBatch
  // chunks must sample the same ops and charge the same cycles.
  IbsUnit per_op(1, 50);
  IbsUnit batched(1, 50);
  std::vector<int> fired_per_op;
  std::vector<int> fired_batched;
  per_op.SetHandler([&](const IbsSample& s) { fired_per_op.push_back(static_cast<int>(s.now)); });
  batched.SetHandler(
      [&](const IbsSample& s) { fired_batched.push_back(static_cast<int>(s.now)); });

  AccessEvent event;
  event.core = 0;
  event.size = 8;
  uint64_t charged_per_op = 0;
  uint64_t charged_batched = 0;
  int op = 0;
  const int kOps = 20'000;
  while (op < kOps) {
    event.now = static_cast<uint64_t>(op);
    charged_per_op += per_op.OnAccess(event);
    ++op;
  }
  op = 0;
  while (op < kOps) {
    const uint64_t quiet = batched.QuietOps(0);
    if (quiet > 0) {
      const uint64_t chunk = std::min<uint64_t>(quiet, static_cast<uint64_t>(kOps - op));
      batched.OnQuietAccessBatch(0, chunk);
      op += static_cast<int>(chunk);
      if (op >= kOps) {
        break;
      }
    }
    event.now = static_cast<uint64_t>(op);
    charged_batched += batched.OnAccess(event);
    ++op;
  }
  EXPECT_EQ(per_op.samples_taken(), batched.samples_taken());
  EXPECT_EQ(charged_per_op, charged_batched);
  EXPECT_EQ(fired_per_op, fired_batched);  // identical sample positions
}

TEST(EventSinkTest, DebugRegisterFilterWindow) {
  DebugRegisterFile regs;
  Addr lo = 0;
  Addr hi = 0;
  EXPECT_FALSE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(regs.QuietOps(0), PmuHook::kQuietUnbounded);

  regs.Arm(0, 0x1000, 4);
  regs.Arm(1, 0x2000, 8);
  ASSERT_TRUE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(lo, 0x1000u);
  EXPECT_EQ(hi, 0x2008u);
  EXPECT_EQ(regs.QuietOps(0), 0u);

  regs.Disarm(1);
  ASSERT_TRUE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(lo, 0x1000u);
  EXPECT_EQ(hi, 0x1004u);

  regs.DisarmAll();
  EXPECT_FALSE(regs.AccessFilter(&lo, &hi));
  EXPECT_EQ(regs.QuietOps(0), PmuHook::kQuietUnbounded);
}

// End-to-end guard: an observer, live PMU hooks (IBS in phase 1,
// watchpoints in phase 2) and worker threads together. The memcached rig is
// built the way golden_stats_test builds it, with a CodeProfiler attached;
// its rows, the committed clocks and the hierarchy totals must not depend
// on the thread count.
TEST(EventSinkTest, ScenarioWithObserverDeterministicAcrossThreads) {
  struct Outcome {
    std::vector<FunctionProfileRow> rows;
    uint64_t profiled_cycles = 0;
    uint64_t profiled_l2_misses = 0;
    std::vector<uint64_t> clocks;
    HierarchyTotals totals;
    uint64_t ibs_samples = 0;
    uint64_t watchpoint_hits = 0;
  };
  auto run = [](int threads) {
    const ScenarioInfo* info = ScenarioRegistry::Default().Find("memcached");
    EXPECT_NE(info, nullptr);
    RunSpec params;
    params.cores = 4;
    params.threads = threads;
    params.build_view_json = false;
    auto rig = info->factory(params);
    rig->workload->Install(*rig->machine);
    CodeProfiler profiler;
    rig->machine->AddObserver(&profiler);
    Engine engine(rig->machine.get(), EngineConfig{threads});
    rig->machine->SetExecutor(&engine);
    DProfSession session(rig->machine.get(), rig->allocator.get(), rig->options);
    session.CollectAccessSamples(1'500'000);
    session.CollectHistoriesForTopTypes(2, 2);

    Outcome out;
    out.rows = profiler.Report(rig->machine->symbols(), 0.0);
    out.profiled_cycles = profiler.total_cycles();
    out.profiled_l2_misses = profiler.total_l2_misses();
    for (int c = 0; c < rig->machine->num_cores(); ++c) {
      out.clocks.push_back(rig->machine->CoreClock(c));
    }
    out.totals = rig->machine->hierarchy().Totals();
    out.ibs_samples = session.ibs().samples_taken();
    out.watchpoint_hits = session.debug_registers().hits();
    return out;
  };
  const Outcome t1 = run(1);
  const Outcome t4 = run(4);
  ASSERT_FALSE(t1.rows.empty());
  EXPECT_GT(t1.profiled_cycles, 0u);
  EXPECT_GT(t1.ibs_samples, 0u);
  EXPECT_GT(t1.watchpoint_hits, 0u);
  ASSERT_EQ(t1.rows.size(), t4.rows.size());
  for (size_t i = 0; i < t1.rows.size(); ++i) {
    EXPECT_EQ(t1.rows[i].fn, t4.rows[i].fn);
    EXPECT_EQ(t1.rows[i].cycles, t4.rows[i].cycles);
    EXPECT_EQ(t1.rows[i].l2_misses, t4.rows[i].l2_misses);
  }
  EXPECT_EQ(t1.profiled_cycles, t4.profiled_cycles);
  EXPECT_EQ(t1.profiled_l2_misses, t4.profiled_l2_misses);
  EXPECT_EQ(t1.ibs_samples, t4.ibs_samples);
  EXPECT_EQ(t1.watchpoint_hits, t4.watchpoint_hits);
  EXPECT_EQ(t1.clocks, t4.clocks);
  EXPECT_EQ(t1.totals.accesses, t4.totals.accesses);
  EXPECT_EQ(t1.totals.l1_hits, t4.totals.l1_hits);
  EXPECT_EQ(t1.totals.l1_misses, t4.totals.l1_misses);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(t1.totals.served[i], t4.totals.served[i]) << "served level " << i;
  }
  EXPECT_EQ(t1.totals.invalidation_misses, t4.totals.invalidation_misses);
  EXPECT_EQ(t1.totals.tag_reclaims, t4.totals.tag_reclaims);
  EXPECT_EQ(t1.totals.back_invalidations, t4.totals.back_invalidations);
}

}  // namespace
}  // namespace dprof
