#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/cli/scenario_registry.h"
#include "src/machine/engine.h"
#include "src/util/stats.h"

namespace dprof {
namespace {

// The engine's core guarantee: the committed event stream — and therefore
// the whole profiling report, views included — is bit-identical for every
// host thread count. These run full DProf sessions (IBS sampling, history
// collection, view construction) through `dprof run`'s code path.
std::string RunJson(const std::string& scenario, const RunSpec& spec) {
  return ScenarioReportToJson(RunScenario(ScenarioRegistry::Default(), scenario, spec));
}

// The threads-1 report every determinism assertion compares against,
// simulated once per process for each (scenario, topology, cores, cycles) —
// the only spec fields these tests vary — and shared by every assertion
// that asks for it again.
const std::string& Reference(const std::string& scenario, RunSpec spec) {
  static std::map<std::string, std::string> cache;
  spec.threads = 1;
  const std::string key = scenario + "/" + spec.topology + "/" + std::to_string(spec.cores) +
                          "/" + std::to_string(spec.collect_cycles);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, RunJson(scenario, spec)).first;
  }
  return it->second;
}

RunSpec Spec(int cores, uint64_t cycles, int threads) {
  RunSpec spec;
  spec.cores = cores;
  spec.collect_cycles = cycles;
  spec.threads = threads;
  return spec;
}

TEST(EngineDeterminismTest, MemcachedIdenticalAcrossThreadCounts) {
  const std::string& t1 = Reference("memcached", Spec(4, 2'000'000, 1));
  EXPECT_EQ(t1, RunJson("memcached", Spec(4, 2'000'000, 4)));
  EXPECT_EQ(t1, RunJson("memcached", Spec(4, 2'000'000, 16)));
}

TEST(EngineDeterminismTest, ConflictDemoIdenticalAcrossThreadCounts) {
  const std::string& t1 = Reference("conflict_demo", Spec(2, 2'000'000, 1));
  EXPECT_EQ(t1, RunJson("conflict_demo", Spec(2, 2'000'000, 4)));
  EXPECT_EQ(t1, RunJson("conflict_demo", Spec(2, 2'000'000, 16)));
}

TEST(EngineDeterminismTest, ApacheIdenticalAcrossThreadCounts) {
  // Apache exercises the latency-probe path and per-core open-loop pacing.
  EXPECT_EQ(Reference("apache", Spec(4, 1'500'000, 1)),
            RunJson("apache", Spec(4, 1'500'000, 2)));
}

TEST(EngineDeterminismTest, PaperTopologyIdenticalAcrossThreadCounts) {
  // The NUMA machine adds per-socket L3 slices, interconnect latency, and
  // the socket-cursor apply dispatch with work stealing — none of which may
  // leak host threading into the committed stream. The full report must be
  // byte-identical across thread counts: 4 threads is one apply task per
  // socket, 8 threads two.
  RunSpec spec;
  spec.topology = "paper-amd";
  spec.collect_cycles = 500'000;
  const std::string& base = Reference("memcached", spec);
  EXPECT_NE(base.find("num_sockets"), std::string::npos);
  for (const int threads : {4, 8}) {
    spec.threads = threads;
    EXPECT_EQ(base, RunJson("memcached", spec)) << "threads=" << threads;
  }
}

TEST(EngineTest, RunForReachesDeadline) {
  MachineConfig config;
  config.hierarchy.num_cores = 4;
  Machine machine(config);
  Engine engine(&machine, EngineConfig{2, 10'000});
  machine.SetExecutor(&engine);
  machine.RunFor(100'000);  // no drivers: cores idle forward deterministically
  EXPECT_GE(machine.MinClock(), 100'000u);
  EXPECT_GT(engine.epochs_run(), 0u);
}

TEST(EngineTest, RecordedStreamMatchesDirectModeForIndependentCores) {
  // With drivers that touch disjoint, core-local memory (no locks, no
  // cross-core lines, no PMU), the engine's committed clocks must be
  // exactly what direct execution produces: same accesses, same latencies.
  struct Driver final : CoreDriver {
    bool Step(CoreContext& ctx) override {
      const Addr base = 0x1000000 + static_cast<Addr>(ctx.core()) * 0x100000;
      ctx.Write(1, base + (steps % 64) * 64, 32);
      ctx.Compute(1, 10);
      ++steps;
      return true;
    }
    uint64_t steps = 0;
  };

  MachineConfig config;
  config.hierarchy.num_cores = 2;
  uint64_t direct_clock[2];
  uint64_t direct_steps[2];
  {
    Machine machine(config);
    Driver drivers[2];
    machine.SetDriver(0, &drivers[0]);
    machine.SetDriver(1, &drivers[1]);
    machine.RunFor(50'000);
    for (int c = 0; c < 2; ++c) {
      direct_clock[c] = machine.CoreClock(c);
      direct_steps[c] = drivers[c].steps;
    }
  }
  {
    Machine machine(config);
    Driver drivers[2];
    machine.SetDriver(0, &drivers[0]);
    machine.SetDriver(1, &drivers[1]);
    Engine engine(&machine, EngineConfig{1, 10'000});
    machine.SetExecutor(&engine);
    machine.RunFor(50'000);
    // Epoch boundaries quantize where the run stops, so allow the engine to
    // overshoot the deadline; per-step costs must agree, so clock and step
    // counts stay proportional.
    for (int c = 0; c < 2; ++c) {
      EXPECT_GE(machine.CoreClock(c), direct_clock[c]);
      EXPECT_GE(drivers[c].steps, direct_steps[c]);
      // Same per-step cost: clock difference explained by whole extra steps.
      const uint64_t extra_steps = drivers[c].steps - direct_steps[c];
      const uint64_t per_step = direct_clock[c] / direct_steps[c];
      EXPECT_EQ(machine.CoreClock(c) - direct_clock[c], extra_steps * per_step);
    }
  }
}

TEST(EngineTest, LatencyProbeMatchesDirectMode) {
  struct Driver final : CoreDriver {
    bool Step(CoreContext& ctx) override {
      ctx.BeginLatencyProbe();
      ctx.Read(1, 0x5000, 64);
      ctx.EndLatencyProbe(&stat, 1.0);
      ctx.Compute(1, 500);
      return true;
    }
    RunningStat stat;
  };

  MachineConfig config;
  config.hierarchy.num_cores = 1;
  auto run = [&](bool engine_mode) {
    Machine machine(config);
    Driver driver;
    machine.SetDriver(0, &driver);
    Engine engine(&machine, EngineConfig{1, 5'000});
    if (engine_mode) {
      machine.SetExecutor(&engine);
    }
    machine.RunFor(20'000);
    return driver.stat.mean();
  };
  const double direct_mean = run(false);
  const double engine_mean = run(true);
  // First access misses to DRAM, the rest hit L1: identical in both modes.
  EXPECT_DOUBLE_EQ(direct_mean, engine_mean);
}

TEST(EngineTest, LockArbitrationSerializesUnderEngine) {
  // Two cores hammer one lock; commit-order arbitration must produce waits
  // and consistent hold accounting, deterministically.
  struct Driver final : CoreDriver {
    Driver(SimLock* lock, int id) : lock(lock), id(id) {}
    bool Step(CoreContext& ctx) override {
      ctx.LockAcquire(*lock, 1);
      ctx.Compute(1, 200);
      ctx.LockRelease(*lock, 1);
      ctx.Compute(1, 50);
      return true;
    }
    SimLock* lock;
    int id;
  };
  struct Observer final : LockObserver {
    void OnAcquire(const SimLock&, int, FunctionId, uint64_t wait_cycles, uint64_t) override {
      total_wait += wait_cycles;
      ++acquires;
    }
    void OnRelease(const SimLock&, int, FunctionId, uint64_t, uint64_t) override {}
    uint64_t total_wait = 0;
    uint64_t acquires = 0;
  };

  auto run = [](int threads) {
    MachineConfig config;
    config.hierarchy.num_cores = 2;
    Machine machine(config);
    SimLock lock("test lock", 0x9000);
    Driver d0(&lock, 0), d1(&lock, 1);
    machine.SetDriver(0, &d0);
    machine.SetDriver(1, &d1);
    Observer observer;
    machine.SetLockObserver(&observer);
    Engine engine(&machine, EngineConfig{threads, 5'000});
    machine.SetExecutor(&engine);
    machine.RunFor(100'000);
    return std::make_pair(observer.total_wait, observer.acquires);
  };
  const auto t1 = run(1);
  EXPECT_GT(t1.second, 0u);
  EXPECT_GT(t1.first, 0u);  // contended: waits must materialize
  EXPECT_EQ(t1, run(4));
}

}  // namespace
}  // namespace dprof
