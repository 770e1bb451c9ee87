#include <gtest/gtest.h>

#include <string>

#include "src/machine/engine.h"
#include "src/machine/faults.h"
#include "src/machine/machine.h"
#include "src/sim/audit.h"
#include "src/sim/hierarchy.h"

namespace dprof {
namespace {

HierarchyConfig SmallConfig(int cores = 4) {
  HierarchyConfig config;
  config.num_cores = cores;
  config.l1 = CacheGeometry{1024, 64, 2};
  config.l2 = CacheGeometry{4096, 64, 4};
  config.l3 = CacheGeometry{16384, 64, 8};
  return config;
}

TEST(HierarchyTest, FirstAccessComesFromDram) {
  CacheHierarchy h(SmallConfig());
  const AccessResult r = h.Access(0, 0x1000, 8, false, 1);
  EXPECT_EQ(r.level, ServedBy::kDram);
  EXPECT_EQ(r.latency, h.config().latency.dram);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.invalidation);
}

TEST(HierarchyTest, SecondAccessHitsL1) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x1000, 8, false, 1);
  const AccessResult r = h.Access(0, 0x1000, 8, false, 2);
  EXPECT_EQ(r.level, ServedBy::kL1);
  EXPECT_FALSE(r.l1_miss);
}

TEST(HierarchyTest, RemoteDirtyLineIsForeignFetch) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x2000, 8, true, 1);  // core 0 writes (modified)
  const AccessResult r = h.Access(1, 0x2000, 8, false, 2);
  EXPECT_EQ(r.level, ServedBy::kForeignCache);
}

TEST(HierarchyTest, WriteInvalidatesRemoteCopies) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x3000, 8, false, 1);  // core 0 caches the line
  h.Access(1, 0x3000, 8, true, 2);   // core 1 writes: invalidate core 0
  EXPECT_FALSE(h.InPrivateCache(0, 0x3000));
  // Core 0's next access is an invalidation miss (ground truth flag).
  const AccessResult r = h.Access(0, 0x3000, 8, false, 3);
  EXPECT_TRUE(r.invalidation);
  EXPECT_EQ(r.level, ServedBy::kForeignCache);  // dirty at core 1
}

TEST(HierarchyTest, EvictionIsNotAnInvalidationMiss) {
  HierarchyConfig config = SmallConfig();
  CacheHierarchy h(config);
  // Thrash set 0 of core 0's L1/L2 until 0x0 is evicted naturally.
  h.Access(0, 0x0, 8, false, 1);
  const uint64_t span = config.l2.NumSets() * config.l2.line_size;
  for (int i = 1; i <= 16; ++i) {
    h.Access(0, static_cast<Addr>(i) * span, 8, false, 1 + i);
  }
  const AccessResult r = h.Access(0, 0x0, 8, false, 100);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.invalidation);
}

TEST(HierarchyTest, SharedReadersDoNotInvalidateEachOther) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x4000, 8, false, 1);
  h.Access(1, 0x4000, 8, false, 2);
  EXPECT_TRUE(h.InPrivateCache(0, 0x4000));
  EXPECT_TRUE(h.InPrivateCache(1, 0x4000));
  const AccessResult r0 = h.Access(0, 0x4000, 8, false, 3);
  EXPECT_EQ(r0.level, ServedBy::kL1);
}

TEST(HierarchyTest, DirtyWritebackServesLaterReadFromL3) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x5000, 8, true, 1);   // dirty at core 0
  h.Access(1, 0x5000, 8, false, 2);  // foreign fetch + writeback to L3
  // A third core now finds it in L3 (both private copies are clean).
  const AccessResult r = h.Access(2, 0x5000, 8, false, 3);
  EXPECT_EQ(r.level, ServedBy::kL3);
}

TEST(HierarchyTest, MultiLineAccessAggregates) {
  CacheHierarchy h(SmallConfig());
  const AccessResult r = h.Access(0, 0x6000, 256, false, 1);  // 4 lines
  EXPECT_EQ(r.lines, 4u);
  EXPECT_EQ(r.latency, 4 * h.config().latency.dram);
  EXPECT_EQ(r.level, ServedBy::kDram);
}

TEST(HierarchyTest, UnalignedAccessSpansExtraLine) {
  CacheHierarchy h(SmallConfig());
  const AccessResult r = h.Access(0, 0x6000 + 60, 8, false, 1);  // straddles
  EXPECT_EQ(r.lines, 2u);
}

TEST(HierarchyTest, ProbeLevelMatchesAccessOutcome) {
  CacheHierarchy h(SmallConfig());
  EXPECT_EQ(h.ProbeLevel(0, 0x7000), ServedBy::kDram);
  h.Access(0, 0x7000, 8, false, 1);
  EXPECT_EQ(h.ProbeLevel(0, 0x7000), ServedBy::kL1);
  h.Access(1, 0x7000, 8, true, 2);
  EXPECT_EQ(h.ProbeLevel(0, 0x7000), ServedBy::kForeignCache);
}

TEST(HierarchyTest, CoreStatsAccumulate) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x8000, 8, false, 1);
  h.Access(0, 0x8000, 8, false, 2);
  const CoreMemStats& stats = h.core_stats(0);
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.l1_hits, 1u);
  EXPECT_EQ(stats.l1_misses, 1u);
  EXPECT_EQ(stats.served[static_cast<int>(ServedBy::kDram)], 1u);
  EXPECT_EQ(stats.served[static_cast<int>(ServedBy::kL1)], 1u);
}

TEST(HierarchyTest, FlushAllEmptiesEverything) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0x9000, 8, true, 1);
  h.FlushAll();
  EXPECT_FALSE(h.InPrivateCache(0, 0x9000));
  const AccessResult r = h.Access(0, 0x9000, 8, false, 2);
  EXPECT_EQ(r.level, ServedBy::kDram);
}

TEST(HierarchyTest, LatencyModelOrdering) {
  LatencyModel lat;
  EXPECT_LT(lat.Of(ServedBy::kL1), lat.Of(ServedBy::kL2));
  EXPECT_LT(lat.Of(ServedBy::kL2), lat.Of(ServedBy::kL3));
  EXPECT_LT(lat.Of(ServedBy::kL3), lat.Of(ServedBy::kForeignCache));
  EXPECT_LE(lat.Of(ServedBy::kForeignCache), lat.Of(ServedBy::kDram));
}

TEST(HierarchyTest, ServedByNames) {
  EXPECT_STREQ(ServedByName(ServedBy::kL1), "local L1");
  EXPECT_STREQ(ServedByName(ServedBy::kForeignCache), "foreign cache");
  EXPECT_STREQ(ServedByName(ServedBy::kDram), "DRAM");
}

// ---------------------------------------------------------------------------
// Inclusive tag lattice: the embedded directory and its inclusion obligation.
// ---------------------------------------------------------------------------

// A tiny lattice (one extension way per L3 set) so overflow is easy to force.
HierarchyConfig TinyLatticeConfig() {
  HierarchyConfig config = SmallConfig(4);
  config.l3_dir_ext_ways = 1;
  return config;
}

TEST(HierarchyTest, ModifiedLineKeepsLatticeTagWithoutData) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0xB000, 8, true, 1);  // modified at core 0: L3 data is stale
  EXPECT_TRUE(h.L3HasTag(0xB000));  // ...but the directory tag stays embedded
  EXPECT_EQ(h.ProbeLevel(1, 0xB000), ServedBy::kForeignCache);
}

TEST(HierarchyTest, ExtensionOverflowBackInvalidatesPrivateCopies) {
  const HierarchyConfig config = TinyLatticeConfig();
  CacheHierarchy h(config);
  // Two lines in the same L3 set, both written (each holds a dir-only tag:
  // one in its data way as an in-place residue, the second likewise). Force
  // residue displacement by filling every data way of the set with fresh
  // lines: displaced residues overflow the single extension way, so the
  // oldest tag is reclaimed and core 0's private copies vanish with it.
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const Addr a = 0x10000;
  const Addr b = a + set_span;
  h.Access(0, a, 8, true, 1);
  h.Access(0, b, 8, true, 2);
  ASSERT_TRUE(h.InPrivateCache(0, a));
  ASSERT_EQ(h.tag_reclaims(), 0u);
  for (uint64_t i = 2; i <= 1 + config.l3.ways; ++i) {
    h.Access(1, a + i * set_span, 8, false, 10 + i);
  }
  EXPECT_GT(h.tag_reclaims(), 0u);
  EXPECT_GT(h.back_invalidations(), 0u);
  // Inclusion invariant: a privately-held line always has a lattice tag.
  EXPECT_TRUE(!h.InPrivateCache(0, a) || h.L3HasTag(a));
  EXPECT_TRUE(!h.InPrivateCache(0, b) || h.L3HasTag(b));
  // The reclaimed tag took its private copies with it.
  EXPECT_FALSE(h.InPrivateCache(0, a));
}

TEST(HierarchyTest, DataEvictionWithLiveSharersKeepsDirectoryTag) {
  HierarchyConfig config = SmallConfig();
  CacheHierarchy h(config);
  // Cores 0 and 1 share a line; stream enough distinct lines through its L3
  // set to evict its data. The directory tag must survive (demoted, not
  // dropped), so a third core still sees a foreign copy rather than DRAM.
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const Addr shared = 0x40000;
  h.Access(0, shared, 8, false, 1);
  h.Access(1, shared, 8, false, 2);
  for (uint64_t i = 1; i <= config.l3.ways; ++i) {
    h.Access(2, shared + i * set_span, 8, false, 2 + i);
  }
  ASSERT_EQ(h.ProbeLevel(3, shared), ServedBy::kForeignCache);
  EXPECT_TRUE(h.InPrivateCache(0, shared));
  EXPECT_TRUE(h.InPrivateCache(1, shared));
  EXPECT_EQ(h.tag_reclaims(), 0u);
  const AccessResult r = h.Access(3, shared, 8, false, 100);
  EXPECT_EQ(r.level, ServedBy::kForeignCache);
}

TEST(HierarchyTest, FlushAllResetsEmbeddedDirectoryState) {
  CacheHierarchy h(SmallConfig());
  h.Access(0, 0xC000, 8, false, 1);
  h.Access(1, 0xC000, 8, true, 2);  // dir state: owner=1, invalidated_from={0}
  h.FlushAll();
  EXPECT_FALSE(h.L3HasTag(0xC000));
  EXPECT_EQ(h.L3DataLines(), 0u);
  // No stale invalidated-from bit: the next miss is a plain DRAM miss.
  const AccessResult r = h.Access(0, 0xC000, 8, false, 3);
  EXPECT_EQ(r.level, ServedBy::kDram);
  EXPECT_FALSE(r.invalidation);
}

TEST(HierarchyTest, WriteUpgradeTemplatePathsAgree) {
  // The templated Access<is_write> must behave exactly like the runtime
  // dispatch form for both polarities.
  CacheHierarchy a(SmallConfig());
  CacheHierarchy b(SmallConfig());
  const AccessResult r1 = a.Access<true>(0, 0xD000, 8, 1);
  const AccessResult r2 = b.Access(0, 0xD000, 8, true, 1);
  EXPECT_EQ(r1.level, r2.level);
  const AccessResult r3 = a.Access<false>(1, 0xD000, 8, 2);
  const AccessResult r4 = b.Access(1, 0xD000, 8, false, 2);
  EXPECT_EQ(r3.level, r4.level);
  EXPECT_EQ(r3.level, ServedBy::kForeignCache);
}

// ---------------------------------------------------------------------------
// NUMA topology: home-socket assignment, interconnect latency, and
// cross-socket back-invalidation accounting.
// ---------------------------------------------------------------------------

// The small machine split into two sockets of two cores, each with its own
// L3 slice. Shards = 8 (the L1 set count), so home_shift = 2 and home
// blocks are 4 lines (256 bytes) cycling socket 0, 1, 0, 1, ...
HierarchyConfig NumaConfig() {
  HierarchyConfig config = SmallConfig(4);
  config.num_sockets = 2;
  return config;
}

TEST(HierarchyTest, NumaHomeAssignmentCyclesByBlock) {
  CacheHierarchy h(NumaConfig());
  ASSERT_EQ(h.num_sockets(), 2);
  const uint64_t block = h.home_block_bytes();
  EXPECT_EQ(h.HomeSocketOf(0), 0);
  EXPECT_EQ(h.HomeSocketOf(block), 1);
  EXPECT_EQ(h.HomeSocketOf(2 * block), 0);
  EXPECT_EQ(h.SocketOfCore(0), 0);
  EXPECT_EQ(h.SocketOfCore(3), 1);
  // Flat machines degenerate: every address is home, every core socket 0.
  CacheHierarchy flat(SmallConfig(4));
  EXPECT_EQ(flat.num_sockets(), 1);
  EXPECT_EQ(flat.HomeSocketOf(flat.home_block_bytes()), 0);
  EXPECT_EQ(flat.SocketOfCore(3), 0);
}

TEST(HierarchyTest, NumaRemoteHomeFillChargesInterconnect) {
  CacheHierarchy h(NumaConfig());
  const uint64_t block = h.home_block_bytes();
  // Local-home DRAM fill: core 0 (socket 0) reads a socket-0 block.
  const AccessResult local = h.Access(0, 0, 8, false, 1);
  EXPECT_EQ(local.level, ServedBy::kDram);
  EXPECT_EQ(local.latency, h.config().latency.dram);
  EXPECT_EQ(h.remote_fills(), 0u);
  // Remote-home DRAM fill: the next block's home slice is socket 1.
  const AccessResult remote = h.Access(0, block, 8, false, 2);
  EXPECT_EQ(remote.level, ServedBy::kDram);
  EXPECT_EQ(remote.latency, h.config().latency.dram + h.config().latency.interconnect);
  EXPECT_EQ(h.remote_fills(), 1u);
  EXPECT_EQ(h.core_stats(0).remote_fills, 1u);
}

TEST(HierarchyTest, NumaCrossSocketDirtyTransferChargesInterconnect) {
  // 0x2000 is a socket-0 home block. A same-socket dirty transfer (core 0 ->
  // core 1) pays plain foreign latency; the identical transfer to a core on
  // the other socket (core 2) adds exactly one interconnect hop.
  CacheHierarchy same(NumaConfig());
  ASSERT_EQ(same.HomeSocketOf(0x2000), 0);
  same.Access(0, 0x2000, 8, true, 1);
  const AccessResult r_same = same.Access(1, 0x2000, 8, false, 2);
  EXPECT_EQ(r_same.level, ServedBy::kForeignCache);

  CacheHierarchy cross(NumaConfig());
  cross.Access(0, 0x2000, 8, true, 1);
  const AccessResult r_cross = cross.Access(2, 0x2000, 8, false, 2);
  EXPECT_EQ(r_cross.level, ServedBy::kForeignCache);
  EXPECT_EQ(r_cross.latency, r_same.latency + cross.config().latency.interconnect);
  EXPECT_EQ(same.remote_fills(), 0u);
  EXPECT_EQ(cross.remote_fills(), 1u);
}

TEST(HierarchyTest, NumaCrossSocketBackInvalidationCounted) {
  // The TinyLattice overflow idiom, driven from the far socket: cores 2 and
  // 3 (socket 1) write and then displace lines whose home slice is socket 0,
  // so the reclaim's back-invalidations cross the interconnect.
  HierarchyConfig config = NumaConfig();
  config.l3_dir_ext_ways = 1;
  CacheHierarchy h(config);
  const uint64_t set_span = config.l3.NumSets() * config.l3.line_size;
  const Addr a = 0x10000;
  ASSERT_EQ(h.HomeSocketOf(a), 0);
  ASSERT_EQ(h.SocketOfCore(2), 1);
  h.Access(2, a, 8, true, 1);
  h.Access(2, a + set_span, 8, true, 2);
  ASSERT_TRUE(h.InPrivateCache(2, a));
  for (uint64_t i = 2; i <= 1 + config.l3.ways; ++i) {
    h.Access(3, a + i * set_span, 8, false, 10 + i);
  }
  EXPECT_GT(h.tag_reclaims(), 0u);
  EXPECT_GT(h.back_invalidations(), 0u);
  EXPECT_GT(h.cross_socket_back_invalidations(), 0u);
  EXPECT_FALSE(h.InPrivateCache(2, a));
}

TEST(HierarchyTest, WrongHomeFaultInjectableOnlyOnNuma) {
  // Fault kind 6 duplicates a tagged line into a foreign slice's extension
  // bank. It has nothing to corrupt on a flat machine, and on a NUMA one the
  // auditor must call out the misplaced home.
  CacheHierarchy flat(SmallConfig(4));
  flat.Access(0, 0x3000, 8, true, 1);
  EXPECT_FALSE(flat.InjectLatticeFault(6));

  CacheHierarchy h(NumaConfig());
  h.Access(0, 0x3000, 8, true, 1);
  InvariantAuditor auditor(&h);
  EXPECT_TRUE(auditor.Audit().ok());
  ASSERT_TRUE(h.InjectLatticeFault(6));
  const AuditResult corrupted = auditor.Audit();
  EXPECT_FALSE(corrupted.ok());
  bool mentions_home = false;
  for (const std::string& v : corrupted.violations) {
    mentions_home = mentions_home || v.find("home") != std::string::npos;
  }
  EXPECT_TRUE(mentions_home);
}

// ---------------------------------------------------------------------------
// Directory-extension overflow scenario (test-only, unregistered): a full
// engine-driven workload that actually fires the ReclaimExtWay inclusion
// obligation, which no registered scenario reaches. Core 0 writes two lines
// of one L3 set (their stale L3 copies become in-place dir-only residues);
// core 1 then streams enough fresh lines through the same set that the
// displaced residues overflow the single extension way, reclaiming the
// oldest tag and back-invalidating core 0's private copies.
// ---------------------------------------------------------------------------

class ExtOverflowWriter final : public CoreDriver {
 public:
  ExtOverflowWriter(Addr base, uint64_t span) : base_(base), span_(span) {}
  bool Step(CoreContext& ctx) override {
    if (i_ >= 2) {
      return false;
    }
    ctx.Write(1, base_ + i_ * span_, 8);
    ctx.Compute(1, 100);
    ++i_;
    return true;
  }

 private:
  Addr base_;
  uint64_t span_;
  uint64_t i_ = 0;
};

class ExtOverflowStreamer final : public CoreDriver {
 public:
  ExtOverflowStreamer(Addr base, uint64_t span, uint64_t lines)
      : base_(base), span_(span), lines_(lines) {}
  bool Step(CoreContext& ctx) override {
    if (!delayed_) {
      // Pad past the writer's ops so the quantum merge orders the stream
      // strictly after the residues exist.
      ctx.Compute(2, 60'000);
      delayed_ = true;
      return true;
    }
    if (i_ >= lines_) {
      return false;
    }
    ctx.Read(2, base_ + i_ * span_, 8);
    ctx.Compute(2, 50);
    ++i_;
    return true;
  }

 private:
  Addr base_;
  uint64_t span_;
  uint64_t lines_;
  bool delayed_ = false;
  uint64_t i_ = 0;
};

TEST(HierarchyTest, ExtensionOverflowScenarioFiresReclaimUnderEngine) {
  const HierarchyConfig hconfig = TinyLatticeConfig();
  const uint64_t set_span = hconfig.l3.NumSets() * hconfig.l3.line_size;
  const Addr written = 0x10000;  // two written lines: 0x10000, 0x10000+span
  const Addr streamed = written + 2 * set_span;  // same L3 set, fresh lines

  struct RunResult {
    HierarchyTotals totals;
    bool copy_a_private;
    bool copy_a_tagged;
    bool copy_b_tagged;
  };
  auto run = [&](int threads) {
    MachineConfig config;
    config.hierarchy = hconfig;
    Machine machine(config);
    ExtOverflowWriter writer(written, set_span);
    ExtOverflowStreamer streamer(streamed, set_span, hconfig.l3.ways + 2);
    machine.SetDriver(0, &writer);
    machine.SetDriver(1, &streamer);
    EngineConfig engine_config;
    engine_config.threads = threads;
    Engine engine(&machine, engine_config);
    machine.SetExecutor(&engine);
    machine.RunFor(200'000);
    CacheHierarchy& h = machine.hierarchy();
    RunResult r;
    r.totals = h.Totals();
    r.copy_a_private = h.InPrivateCache(0, written);
    r.copy_a_tagged = h.L3HasTag(written);
    r.copy_b_tagged = h.L3HasTag(written + set_span);
    // Inclusion invariant for every line the scenario touched: a privately
    // held line always has a lattice tag.
    for (uint64_t i = 0; i < hconfig.l3.ways + 2; ++i) {
      const Addr addr = streamed + i * set_span;
      for (int c = 0; c < hconfig.num_cores; ++c) {
        EXPECT_TRUE(!h.InPrivateCache(c, addr) || h.L3HasTag(addr));
      }
    }
    for (const Addr addr : {written, written + set_span}) {
      for (int c = 0; c < hconfig.num_cores; ++c) {
        EXPECT_TRUE(!h.InPrivateCache(c, addr) || h.L3HasTag(addr));
      }
    }
    return r;
  };

  const RunResult base = run(1);
  // The reclaim path really fired, and took private copies with it.
  EXPECT_GT(base.totals.tag_reclaims, 0u);
  EXPECT_GT(base.totals.back_invalidations, 0u);
  EXPECT_FALSE(base.copy_a_private);  // oldest written line lost its copies
  // Counter consistency: served levels partition accesses, and the L1 split
  // agrees with them.
  uint64_t served_sum = 0;
  for (int i = 0; i < 5; ++i) {
    served_sum += base.totals.served[i];
  }
  EXPECT_EQ(base.totals.accesses, served_sum);
  EXPECT_EQ(base.totals.accesses, base.totals.l1_hits + base.totals.l1_misses);
  EXPECT_LE(base.totals.invalidation_misses, base.totals.l1_misses);

  // The reclaim-firing run stays deterministic across thread counts
  // (back-invalidations land in shard-striped counters).
  const RunResult other = run(4);
  EXPECT_EQ(base.totals.accesses, other.totals.accesses);
  EXPECT_EQ(base.totals.tag_reclaims, other.totals.tag_reclaims);
  EXPECT_EQ(base.totals.back_invalidations, other.totals.back_invalidations);
  EXPECT_EQ(base.totals.invalidation_misses, other.totals.invalidation_misses);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(base.totals.served[i], other.totals.served[i]) << "level " << i;
  }
  EXPECT_EQ(base.copy_a_private, other.copy_a_private);
  EXPECT_EQ(base.copy_a_tagged, other.copy_a_tagged);
  EXPECT_EQ(base.copy_b_tagged, other.copy_b_tagged);
}

// Extension-bank exhaustion reached the fault-plan way: kExtBankPressure
// shrinks l3_dir_ext_ways at config time, the overflow scenario storms the
// reclaim path, and the invariant auditor must find the lattice consistent
// afterwards — for every thread count.
TEST(HierarchyTest, FaultPlanExtPressureExhaustionStaysAuditClean) {
  HierarchyConfig hconfig = SmallConfig(4);
  FaultPlanConfig fault_config;
  fault_config.enabled_mask = 1u << static_cast<int>(FaultSeam::kExtBankPressure);
  FaultPlan plan(fault_config);
  plan.ApplyToHierarchy(&hconfig);
  EXPECT_EQ(hconfig.l3_dir_ext_ways, 1u);
  EXPECT_EQ(plan.injected(FaultSeam::kExtBankPressure), 1u);

  const uint64_t set_span = hconfig.l3.NumSets() * hconfig.l3.line_size;
  uint64_t base_reclaims = 0;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MachineConfig config;
    config.hierarchy = hconfig;
    Machine machine(config);
    ExtOverflowWriter writer(0x10000, set_span);
    ExtOverflowStreamer streamer(0x10000 + 2 * set_span, set_span, hconfig.l3.ways + 2);
    machine.SetDriver(0, &writer);
    machine.SetDriver(1, &streamer);
    EngineConfig engine_config;
    engine_config.threads = threads;
    Engine engine(&machine, engine_config);
    machine.SetExecutor(&engine);
    machine.RunFor(200'000);
    machine.SetExecutor(nullptr);

    const HierarchyTotals totals = machine.hierarchy().Totals();
    EXPECT_GT(totals.tag_reclaims, 0u);
    if (base_reclaims == 0) {
      base_reclaims = totals.tag_reclaims;
    } else {
      EXPECT_EQ(totals.tag_reclaims, base_reclaims);
    }
    InvariantAuditor auditor(&machine.hierarchy());
    const AuditResult audit = auditor.Audit();
    EXPECT_TRUE(audit.ok()) << (audit.violations.empty() ? "" : audit.violations[0]);
    EXPECT_GT(audit.tags_checked, 0u);
  }
}

// Parameterized coherence property: whichever core wrote last, a read from
// any *other* core must not be served from that other core's own L1, and
// after the read both copies are coherent (subsequent reads hit locally).
class CoherencePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CoherencePropertyTest, ReadAfterRemoteWrite) {
  const int writer = GetParam();
  CacheHierarchy h(SmallConfig(4));
  const Addr addr = 0xA000;
  h.Access(writer, addr, 8, true, 1);
  for (int reader = 0; reader < 4; ++reader) {
    if (reader == writer) {
      continue;
    }
    const AccessResult first = h.Access(reader, addr, 8, false, 2);
    EXPECT_NE(first.level, ServedBy::kL1) << "reader " << reader;
    const AccessResult second = h.Access(reader, addr, 8, false, 3);
    EXPECT_EQ(second.level, ServedBy::kL1) << "reader " << reader;
  }
}

INSTANTIATE_TEST_SUITE_P(Writers, CoherencePropertyTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace dprof
