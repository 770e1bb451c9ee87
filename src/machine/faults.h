// Deterministic, seeded fault injection for the dprof engine.
//
// A FaultPlan enables a set of named *seams* — places in the engine,
// allocator, hierarchy rig, mailbox, and sampler where a controlled
// perturbation can be injected — and answers, per seam, "does the fault fire
// here?" as a pure function of the plan seed and simulation-intrinsic
// coordinates (core id, committed clock, epoch ordinal, slab ordinal). Host
// threading never feeds a decision, so a faulted run is bit-identical for
// every --threads value, which is what lets CI diff crashtest output across
// thread counts.
//
// Every seam is recoverable by construction: the injection site converts the
// fault into a structured recovery (retry, drop-with-lower-bound, bounded
// skew, capacity cap) or a structured diagnostic (lattice corruption caught
// by the auditor, a stall caught by the watchdog) — never a crash. The plan
// counts injections and recoveries per seam; the counts surface in the
// report's "faults" JSON block.

#ifndef DPROF_SRC_MACHINE_FAULTS_H_
#define DPROF_SRC_MACHINE_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/sim/hierarchy.h"
#include "src/util/types.h"

namespace dprof {

enum class FaultSeam : uint8_t {
  kSlabGrow = 0,       // allocator slab-grow failure (simulated OOM)
  kLaneDrop,           // an ApplyLane record is lost before apply
  kLaneDup,            // an ApplyLane record is applied twice
  kClockSkew,          // bounded per-core clock skew at epoch start
  kExtBankPressure,    // shrunk l3_dir_ext_ways: ReclaimExtWay storms
  kMailboxOverflow,    // bounded TxQueue depth: overflow packets dropped
  kWindowJitter,       // sampled-window schedule pushed off its contract
  kLatticeCorrupt,     // deliberate tag-lattice corruption (audit must catch)
  kEpochStall,         // epochs stop advancing (watchdog must catch)
  kCount,
};

constexpr int kNumFaultSeams = static_cast<int>(FaultSeam::kCount);

const char* FaultSeamName(FaultSeam seam);
// Parses a seam name ("slab_grow", "lane_drop", ...); false if unknown.
bool ParseFaultSeam(const std::string& name, FaultSeam* seam);

// What happened to one gathered lane record.
enum class LaneFault : uint8_t { kNone = 0, kDrop, kDup };

struct FaultPlanConfig {
  uint64_t seed = 0xfa017;
  uint32_t enabled_mask = 0;  // bit per FaultSeam

  // Per-seam magnitudes; deterministic defaults sized so a short run sees
  // every enabled seam fire many times.
  uint32_t slab_grow_period = 4;       // ~1/4 of slab grows fail (then retry)
  uint32_t lane_period = 512;          // ~1/512 of lane records faulted
  uint32_t skew_max_cycles = 64;       // per-core skew in [0, max) per epoch
  uint32_t ext_ways_override = 1;      // l3_dir_ext_ways under pressure
  uint32_t mailbox_cap = 8;           // max queued packets per mailbox
  uint64_t stall_after_epochs = 64;    // epochs stop advancing from here on
  uint64_t corrupt_from_audit = 1;     // corrupt before this audit ordinal on
};

// Builds an enabled-mask from a comma-separated seam list ("slab_grow,
// lane_drop", or "all"). Returns false and sets *error on an unknown name.
bool ParseFaultSeamList(const std::string& list, uint32_t* mask, std::string* error);

class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanConfig& config) : config_(config) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  const FaultPlanConfig& config() const { return config_; }
  bool enabled(FaultSeam seam) const {
    return (config_.enabled_mask >> static_cast<int>(seam)) & 1u;
  }
  bool any_enabled() const { return config_.enabled_mask != 0; }

  // --- Seam decisions. Each is a pure function of (seed, args); the
  // injection counters are the only mutable state and use relaxed atomics
  // (totals are deterministic; increment order is not observable).

  // Does the core's slab_ordinal-th arena grow fail? The caller recovers by
  // charging a reclaim stall and retrying (the retry always succeeds).
  bool SlabGrowFails(int core, uint64_t slab_ordinal);

  // Fate of the lane record (core, t, addr). Identical for any apply list
  // count because every count sees the same coordinates.
  LaneFault LaneFaultFor(int core, uint64_t t, Addr addr);

  // Deterministic per-core clock skew injected at the start of the epoch
  // with ordinal `epoch`, in cycles ([0, skew_max_cycles)).
  uint32_t ClockSkew(int core, uint64_t epoch);

  // Applies configuration-level seams to a hierarchy config at rig build
  // (extension-bank pressure shrinks l3_dir_ext_ways).
  void ApplyToHierarchy(HierarchyConfig* config);

  // Mailbox depth cap; ~0u when the seam is off. The queue drops (and
  // counts) packets beyond the cap.
  uint32_t MailboxCap() const {
    return enabled(FaultSeam::kMailboxOverflow) ? config_.mailbox_cap : ~0u;
  }
  void NoteMailboxDrop();

  // Does sampled-window period k get its schedule perturbed off-contract?
  bool WindowJitterFires(uint64_t period);

  // Corruption kind to inject before audit ordinal `audit`, or -1. Kinds
  // index CacheHierarchy::InjectLatticeFault.
  int CorruptionAtAudit(uint64_t audit);

  // Does the epoch with ordinal `epoch` stall (no clock progress)?
  bool StallsEpoch(uint64_t epoch);

  // Recovery bookkeeping for seams whose recovery happens at the caller.
  void NoteRecovered(FaultSeam seam) {
    recovered_[static_cast<int>(seam)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t injected(FaultSeam seam) const {
    return injected_[static_cast<int>(seam)].load(std::memory_order_relaxed);
  }
  uint64_t recovered(FaultSeam seam) const {
    return recovered_[static_cast<int>(seam)].load(std::memory_order_relaxed);
  }

 private:
  void NoteInjected(FaultSeam seam) {
    injected_[static_cast<int>(seam)].fetch_add(1, std::memory_order_relaxed);
  }

  FaultPlanConfig config_;
  std::atomic<uint64_t> injected_[kNumFaultSeams] = {};
  std::atomic<uint64_t> recovered_[kNumFaultSeams] = {};
};

}  // namespace dprof

#endif  // DPROF_SRC_MACHINE_FAULTS_H_
