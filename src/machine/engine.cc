#include "src/machine/engine.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/machine/faults.h"
#include "src/sim/audit.h"
#include "src/util/check.h"

namespace dprof {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

constexpr int Log2Floor(int v) { return v <= 1 ? 0 : 1 + Log2Floor(v >> 1); }

// Merge keys pack (timestamp << kCoreBits) | core, so an unconditional min
// reduction picks the smallest timestamp with ties to the lowest core id —
// the same rule the legacy loop's MinClockCore uses; per-core queues are
// FIFO, so same-core ops keep program order. The reduction over a fixed
// kMaxCores-slot array compiles to branchless min chains, which beats both
// a binary heap and a branchy argmin scan at this fan-in. Clocks stay far
// below 2^59, so the shift never overflows.
constexpr int kCoreBits = Log2Floor(Engine::kMaxCores);
constexpr uint64_t kCoreMask = Engine::kMaxCores - 1;
static_assert(Engine::kMaxCores == 1 << kCoreBits,
              "core extraction below assumes kMaxCores is a power of two");

constexpr uint64_t kDoneKey = ~0ull;

uint64_t PackKey(uint64_t timestamp, int core) {
  return (timestamp << kCoreBits) | static_cast<uint64_t>(core);
}

// Gather window of the apply passes: merge drains fill up to this many
// ApplyLane records before handing the window to the hierarchy's
// prefetch-pipelined ApplyBatch. Large enough to amortize the pipeline
// lead-in (kPrefetchDepth) many times over, small enough to live on the
// stack next to its scatter indices.
constexpr uint32_t kApplyWindow = 64;

// Scatter sentinel of an injected duplicate apply: the replayed record's
// result is discarded, so the sentinel never collides with a lane index.
constexpr uint32_t kDupScatter = ~0u;

// Balanced-tree reduction: log-depth dependency chain, so the four-wide min
// stages overlap instead of serializing like a linear fold.
template <int kWidth>
__attribute__((always_inline)) inline uint64_t MinKeyTree(const uint64_t* keys) {
  uint64_t m[kWidth / 2];
  for (int i = 0; i < kWidth / 2; ++i) {
    m[i] = std::min(keys[2 * i], keys[2 * i + 1]);
  }
  for (int width = kWidth / 2; width > 1; width /= 2) {
    for (int i = 0; i < width / 2; ++i) {
      m[i] = std::min(m[2 * i], m[2 * i + 1]);
    }
  }
  return m[0];
}

__attribute__((always_inline)) inline uint64_t MinKey(const uint64_t* keys, int cores) {
  if (cores <= 8) {
    return MinKeyTree<8>(keys);
  }
  if (cores <= 16) {
    return MinKeyTree<16>(keys);
  }
  if (cores <= 32) {
    return MinKeyTree<32>(keys);
  }
  return MinKeyTree<64>(keys);
}

// Assembles the observer/hook-facing event for the access op at one lane
// record; every emission site must agree on this unpacking.
inline AccessEvent MakeAccessEvent(int core, const CoreRecorder::Lane& lane,
                                   FunctionId ip, uint32_t latency, uint64_t now) {
  AccessEvent event;
  event.core = core;
  event.ip = ip;
  event.addr = lane.addr;
  event.size = lane.size_w & ~CoreRecorder::kWriteBit;
  event.is_write = (lane.size_w & CoreRecorder::kWriteBit) != 0;
  event.level = CoreRecorder::ResultLevel(lane.result);
  event.latency = latency;
  event.invalidation = CoreRecorder::ResultInvalidation(lane.result);
  event.now = now;
  return event;
}

}  // namespace

Engine::Engine(Machine* machine, const EngineConfig& config)
    : machine_(machine), config_(config) {
  DPROF_CHECK(config_.epoch_cycles > 0);
  DPROF_CHECK(config_.epoch_cycles_focus > 0);
  DPROF_CHECK(config_.apply_quantum_bits >= 0 && config_.apply_quantum_bits < 32);
  DPROF_CHECK(machine_->num_cores() <= kMaxCores);
  threads_ = config_.threads > 0 ? config_.threads
                                 : static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ < 1) {
    threads_ = 1;
  }
  num_shards_ = machine_->hierarchy().num_shards();
  if (config_.sampling.enabled) {
    sampler_ = std::make_unique<SamplingController>(config_.sampling);
  }
  const int cores = machine_->num_cores();
  recorders_.resize(cores);
  blocked_on_.assign(cores, nullptr);
  block_start_.assign(cores, 0);
  probe_latency_.assign(cores, 0);
  probe_active_.assign(cores, 0);

  const int max_width = std::max(cores, static_cast<int>(num_shards_));
  const int spawn = std::min(threads_ - 1, max_width - 1);
  workers_.reserve(spawn);
  for (int i = 0; i < spawn; ++i) {
    workers_.emplace_back(&Engine::WorkerLoop, this);
  }
  // With workers, the apply phase claims whole hierarchy shards, one access
  // list each; without them, one list per core holds every access and a
  // single merge applies the same per-shard suborders — identical hierarchy
  // results — without a merge pass per near-empty shard list.
  num_lists_ = workers_.empty() ? 1 : num_shards_;
  // Each socket's L3 slice is a contiguous shard range (the home bits are
  // the shard index's high bits), so a task draining one socket walks one
  // slice's arrays end to end. At least one task per socket keeps every
  // socket's range a task's first choice; more tasks than threads or shards
  // would only add claim traffic.
  num_sockets_ = machine_->hierarchy().num_sockets();
  shards_per_socket_ = num_shards_ / static_cast<uint32_t>(num_sockets_);
  apply_tasks_ = std::max(num_sockets_, std::min(threads_, static_cast<int>(num_shards_)));
  socket_cursor_ = std::vector<std::atomic<uint32_t>>(num_sockets_);
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

// Claims the next index of dispatch `generation`, or -1 when that dispatch
// has no indices left (or has been superseded — a straggler from a finished
// dispatch must never claim into the next one). Claims are whole-core /
// whole-shard units, so the mutex is uncontended in practice.
int Engine::ClaimIndex(uint64_t generation) {
  std::lock_guard<std::mutex> lk(mu_);
  if (generation_ != generation || next_index_ >= task_count_) {
    return -1;
  }
  return next_index_++;
}

void Engine::FinishIndex(uint64_t generation) {
  std::lock_guard<std::mutex> lk(mu_);
  if (generation_ == generation && ++finished_ == task_count_) {
    done_cv_.notify_all();
  }
}

void Engine::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    const std::function<void(int)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      task = task_;
    }
    for (int i = ClaimIndex(seen); i >= 0; i = ClaimIndex(seen)) {
      (*task)(i);
      FinishIndex(seen);
    }
  }
}

void Engine::ParallelFor(int count, const std::function<void(int)>& fn) {
  if (workers_.empty() || count <= 1) {
    for (int i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    task_ = &fn;
    task_count_ = count;
    next_index_ = 0;
    finished_ = 0;
    generation = ++generation_;
  }
  work_cv_.notify_all();
  for (int i = ClaimIndex(generation); i >= 0; i = ClaimIndex(generation)) {
    fn(i);
    FinishIndex(generation);
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return finished_ == count; });
  task_ = nullptr;
}

void Engine::RunFor(uint64_t cycles) {
  Machine& m = *machine_;
  if (m.allocator_ != nullptr) {
    m.allocator_->PrepareParallel(m.num_cores());
  }
  if (sampler_ != nullptr) {
    sampler_->SetFaultPlan(m.fault_plan());
  }
  const uint64_t deadline = m.MinClock() + cycles;
  const auto wall_start = Clock::now();
  uint64_t last_min = ~0ull;
  uint64_t stalled_epochs = 0;
  while (status_.ok()) {
    const uint64_t min_clock = m.MinClock();
    if (min_clock >= deadline) {
      break;
    }
    // Watchdog: healthy epochs always advance the committed min clock, so
    // repeated zero-progress epochs mean the run is wedged. The wall-clock
    // bound catches everything else (a livelocked phase still returns here
    // between epochs). Both convert a would-be hang into a diagnostic.
    if (min_clock == last_min) {
      if (config_.watchdog_stall_epochs > 0 &&
          ++stalled_epochs >= config_.watchdog_stall_epochs) {
        status_ = Status(StatusCode::kDeadlineExceeded, "watchdog",
                         "committed clock stuck at " + std::to_string(min_clock) +
                             " for " + std::to_string(stalled_epochs) +
                             " consecutive epochs");
        break;
      }
    } else {
      last_min = min_clock;
      stalled_epochs = 0;
    }
    if (config_.watchdog_wall_seconds > 0 &&
        Seconds(wall_start, Clock::now()) > config_.watchdog_wall_seconds) {
      status_ = Status(StatusCode::kDeadlineExceeded, "watchdog",
                       "epoch loop exceeded " +
                           std::to_string(config_.watchdog_wall_seconds) +
                           "s of wall time at committed clock " +
                           std::to_string(min_clock));
      break;
    }
    // Adaptive epoch length: tight while a mailbox-fed type is under study
    // (focus is pure session state, so the choice — and therefore the
    // committed stream — is identical for every host thread count).
    const uint64_t epoch =
        m.epoch_focus() ? config_.epoch_cycles_focus : config_.epoch_cycles;
    RunEpoch(min_clock, deadline, epoch);
    if (config_.audit_epochs > 0 && epochs_run_ % config_.audit_epochs == 0) {
      RunAudit();
    }
    if (m.allocator_ != nullptr) {
      status_.Update(m.allocator_->status());
    }
  }
}

void Engine::RunAudit() {
  Machine& m = *machine_;
  FaultPlan* const plan = m.fault_plan();
  if (plan != nullptr) {
    // Detection-coverage harness: plant one planned corruption right before
    // the walk. The planned kind may have no live target in a sparse lattice
    // (nothing exclusive yet, empty extension bank), so rotate through the
    // kinds until one lands.
    const int kind = plan->CorruptionAtAudit(audits_run_);
    if (kind >= 0) {
      for (int k = 0; k < CacheHierarchy::kNumLatticeFaultKinds; ++k) {
        if (m.hierarchy_.InjectLatticeFault(
                (kind + k) % CacheHierarchy::kNumLatticeFaultKinds)) {
          break;
        }
      }
    }
  }
  // Committed-clock monotonicity: the one engine-owned invariant, checked
  // against the previous audit's snapshot at the same cadence.
  const int cores = m.num_cores();
  if (audit_prev_clocks_.empty()) {
    audit_prev_clocks_.assign(m.clocks_.begin(), m.clocks_.end());
  } else {
    for (int c = 0; c < cores; ++c) {
      if (m.clocks_[c] < audit_prev_clocks_[c]) {
        status_.Update(Status(
            StatusCode::kDataLoss, "audit",
            "committed clock of core " + std::to_string(c) + " moved backwards (" +
                std::to_string(audit_prev_clocks_[c]) + " -> " +
                std::to_string(m.clocks_[c]) + ")"));
      }
      audit_prev_clocks_[c] = m.clocks_[c];
    }
  }
  const InvariantAuditor auditor(&m.hierarchy_);
  const AuditResult result = auditor.Audit();
  ++audits_run_;
  if (!result.ok()) {
    std::string message = "lattice audit #" + std::to_string(audits_run_ - 1) +
                          " found " + std::to_string(result.total_violations) +
                          " violation(s)";
    if (!result.violations.empty()) {
      message += ": " + result.violations.front();
    }
    status_.Update(Status(StatusCode::kDataLoss, "audit", message));
  }
}

void Engine::RunEpoch(uint64_t min_clock, uint64_t deadline, uint64_t epoch_cycles) {
  Machine& m = *machine_;
  const int cores = m.num_cores();
  // The sampling schedule is a function of the committed min-clock, so the
  // choice — like everything downstream of it — is identical for every
  // thread count. Observers force detailed epochs: fast-forward has no
  // events to deliver, so a sampled run with observers attached would
  // silently starve them.
  const bool want_detailed = sampler_ == nullptr || sampler_->BeginEpoch(min_clock);
  ff_epoch_ = !want_detailed && m.observers_.empty();
  // Fast-forward stretches coarsen the epoch: they skip the apply phase and
  // deliver no events, so the usual epoch granularity only buys overhead.
  // The stretch ends at the next detailed window (FfRunway) and at the
  // config cap; both are functions of the committed clock, so the epoch
  // schedule stays identical for every thread count.
  uint64_t epoch_end = std::min(deadline, min_clock + epoch_cycles);
  if (ff_epoch_) {
    const uint64_t stretch =
        std::max(epoch_cycles, std::min(sampler_->FfRunway(min_clock),
                                        sampler_->config().ff_epoch_cycles));
    epoch_end = std::min(deadline, min_clock + stretch);
  }
  FaultPlan* const faults = m.fault_plan();
  if (faults != nullptr && faults->StallsEpoch(epochs_run_)) {
    // Injected scheduler wedge: the epoch ends where it starts, so no core
    // simulates and the committed min clock cannot advance. The watchdog in
    // RunFor is what turns the resulting no-progress streak into a status.
    epoch_end = min_clock;
  }
  // Fast-forward epochs snapshot the union of armed filter windows so
  // watchpoint-covered addresses keep recording dispatchable ops. Windows
  // armed mid-epoch (by an alloc-event handler) see their accesses from the
  // next epoch on — a documented approximation of sampled mode.
  Addr ff_lo = 0;
  Addr ff_hi = 0;
  if (ff_epoch_) {
    for (PmuHook* hook : m.pmu_hooks_) {
      Addr lo = 0;
      Addr hi = 0;
      if (hook->AccessFilter(&lo, &hi)) {
        if (ff_lo == ff_hi) {
          ff_lo = lo;
          ff_hi = hi;
        } else {
          ff_lo = std::min(ff_lo, lo);
          ff_hi = std::max(ff_hi, hi);
        }
      }
    }
  }
  for (int c = 0; c < cores; ++c) {
    CoreRecorder& rec = recorders_[c];
    // Calibrate the core's lower-bound cost model from the epoch just
    // committed: measured access-attributable clock advance (latency + PMU
    // interrupts + lock waits) over the raw estimate. Smoothed 3:1 to damp
    // oscillation; pure function of committed state, so identical for any
    // thread count. Fast-forwarded epochs leave raw_access_cost at zero, so
    // their estimated advances never feed back into the scale.
    const uint64_t advance = m.clocks_[c] - rec.epoch_start_clock;
    if (rec.raw_access_cost > 0 && advance > rec.exact_cost) {
      uint64_t scale16 = ((advance - rec.exact_cost) * 16) / rec.raw_access_cost;
      scale16 = std::min<uint64_t>(std::max<uint64_t>(scale16, 16), 4096);
      rec.cost_scale16 =
          static_cast<uint32_t>((3ull * rec.cost_scale16 + scale16) / 4);
    }
    rec.Reset(m.clocks_[c], num_lists_);
    if (ff_epoch_) {
      rec.ff = true;
      rec.ff_lo = ff_lo;
      rec.ff_hi = ff_hi;
    }
    // Injected per-core clock skew: an idle burst recorded at epoch start,
    // keyed on (core, epoch ordinal) only, so skewed runs commit the same
    // stream at every thread count. Recovery is inherent — the commit pass
    // reconstructs exact clocks from the recorded ops like any idle time.
    if (faults != nullptr && epoch_end > min_clock) {
      const uint32_t skew = faults->ClockSkew(c, epochs_run_);
      if (skew != 0) {
        rec.PushCycles(SimOp::kIdle, rec.lb, skew, kInvalidFunction);
        rec.ChargeExact(skew);
      }
    }
  }
  const auto t0 = Clock::now();
  ParallelFor(cores, [&](int core) { SimulateCore(core, epoch_end); });
  const auto t1 = Clock::now();
  // Fast-forward epochs never touch the hierarchy: no apply pass at all.
  if (!ff_epoch_) {
    if (num_lists_ == 1) {
      ApplyShard(0);
    } else {
      for (auto& cursor : socket_cursor_) {
        cursor.store(0, std::memory_order_relaxed);
      }
      ParallelFor(apply_tasks_, [&](int task) { ApplyTask(task); });
    }
  }
  const auto t2 = Clock::now();
  CommitEpoch();
  if (m.allocator_ != nullptr) {
    m.allocator_->FlushEpoch();
  }
  for (EpochHook* hook : m.epoch_hooks_) {
    hook->OnEpochCommit(m.MaxClock());
  }
  const auto t3 = Clock::now();
  phase_stats_.simulate_seconds += Seconds(t0, t1);
  phase_stats_.apply_seconds += Seconds(t1, t2);
  phase_stats_.commit_seconds += Seconds(t2, t3);
  ++phase_stats_.epochs;
  if (ff_epoch_) {
    ++phase_stats_.ff_epochs;
  }
  ++epochs_run_;
  if (sampler_ != nullptr) {
    uint64_t accesses = 0;
    for (int c = 0; c < cores; ++c) {
      accesses += recorders_[c].accesses;
    }
    sampler_->EndEpoch(!ff_epoch_, m.MinClock() - min_clock, accesses);
  }
}

void Engine::SimulateCore(int core, uint64_t epoch_end) {
  Machine& m = *machine_;
  CoreRecorder& rec = recorders_[core];
  CoreDriver* driver = m.drivers_[core];
  CoreContext ctx(&m, core, &rec);
  while (rec.lb < epoch_end) {
    const bool did_work = driver != nullptr && driver->Step(ctx);
    if (!did_work) {
      if (!rec.CoalesceCycles(SimOp::kIdle, kInvalidFunction, m.config_.idle_cycles)) {
        rec.PushCycles(SimOp::kIdle, rec.lb, m.config_.idle_cycles, kInvalidFunction);
      }
      rec.ChargeExact(m.config_.idle_cycles);
    }
  }
}

// The apply pass merges in (t >> apply_quantum_bits, core, program order):
// see EngineConfig::apply_quantum_bits. The quantized key also makes
// same-core runs long (a core's whole quantum drains before the merge
// switches), so the min-tree recomputes once per run, not per op — and each
// drain is a single-core span the prefetch-pipelined ApplyBatch can walk.
// Gathering a drain into a window before applying it changes nothing about
// the access order; it only lets the hierarchy see the addresses of ops
// i+1..i+k while it resolves op i.
void Engine::ApplyShard(uint32_t list) {
  Machine& m = *machine_;
  const int cores = m.num_cores();
  const int qbits = config_.apply_quantum_bits;
  // Lane faults (dropped / duplicated records) are keyed on the recorded
  // (core, timestamp, address) alone, and a drop recovers to the optimistic
  // lower-bound result, so faulted applies stay bit-identical for any list
  // count. The window reserves one slot so a duplicate always lands
  // adjacent to its original (batch boundaries don't change results).
  FaultPlan* const faults = m.fault_plan();
  const bool lane_faults =
      faults != nullptr && (faults->enabled(FaultSeam::kLaneDrop) ||
                            faults->enabled(FaultSeam::kLaneDup));
  const uint32_t drop_result =
      PackAccessResult(m.config_.hierarchy.latency.l1, ServedBy::kL1, false);
  const uint32_t window_cap = lane_faults ? kApplyWindow - 1 : kApplyWindow;
  uint64_t keys[kMaxCores];
  size_t cursor[kMaxCores] = {0};
  ApplyLane window[kApplyWindow];
  uint32_t scatter[kApplyWindow];
  int remaining = 0;
  for (int c = 0; c < kMaxCores; ++c) {
    keys[c] = kDoneKey;
  }
  for (int c = 0; c < cores; ++c) {
    const CoreRecorder& rec = recorders_[c];
    const auto& ops = rec.shard_ops[list];
    if (!ops.empty()) {
      keys[c] = PackKey(rec.lane[ops[0]].t >> qbits, c);
      ++remaining;
    }
  }
  while (remaining > 0) {
    const int core = static_cast<int>(MinKey(keys, cores) & kCoreMask);
    CoreRecorder& rec = recorders_[core];
    const auto& ops = rec.shard_ops[list];
    const uint64_t base = rec.epoch_start_clock;
    keys[core] = kDoneKey;
    const uint64_t limit = MinKey(keys, cores);
    uint64_t key;
    do {
      // Gather the drain (this core's lane records, in list order)
      // into the window, then batch-apply and scatter the packed results
      // back.
      uint32_t nw = 0;
      do {
        const uint32_t e = ops[cursor[core]];
        const CoreRecorder::Lane& lane = rec.lane[e];
        DPROF_CHECK(lane.t - base <= 0xffff'ffffull);  // silent wrap would corrupt merge order
        const LaneFault fault = lane_faults
                                    ? faults->LaneFaultFor(core, lane.t, lane.addr)
                                    : LaneFault::kNone;
        if (fault == LaneFault::kDrop) {
          // The record never reaches the hierarchy; recover by committing
          // the optimistic lower-bound result in its place.
          rec.lane[e].result = drop_result;
        } else {
          window[nw] =
              ApplyLane{lane.addr, static_cast<uint32_t>(lane.t - base), lane.size_w};
          scatter[nw] = e;
          ++nw;
          if (fault == LaneFault::kDup) {
            window[nw] = window[nw - 1];
            scatter[nw] = kDupScatter;
            ++nw;
          }
        }
        key = ++cursor[core] < ops.size()
                  ? PackKey(rec.lane[ops[cursor[core]]].t >> qbits, core)
                  : kDoneKey;
      } while (key < limit && nw < window_cap);
      m.hierarchy_.ApplyBatch(core, base, window, nw);
      for (uint32_t j = 0; j < nw; ++j) {
        if (scatter[j] != kDupScatter) {
          rec.lane[scatter[j]].result = window[j].size_w;
        }
      }
    } while (key < limit);
    keys[core] = key;
    if (key == kDoneKey) {
      --remaining;
    }
  }
}

// Shard-parallel apply task. The shard key is the home socket: shards of
// one socket form a contiguous range [socket * shards_per_socket_, ...), and
// each socket has one claim cursor. Task `task` drains socket
// task % num_sockets_ first — so at one task per socket a worker owns whole
// L3 slices and its tag walks stay inside one slice's tag/meta arrays — then
// steals remaining shards from the other sockets round-robin. On a
// one-socket machine every task shares the single cursor. Every shard is
// applied exactly once by exactly one task, and shard state is disjoint, so
// the committed results cannot depend on who applied what; the dispatch
// only moves host wall-clock.
void Engine::ApplyTask(int task) {
  for (int v = 0; v < num_sockets_; ++v) {
    const int socket = (task + v) % num_sockets_;
    std::atomic<uint32_t>& cursor = socket_cursor_[socket];
    const uint32_t base = static_cast<uint32_t>(socket) * shards_per_socket_;
    for (uint32_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < shards_per_socket_;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      ApplyShard(base + i);
    }
  }
}

void Engine::ResyncSink() {
  Machine& m = *machine_;
  sink_.counting.clear();
  sink_.filtered.clear();
  sink_.want_events = !m.observers_.empty();
  for (PmuHook* hook : m.pmu_hooks_) {
    Addr lo = 0;
    Addr hi = 0;
    if (hook->AccessFilter(&lo, &hi)) {
      sink_.filtered.push_back(FusedSink::Filtered{hook, lo, hi});
    } else {
      sink_.counting.push_back(hook);
    }
  }
}

void Engine::RefreshQuiet(int core) {
  uint64_t quiet = PmuHook::kQuietUnbounded;
  for (PmuHook* hook : sink_.counting) {
    quiet = std::min(quiet, hook->QuietOps(core));
  }
  gate_quiet_[core] = quiet;
  gate_unbounded_[core] = quiet == PmuHook::kQuietUnbounded ? 1 : 0;
}

void Engine::FlushQuiet(int core) {
  if (gate_skipped_[core] == 0) {
    return;
  }
  for (PmuHook* hook : sink_.counting) {
    hook->OnQuietAccessBatch(core, gate_skipped_[core]);
  }
  gate_skipped_[core] = 0;
}

// Commit order is the legacy scheduling rule: always the core with the
// smallest *committed* clock (ties to the lowest id). Ordering by recorded
// lb timestamps instead would let a core whose true clock raced ahead (PMU
// interrupts, miss latencies) release locks far in the future and drag
// every later acquirer's clock up with it — phantom waits that collapse
// throughput.
//
// The schedule is segmented: the only ops whose commit another core can
// observe are sync ops (locks, allocator events) and PMU dispatches (IBS
// samples, watchpoint hits) — everything else advances purely core-local
// state. Those ops arbitrate one at a time under the min-clock rule, and
// since each commits exactly when its core's pre-op clock is the global
// minimum, their cross-core order — lock arbitration, allocation-event
// order, sample and hit delivery into shared handlers — is identical to
// the fully sequential per-op merge. The segments between them commit as
// whole per-core batches: clock trajectories are unaffected, and only the
// interleaving of *observer* events across cores differs (deterministically)
// from the per-op merge.
void Engine::CommitEpoch() {
  Machine& m = *machine_;
  const int cores = m.num_cores();
  ResyncSink();
  woke_parked_ = false;
  int remaining = 0;
  for (int c = 0; c < kMaxCores; ++c) {
    commit_keys_[c] = kDoneKey;
  }
  for (int c = 0; c < cores; ++c) {
    commit_cursor_[c] = 0;
    commit_sync_i_[c] = 0;
    gate_skipped_[c] = 0;
    RefreshQuiet(c);
    if (!recorders_[c].empty()) {
      commit_keys_[c] = PackKey(m.clocks_[c], c);
      ++remaining;
    }
  }
  while (remaining > 0) {
    const uint64_t min_key = MinKey(commit_keys_, cores);
    // All live queues parked on locks with no pending release would mean a
    // critical section spanning a driver step, which drivers must not do.
    DPROF_CHECK(min_key != kDoneKey);
    const int core = static_cast<int>(min_key & kCoreMask);
    CoreRecorder& rec = recorders_[core];
    const uint32_t count = static_cast<uint32_t>(rec.size());
    uint32_t cursor = commit_cursor_[core];
    // Run-until-limit: keys only grow as cores commit (clocks are
    // nondecreasing), so this core keeps the floor — and commits turn after
    // turn without touching the merge tree — until its key reaches the
    // smallest other key. The one event that can lower another key, a lock
    // release waking parked cores, forces a full re-arbitration.
    commit_keys_[core] = kDoneKey;
    const uint64_t limit = MinKey(commit_keys_, cores);
    uint64_t key = kDoneKey;
    while (true) {
      const uint32_t next_sync = commit_sync_i_[core] < rec.sync_points.size()
                                     ? rec.sync_points[commit_sync_i_[core]]
                                     : count;
      bool woke = false;
      if (cursor == next_sync) {
        const uint8_t sync_kind = rec.meta[cursor].kind & CoreRecorder::kKindMask;
        if (!CommitSyncOp(core, cursor)) {
          key = kDoneKey;  // parked; the release re-arms the key
          break;
        }
        ++cursor;
        ++commit_sync_i_[core];
        // Allocation events drive watchpoint arming through their
        // observers, changing the filter windows; lock ops cannot rearm
        // anything. The counting hooks' quiet budgets stay valid:
        // (dis)arming only moves a hook between the filtered and
        // unbounded-quiet classes.
        if (sync_kind >= SimOp::kAllocEvent) {
          ResyncSink();
        } else {
          woke = sync_kind == SimOp::kLockRelease && woke_parked_;
          woke_parked_ = false;
        }
      } else {
        // Commits the segment up to the next sync op, stopping at (and
        // re-arbitrating before) any access a PMU hook can act on — unless
        // that access is the op just arbitrated, which dispatches now.
        cursor = ff_epoch_ ? CommitRunFf(core, cursor, next_sync)
                           : CommitRun(core, cursor, next_sync);
      }
      if (cursor >= count) {
        key = kDoneKey;
        --remaining;
        break;
      }
      key = PackKey(m.clocks_[core], core);
      if (woke || key >= limit) {
        break;
      }
    }
    commit_cursor_[core] = cursor;
    commit_keys_[core] = key;
  }
  for (int c = 0; c < cores; ++c) {
    FlushQuiet(c);
  }
}

uint32_t Engine::CommitRun(int core, uint32_t begin, uint32_t end) {
  Machine& m = *machine_;
  const CoreRecorder& rec = recorders_[core];
  // Hot state lives in locals: routing every op's clock/gate/probe update
  // through the member arrays would make each store a potential alias of
  // the lane/meta columns and force reloads. The committed clock syncs
  // with m.clocks_ around DispatchAccess (whose hook handlers may read
  // machine clocks) and at return.
  const CoreRecorder::Lane* const lanes = rec.lane;
  const CoreRecorder::Meta* const metas = rec.meta;
  uint64_t clock = m.clocks_[core];
  uint64_t probe_lat = probe_latency_[core];
  uint8_t probing = probe_active_[core];
  const uint64_t base_cost = m.config_.base_op_cost;
  const bool want_events = sink_.want_events;
  uint32_t i = begin;
  // Passthrough: no hook can act on any access in this segment (counting
  // hooks unbounded-quiet, no armed filters) and no observer wants events —
  // the loop reduces to clock reconstruction. Hooks with an unbounded
  // guarantee need no skip accounting, so the gate is bypassed entirely.
  if (gate_unbounded_[core] != 0 && sink_.filtered.empty() && !want_events) {
    for (; i < end; ++i) {
      const uint8_t k = metas[i].kind & CoreRecorder::kKindMask;
      if (k == SimOp::kAccess) {
        const uint32_t latency = CoreRecorder::ResultLatency(lanes[i].result);
        clock += base_cost + latency;
        if (probing != 0) {
          probe_lat += latency;
        }
      } else if (k == SimOp::kCompute || k == SimOp::kIdle) {
        clock += lanes[i].payload();
      } else if (k == SimOp::kProbeBegin) {
        probing = 1;
        probe_lat = 0;
      } else {
        DPROF_DCHECK(k == SimOp::kProbeEnd);
        probing = 0;
        double divisor = 1.0;
        const uint64_t bits = lanes[i].payload();
        __builtin_memcpy(&divisor, &bits, sizeof(double));
        reinterpret_cast<RunningStat*>(lanes[i].addr)
            ->Add(static_cast<double>(probe_lat) / divisor);
      }
    }
    m.clocks_[core] = clock;
    probe_latency_[core] = probe_lat;
    probe_active_[core] = probing;
    return end;
  }
  uint64_t quiet = gate_quiet_[core];
  uint64_t skipped = gate_skipped_[core];
  for (; i < end; ++i) {
    const uint8_t k = metas[i].kind & CoreRecorder::kKindMask;
    if (k == SimOp::kAccess) {
      const CoreRecorder::Lane& lane = lanes[i];
      // Gate: can any PMU hook act on this access? Counting hooks are
      // covered by the quiet budget; filtered hooks by the window check.
      bool needs_hook = quiet == 0;
      if (!needs_hook && !sink_.filtered.empty()) {
        const uint32_t size = lane.size_w & ~CoreRecorder::kWriteBit;
        for (const FusedSink::Filtered& f : sink_.filtered) {
          if (lane.addr < f.hi && f.lo < lane.addr + size) {
            needs_hook = true;
            break;
          }
        }
      }
      if (needs_hook) {
        if (i != begin) {
          break;  // an arbitration point: hand back to the scheduler
        }
        // Sync the member state the dispatch path (hooks, gate flush,
        // resync) reads and writes, then reload it.
        m.clocks_[core] = clock;
        probe_latency_[core] = probe_lat;
        probe_active_[core] = probing;
        gate_quiet_[core] = quiet;
        gate_skipped_[core] = skipped;
        DispatchAccess(core, i, m.clocks_[core]);
        clock = m.clocks_[core];
        probe_lat = probe_latency_[core];
        probing = probe_active_[core];
        quiet = gate_quiet_[core];
        skipped = gate_skipped_[core];
        continue;
      }
      --quiet;
      ++skipped;
      const uint32_t latency = CoreRecorder::ResultLatency(lane.result);
      clock += base_cost + latency;
      if (probing != 0) {
        probe_lat += latency;
      }
      if (want_events) {
        EmitAccess(MakeAccessEvent(core, lane, metas[i].ip, latency, clock));
      }
    } else if (k == SimOp::kCompute) {
      const uint64_t cycles = lanes[i].payload();
      clock += cycles;
      if (want_events) {
        EmitCompute(core, metas[i].ip, cycles, clock);
      }
    } else if (k == SimOp::kIdle) {
      clock += lanes[i].payload();
    } else if (k == SimOp::kProbeBegin) {
      probing = 1;
      probe_lat = 0;
    } else {
      DPROF_DCHECK(k == SimOp::kProbeEnd);
      probing = 0;
      double divisor = 1.0;
      const uint64_t bits = lanes[i].payload();
      __builtin_memcpy(&divisor, &bits, sizeof(double));
      reinterpret_cast<RunningStat*>(lanes[i].addr)
          ->Add(static_cast<double>(probe_lat) / divisor);
    }
  }
  m.clocks_[core] = clock;
  probe_latency_[core] = probe_lat;
  probe_active_[core] = probing;
  gate_quiet_[core] = quiet;
  gate_skipped_[core] = skipped;
  return i;
}

// Fast-forward commit: the epoch ran functional-only, so there are no apply
// results to reconstruct from — kFfRun markers carry the accumulated
// estimated charge, and the only kAccess ops are filter-window overlaps
// recorded with a prefilled estimate. Counting hooks are frozen (no quiet
// accounting, no OnAccess): IBS samples come exclusively from detailed
// windows so the sample population matches the measured denominator. There
// are never observers in a fast-forwarded epoch, so no events are emitted.
uint32_t Engine::CommitRunFf(int core, uint32_t begin, uint32_t end) {
  Machine& m = *machine_;
  CoreRecorder& rec = recorders_[core];
  const CoreRecorder::Lane* const lanes = rec.lane;
  const CoreRecorder::Meta* const metas = rec.meta;
  uint64_t clock = m.clocks_[core];
  uint64_t probe_lat = probe_latency_[core];
  uint8_t probing = probe_active_[core];
  const uint64_t base_cost = m.config_.base_op_cost;
  uint32_t i = begin;
  for (; i < end; ++i) {
    const uint8_t k = metas[i].kind & CoreRecorder::kKindMask;
    if (k == SimOp::kFfRun) {
      const uint64_t count = lanes[i].addr;
      const uint64_t est = lanes[i].payload();
      clock += est;
      if (probing != 0) {
        // The estimate is base cost + estimated latency per access; probes
        // integrate the latency share.
        probe_lat += est - count * base_cost;
      }
    } else if (k == SimOp::kAccess) {
      const CoreRecorder::Lane& lane = lanes[i];
      const uint32_t size = lane.size_w & ~CoreRecorder::kWriteBit;
      bool needs_hook = false;
      for (const FusedSink::Filtered& f : sink_.filtered) {
        if (lane.addr < f.hi && f.lo < lane.addr + size) {
          needs_hook = true;
          break;
        }
      }
      if (needs_hook && i != begin) {
        break;  // an arbitration point: hand back to the scheduler
      }
      const uint32_t latency = CoreRecorder::ResultLatency(lane.result);
      clock += base_cost + latency;
      if (probing != 0) {
        probe_lat += latency;
      }
      if (needs_hook) {
        m.clocks_[core] = clock;
        const AccessEvent event =
            MakeAccessEvent(core, lane, metas[i].ip, latency, clock);
        // Filtered hooks only — the watching debug registers see the access
        // at its estimated latency; counting hooks stay untouched.
        for (const FusedSink::Filtered& f : sink_.filtered) {
          if (lane.addr < f.hi && f.lo < lane.addr + size) {
            const uint64_t extra = f.hook->OnAccess(event);
            if (extra != 0) {
              m.clocks_[core] += extra;
            }
          }
        }
        // A handler may have (dis)armed a window.
        ResyncSink();
        RefreshQuiet(core);
        clock = m.clocks_[core];
      }
    } else if (k == SimOp::kCompute || k == SimOp::kIdle) {
      clock += lanes[i].payload();
    } else if (k == SimOp::kProbeBegin) {
      probing = 1;
      probe_lat = 0;
    } else {
      DPROF_DCHECK(k == SimOp::kProbeEnd);
      probing = 0;
      double divisor = 1.0;
      const uint64_t bits = lanes[i].payload();
      __builtin_memcpy(&divisor, &bits, sizeof(double));
      reinterpret_cast<RunningStat*>(lanes[i].addr)
          ->Add(static_cast<double>(probe_lat) / divisor);
    }
  }
  m.clocks_[core] = clock;
  probe_latency_[core] = probe_lat;
  probe_active_[core] = probing;
  return i;
}

void Engine::DispatchAccess(int core, uint32_t index, uint64_t& clock) {
  Machine& m = *machine_;
  CoreRecorder& rec = recorders_[core];
  const CoreRecorder::Lane& lane = rec.lane[index];
  // Counting hooks must be current before their per-op consultation.
  FlushQuiet(core);
  const uint32_t latency = CoreRecorder::ResultLatency(lane.result);
  clock += m.config_.base_op_cost + latency;
  if (probe_active_[core] != 0) {
    probe_latency_[core] += latency;
  }
  const AccessEvent event =
      MakeAccessEvent(core, lane, rec.meta[index].ip, latency, clock);
  if (sink_.want_events) {
    EmitAccess(event);
  }
  for (PmuHook* hook : m.pmu_hooks_) {
    const uint64_t extra = hook->OnAccess(event);
    if (extra != 0) {
      clock += extra;
    }
  }
  // A handler may have (dis)armed a watchpoint or reset a countdown.
  ResyncSink();
  RefreshQuiet(core);
}

bool Engine::CommitSyncOp(int core, uint32_t index) {
  Machine& m = *machine_;
  CoreRecorder& rec = recorders_[core];
  const uint8_t kind = rec.meta[index].kind & CoreRecorder::kKindMask;
  uint64_t& clock = m.clocks_[core];
  switch (kind) {
    case SimOp::kLockAcquire: {
      SimLock* lock = reinterpret_cast<SimLock*>(rec.lane[index].addr);
      if (lock->holder_ >= 0 && lock->holder_ != core) {
        // The holder's release is still pending in this commit: park this
        // core (its queue stops merging) until that release wakes it.
        // Without parking, the nondecreasing commit-clock order would make
        // every same-epoch wait zero and let critical sections overlap.
        if (blocked_on_[core] == nullptr) {
          blocked_on_[core] = lock;
          block_start_[core] = clock;
        }
        return false;  // op not consumed; retried after the wake-up
      }
      uint64_t wait = 0;
      if (blocked_on_[core] != nullptr) {
        blocked_on_[core] = nullptr;
        wait = clock > block_start_[core] ? clock - block_start_[core] : 0;
      }
      if (lock->free_at_ > clock) {
        wait += lock->free_at_ - clock;
        clock = lock->free_at_;
      }
      lock->holder_ = core;
      lock->acquired_at_ = clock;
      if (m.lock_observer_ != nullptr) {
        m.lock_observer_->OnAcquire(*lock, core, rec.meta[index].ip, wait, clock);
      }
      return true;
    }
    case SimOp::kLockRelease: {
      SimLock* lock = reinterpret_cast<SimLock*>(rec.lane[index].addr);
      const uint64_t hold = clock - lock->acquired_at_;
      lock->free_at_ = clock;
      lock->holder_ = -1;
      if (m.lock_observer_ != nullptr) {
        m.lock_observer_->OnRelease(*lock, core, rec.meta[index].ip, hold, clock);
      }
      // Wake cores parked on this lock: they waited until this release,
      // then re-arbitrate by the usual min-clock rule.
      for (int c = 0; c < m.num_cores(); ++c) {
        if (blocked_on_[c] == lock) {
          if (clock > m.clocks_[c]) {
            m.clocks_[c] = clock;
          }
          commit_keys_[c] = PackKey(m.clocks_[c], c);
          woke_parked_ = true;
        }
      }
      return true;
    }
    case SimOp::kAllocEvent: {
      const uint64_t payload = rec.lane[index].payload();
      m.allocator_->CommitAllocEvent(static_cast<TypeId>(payload >> 32),
                                     rec.lane[index].addr,
                                     static_cast<uint32_t>(payload), core, clock);
      return true;
    }
    default: {
      DPROF_DCHECK(kind == SimOp::kFreeEvent);
      const uint64_t payload = rec.lane[index].payload();
      m.allocator_->CommitFreeEvent(static_cast<TypeId>(payload >> 32),
                                    rec.lane[index].addr,
                                    static_cast<uint32_t>(payload), core, clock,
                                    (rec.meta[index].kind & CoreRecorder::kAlienBit) != 0);
      return true;
    }
  }
}

void Engine::EmitAccess(const AccessEvent& event) {
  for (MachineObserver* obs : machine_->observers_) {
    obs->OnAccess(event);
  }
}

void Engine::EmitCompute(int core, FunctionId ip, uint64_t cycles, uint64_t now) {
  for (MachineObserver* obs : machine_->observers_) {
    obs->OnCompute(core, ip, cycles, now);
  }
}

}  // namespace dprof
