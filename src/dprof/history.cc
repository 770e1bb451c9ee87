#include "src/dprof/history.h"

#include <algorithm>

#include "src/util/check.h"

namespace dprof {

HistoryCollector::HistoryCollector(Machine* machine, DebugRegisterFile* regs, TypeId type,
                                   uint32_t object_size, const HistoryCollectorOptions& options,
                                   SlabAllocator* allocator)
    : machine_(machine),
      regs_(regs),
      type_(type),
      object_size_(object_size),
      options_(options),
      allocator_(allocator),
      rng_(options.seed) {
  DPROF_CHECK(options_.granularity >= 1 &&
              options_.granularity <= DebugRegisterFile::kMaxWatchBytes);
  if (!options_.member_offsets.empty()) {
    offsets_ = options_.member_offsets;
    std::sort(offsets_.begin(), offsets_.end());
  } else {
    for (uint32_t off = 0; off < object_size_; off += options_.granularity) {
      offsets_.push_back(off);
    }
  }
  DPROF_CHECK(!offsets_.empty());
  if (options_.pair_mode) {
    DPROF_CHECK(offsets_.size() >= 2);
  }
  regs_->SetHandler([this](const AccessEvent& event, int reg) { OnDebugHit(event, reg); });
}

uint32_t HistoryCollector::histories_per_set() const {
  const uint32_t n = NumOffsets();
  return options_.pair_mode ? n * (n - 1) / 2 : n;
}

void HistoryCollector::OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) {
  (void)size;
  // Allocation events double as a timeout check: a watched object whose
  // monitored offset has gone cold (or that is never freed) must not stall
  // the sweep forever.
  if (monitoring_ && now > current_.alloc_time &&
      now - current_.alloc_time > options_.max_monitor_cycles) {
    FinishMonitoring(false);
  }
  if (type != type_ || monitoring_ || done()) {
    if (type == type_) {
      ++alloc_events_seen_;
    }
    return;
  }
  ++alloc_events_seen_;
  if (now < earliest_arm_) {
    return;
  }
  if (arm_skip_ > 0) {
    --arm_skip_;
    return;
  }
  arm_skip_ = options_.arm_skip_max == 0
                  ? 0
                  : static_cast<uint32_t>(rng_.Below(options_.arm_skip_max));
  BeginMonitoring(base, core, now);
}

void HistoryCollector::BeginMonitoring(Addr base, int core, uint64_t now) {
  monitoring_ = true;
  current_ = ObjectHistory();
  current_.type = type_;
  current_.base = base;
  current_.alloc_time = now;
  current_.sweep = sets_completed_;
  current_.watch_offsets[0] = offsets_[scan_i_];
  current_.num_watch = 1;

  // Reserve the object with the memory subsystem.
  const DebugRegCostModel& costs = regs_->costs();
  machine_->ChargeCycles(core, costs.reserve_cycles);
  overhead_.reserve_cycles += costs.reserve_cycles;

  // Broadcast debug-register setup to every core.
  machine_->ChargeCycles(core, costs.setup_initiator_cycles);
  overhead_.comm_cycles += costs.setup_initiator_cycles;
  for (int c = 0; c < machine_->num_cores(); ++c) {
    if (c != core) {
      machine_->ChargeCycles(c, costs.setup_ipi_cycles);
      overhead_.comm_cycles += costs.setup_ipi_cycles;
    }
  }

  regs_->Arm(0, base + offsets_[scan_i_], options_.granularity);
  if (options_.pair_mode) {
    current_.watch_offsets[1] = offsets_[scan_j_];
    current_.num_watch = 2;
    regs_->Arm(1, base + offsets_[scan_j_], options_.granularity);
  }
  // Element timestamps are relative to when monitoring actually engages,
  // i.e. after the reservation and setup broadcast completed.
  current_.alloc_time = machine_->CoreClock(core);
  ++overhead_.objects_profiled;
}

void HistoryCollector::OnDebugHit(const AccessEvent& event, int reg) {
  if (!monitoring_) {
    return;
  }
  const DebugRegCostModel& costs = regs_->costs();
  overhead_.interrupt_cycles += costs.interrupt_cycles;

  HistoryElement elem;
  elem.offset = reg == 0 ? current_.watch_offsets[0] : current_.watch_offsets[1];
  elem.ip = event.ip;
  elem.cpu = static_cast<uint16_t>(event.core);
  elem.is_write = event.is_write;
  // Cores are only loosely synchronized: a hit can arrive from a core whose
  // clock still trails the monitor's post-broadcast start time.
  elem.time = event.now > current_.alloc_time ? event.now - current_.alloc_time : 0;
  current_.elements.push_back(elem);
  ++overhead_.elements_recorded;

  if (current_.elements.size() >= options_.max_elements_per_history ||
      elem.time > options_.max_monitor_cycles) {
    FinishMonitoring(false);
  }
}

void HistoryCollector::OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) {
  (void)size;
  (void)core;
  if (!monitoring_ || type != type_ || base != current_.base) {
    return;
  }
  if (now > current_.alloc_time) {
    current_.end_time = now - current_.alloc_time;
  }
  FinishMonitoring(true);
}

void HistoryCollector::FinishMonitoring(bool complete) {
  regs_->Disarm(0);
  if (options_.pair_mode) {
    regs_->Disarm(1);
  }
  monitoring_ = false;
  earliest_arm_ = machine_->MaxClock() + options_.min_rearm_cycles;
  current_.complete = complete;
  if (current_.end_time == 0 && !current_.elements.empty()) {
    current_.end_time = current_.elements.back().time;
  }
  histories_.push_back(std::move(current_));
  current_ = ObjectHistory();
  AdvanceScan();
}

void HistoryCollector::AdvanceScan() {
  if (options_.pair_mode) {
    ++scan_j_;
    if (scan_j_ >= NumOffsets()) {
      ++scan_i_;
      scan_j_ = scan_i_ + 1;
      if (scan_j_ >= NumOffsets()) {
        scan_i_ = 0;
        scan_j_ = 1;
        ++sets_completed_;
      }
    }
  } else {
    ++scan_i_;
    if (scan_i_ >= NumOffsets()) {
      scan_i_ = 0;
      ++sets_completed_;
    }
  }
}

void HistoryCollector::Poll(uint64_t now) {
  // Timeout for a stale in-flight object; with no allocation events for any
  // type, OnAlloc's timeout check never runs, so it must also live here.
  if (monitoring_ && now > current_.alloc_time &&
      now - current_.alloc_time > options_.max_monitor_cycles) {
    FinishMonitoring(false);
  }
  if (!options_.arm_live_objects || allocator_ == nullptr || monitoring_ || done()) {
    return;
  }
  if (alloc_events_seen_ > 0 || now < earliest_arm_) {
    // The type recycles (allocation-triggered arming works), or we are
    // still pacing the setup broadcast.
    return;
  }
  const std::vector<Addr> live = allocator_->LiveObjects(type_, 4096);
  if (live.empty()) {
    return;
  }
  const Addr base = live[live_cursor_ % live.size()];
  ++live_cursor_;
  BeginMonitoring(base, 0, now);
}

void HistoryCollector::Stop() {
  if (monitoring_) {
    FinishMonitoring(false);
  }
  regs_->SetHandler(nullptr);
  regs_->DisarmAll();
}

}  // namespace dprof
