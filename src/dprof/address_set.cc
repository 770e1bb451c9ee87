#include "src/dprof/address_set.h"

#include <algorithm>

namespace dprof {

namespace {

// Seeds the reservoir-sampling stream.
constexpr uint64_t kSeed = 0x5eed;

}  // namespace

AddressSet::AddressSet(const AddressSetOptions& options) : options_(options), rng_(kSeed) {
  // Hot path: one insert per allocation and one erase per free.
  live_alloc_time_.reserve(1 << 16);
}

AddressSet::PerType& AddressSet::Entry(TypeId type) { return per_type_[type]; }

void AddressSet::OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) {
  (void)core;
  PerType& entry = Entry(type);
  // Per-core clocks are only loosely synchronized; never integrate backwards.
  if (now > entry.last_event) {
    entry.live_integral +=
        static_cast<double>(entry.live) * static_cast<double>(now - entry.last_event);
    entry.last_event = now;
  }
  ++entry.allocs;
  ++entry.live;
  entry.obj_size = size;
  live_alloc_time_[base] = now;

  const Addr sample = base % options_.modulo;
  if (entry.samples.size() < options_.reservoir_per_type) {
    entry.samples.push_back(sample);
  } else {
    // Reservoir sampling keeps a uniform sample of all allocations.
    const uint64_t slot = rng_.Below(entry.allocs);
    if (slot < entry.samples.size()) {
      entry.samples[slot] = sample;
    }
  }
}

void AddressSet::OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) {
  (void)size;
  (void)core;
  PerType& entry = Entry(type);
  if (now > entry.last_event) {
    entry.live_integral +=
        static_cast<double>(entry.live) * static_cast<double>(now - entry.last_event);
    entry.last_event = now;
  }
  ++entry.frees;
  if (entry.live > 0) {
    --entry.live;
  }
  auto it = live_alloc_time_.find(base);
  if (it != live_alloc_time_.end()) {
    if (now > it->second) {
      entry.lifetime.Add(static_cast<double>(now - it->second));
    }
    live_alloc_time_.erase(it);
  }
}

uint64_t AddressSet::AllocCount(TypeId type) const {
  auto it = per_type_.find(type);
  return it == per_type_.end() ? 0 : it->second.allocs;
}

uint64_t AddressSet::LiveCount(TypeId type) const {
  auto it = per_type_.find(type);
  return it == per_type_.end() ? 0 : it->second.live;
}

uint32_t AddressSet::ObjectSize(TypeId type) const {
  auto it = per_type_.find(type);
  return it == per_type_.end() ? 0 : it->second.obj_size;
}

double AddressSet::AverageLiveBytes(TypeId type, uint64_t now) const {
  auto it = per_type_.find(type);
  if (it == per_type_.end() || now == 0) {
    return 0.0;
  }
  const PerType& entry = it->second;
  double integral = entry.live_integral;
  if (now > entry.last_event) {
    integral += static_cast<double>(entry.live) * static_cast<double>(now - entry.last_event);
  }
  return integral / static_cast<double>(now) * entry.obj_size;
}

double AddressSet::AverageLifetime(TypeId type) const {
  auto it = per_type_.find(type);
  return it == per_type_.end() ? 0.0 : it->second.lifetime.mean();
}

const std::vector<Addr>& AddressSet::AddressSamples(TypeId type) const {
  auto it = per_type_.find(type);
  return it == per_type_.end() ? empty_ : it->second.samples;
}

std::vector<TypeId> AddressSet::KnownTypes() const {
  std::vector<TypeId> out;
  out.reserve(per_type_.size());
  for (const auto& [type, entry] : per_type_) {
    out.push_back(type);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dprof
