// Cache geometry math and a standalone N-way set-associative cache model
// with per-set LRU replacement.
//
// Addresses are tracked at cache-line granularity ("line numbers" = byte
// address >> line shift). Geometries are constrained to power-of-two line
// sizes and set counts — checked at construction wherever a geometry backs
// real state — so every address-to-line and line-to-set computation is a
// shift or a mask, never a divide.
//
// The `Cache` class here is the reference model: tests and the
// `micro_costs` bench use it directly. The working-set view and the
// simulated machine's hot path use only `CacheGeometry` — the coherent
// hierarchy (src/sim/hierarchy.h) keeps its own flattened tag lattice.

#ifndef DPROF_SRC_SIM_CACHE_H_
#define DPROF_SRC_SIM_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/check.h"
#include "src/util/types.h"

namespace dprof {

struct CacheGeometry {
  uint64_t size_bytes = 32 * 1024;
  uint32_t line_size = 64;
  uint32_t ways = 8;

  uint64_t NumSets() const { return size_bytes / (static_cast<uint64_t>(line_size) * ways); }

  // Shift/mask forms of the address math. Valid only for power-of-two line
  // sizes and set counts, which every constructor taking a geometry checks.
  uint32_t LineShift() const { return static_cast<uint32_t>(__builtin_ctz(line_size)); }
  uint64_t SetMask() const { return NumSets() - 1; }
  uint64_t LineOf(Addr addr) const { return addr >> LineShift(); }
  uint64_t SetOf(uint64_t line) const { return line & SetMask(); }

  bool IsPowerOfTwoShaped() const {
    const uint64_t sets = NumSets();
    return line_size != 0 && (line_size & (line_size - 1)) == 0 && sets != 0 &&
           (sets & (sets - 1)) == 0;
  }
};

// Per-cache counters, exposed for tests.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fills = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
};

class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry);

  const CacheGeometry& geometry() const { return geometry_; }

  // Looks up `line`; on hit refreshes LRU state and returns true.
  // Counts a hit or miss in stats().
  bool Touch(uint64_t line, uint64_t now);

  // Presence check with no LRU or stats side effects.
  bool Contains(uint64_t line) const;

  // Inserts `line`, evicting the LRU way if the set is full. Returns the
  // evicted line, if any. Inserting a line that is already present just
  // refreshes it and returns nullopt.
  std::optional<uint64_t> Insert(uint64_t line, uint64_t now);

  // Removes `line` (coherence invalidation or explicit flush).
  // Returns true if the line was present.
  bool Remove(uint64_t line);

  // Number of valid lines currently cached.
  uint64_t Occupancy() const;

  // Number of fills that ever targeted associativity set `set`.
  uint64_t FillsOfSet(uint64_t set) const { return set_fills_[set]; }

  const CacheStats& stats() const { return stats_; }

 private:
  static constexpr uint64_t kInvalidLine = ~0ull;

  // Power-of-two set counts are required at construction, so the old
  // `line % NumSets()` fallback is gone: set indexing is always a mask.
  uint64_t SetIndex(uint64_t line) const { return line & set_mask_; }
  // Way index of `line` within `set`, or -1.
  int FindWay(uint64_t set, uint64_t line) const;

  CacheGeometry geometry_;
  uint64_t set_mask_ = 0;            // NumSets - 1
  std::vector<uint64_t> lines_;      // NumSets * ways tags, row-major by set
  std::vector<uint64_t> last_use_;   // LRU stamp per way
  std::vector<uint64_t> set_fills_;
  CacheStats stats_;
};

}  // namespace dprof

#endif  // DPROF_SRC_SIM_CACHE_H_
