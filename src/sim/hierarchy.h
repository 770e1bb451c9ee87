// Multicore coherent cache hierarchy: private L1/L2 per core, a shared L3
// whose tag lattice embeds the MSI-style coherence directory, and DRAM.
//
// This is the hardware substrate the paper ran on (a 16-core AMD machine).
// It supplies everything DProf observes through the PMU: the cache level that
// served each access, access latency, and (for the simulator-side ground
// truth used in tests) whether a miss was caused by a remote invalidation.
//
// Layout: the access path is a flattened tag lattice, not a stack of cache
// objects. Private L1/L2 tags for all cores live in contiguous
// structure-of-arrays columns (tags / LRU stamps / exclusive bits), so one
// access is a slot-based walk: probe the core's L1 set row, then its L2 set
// row, then the line's L3 set — three bounded scans over packed tags with no
// hashing and no per-level object indirection.
//
// The L3 is an inclusive tag lattice with the coherence directory (sharers
// mask, modified owner, invalidated-from set) embedded in its way metadata.
// Each L3 set has `ways` data ways — which behave exactly like a classic
// N-way LRU data array — plus a compacted bank of directory-extension ways
// (`HierarchyConfig::l3_dir_ext_ways`, the hardware analogue of a snoop
// filter sized beyond the data array). A line whose data leaves the L3 (a
// capacity eviction, or a write upgrade making the L3 copy stale) keeps its
// tag and directory state in an extension way, so every line held by any
// private cache always has a lattice tag. The one inclusion obligation lives
// in a single place, ReclaimExtWay: when a set's extension bank overflows,
// the least-recently-stamped extension tag is dropped and every private copy
// it tracked is back-invalidated. tag_reclaims()/back_invalidations() count
// those events; the registered scenarios never trigger them, which is what
// makes the lattice's aggregate stats bit-identical to the unbounded
// hash-directory model this replaced.
//
// NUMA: with HierarchyConfig::num_sockets > 1 the machine carries one L3
// slice per socket — an independent set array, directory domain, and
// extension bank. A line's home slice is an address hash (the socket-count
// bits of its line number just below the shard width), so homes interleave
// in aligned blocks of home_block_bytes() and, crucially, every shard's
// lines share one home socket: the engine can hand whole sockets' worth of
// shards to one worker. Accesses served by a remote home slice, or by a
// supplier core on another socket (including the foreign-read downgrade),
// pay LatencyModel::interconnect per line and count as remote_fills;
// reclaim back-invalidations crossing a socket boundary count as
// cross_socket_back_invalidations. num_sockets == 1 degenerates to the flat
// SMP exactly.
//
// Sharding: every piece of hierarchy state — the L1/L2 set rows, and the L3
// sets with their embedded directory — partitions by the low bits of the
// line number, and the shard width divides every level's set count, so the
// shard partition agrees with (refines into) the L3 set partition: a shard
// worker owns whole L3 sets, including their directory state. Victims of an
// eviction and back-invalidation targets share their evictor's set, hence
// its shard. num_shards() reports the partition width; the parallel engine
// drives one commit worker per shard, and two accesses whose lines fall in
// different shards may be applied concurrently.

#ifndef DPROF_SRC_SIM_HIERARCHY_H_
#define DPROF_SRC_SIM_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "src/sim/cache.h"
#include "src/util/types.h"

namespace dprof {

// Where a memory access was satisfied. Order matters: larger is slower.
enum class ServedBy : uint8_t {
  kL1 = 0,
  kL2 = 1,
  kL3 = 2,
  kForeignCache = 3,  // another core's private cache (modified or exclusive)
  kDram = 4,
};

const char* ServedByName(ServedBy level);

struct LatencyModel {
  uint32_t l1 = 3;
  uint32_t l2 = 14;
  uint32_t l3 = 50;
  uint32_t foreign = 200;
  uint32_t dram = 250;
  // Added once per line when the serving agent sits on another socket: an
  // L3/DRAM fill whose home slice is remote, or a cache-to-cache transfer
  // (including the foreign-read downgrade) whose supplier core is remote.
  // Never charged on single-socket machines.
  uint32_t interconnect = 100;

  uint32_t Of(ServedBy level) const;
};

// Result of one (possibly multi-line) access.
struct AccessResult {
  uint32_t latency = 0;        // summed over all lines touched
  ServedBy level = ServedBy::kL1;  // slowest level among touched lines
  bool l1_miss = false;        // any line missed the local L1
  bool invalidation = false;   // any line miss caused by a remote write
  uint32_t lines = 0;          // number of cache lines spanned
};

// Packed form of an AccessResult: latency (24 bits) | level (3) |
// invalidation (1). The batch-apply interface below writes it, and the
// engine's lane records (CoreRecorder in src/machine/machine.h) carry the
// same layout; simulated latencies are a few hundred cycles, so 24 bits
// leaves three orders of magnitude of headroom.
inline uint32_t PackAccessResult(uint32_t latency, ServedBy level, bool invalidation) {
  return latency | (static_cast<uint32_t>(level) << 24) |
         (static_cast<uint32_t>(invalidation) << 27);
}
inline uint32_t PackedAccessLatency(uint32_t packed) { return packed & 0x00ff'ffffu; }
inline ServedBy PackedAccessLevel(uint32_t packed) {
  return static_cast<ServedBy>((packed >> 24) & 0x7u);
}
inline bool PackedAccessInvalidation(uint32_t packed) {
  return ((packed >> 27) & 1u) != 0;
}

// One access of a batch-apply span: the compact 16-byte record the engine
// gathers recorded accesses into. `size_w` carries size | kWriteBit on
// entry and the packed AccessResult on return.
struct ApplyLane {
  static constexpr uint32_t kWriteBit = 0x8000'0000u;

  Addr addr;
  uint32_t t_delta;  // access time = span base + t_delta
  uint32_t size_w;   // in: size | write bit; out: PackAccessResult(...)
};
static_assert(sizeof(ApplyLane) == 16, "spans are streamed as 16-byte records");

struct HierarchyConfig {
  int num_cores = 16;
  // NUMA sockets (power of two, divides num_cores). Cores are block-assigned
  // (core c sits on socket c / (num_cores / num_sockets)); the `l3` geometry
  // below describes ONE per-socket slice, so the machine carries num_sockets
  // independent slices, each with its own directory domain and extension
  // bank. Lines are homed by address hash: the two (for 4 sockets) line bits
  // just below the shard width pick the slice, so homes interleave in
  // aligned blocks of 2^(shard_bits - socket_bits) lines and every shard's
  // lines share one home socket. num_sockets == 1 is the flat SMP the
  // pre-NUMA model simulated, bit for bit.
  int num_sockets = 1;
  CacheGeometry l1{32 * 1024, 64, 8};
  CacheGeometry l2{512 * 1024, 64, 16};
  CacheGeometry l3{16 * 1024 * 1024, 64, 16};
  // Directory-extension ways per L3 set: tags whose data left the L3 keep
  // their directory state here. Overflow is the inclusion obligation (the
  // oldest extension tag is reclaimed and its private copies
  // back-invalidated); sized so registered workloads never overflow.
  uint32_t l3_dir_ext_ways = 32;
  LatencyModel latency;
};

// Per-core aggregate counters (ground truth, not what DProf sees).
struct CoreMemStats {
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t served[5] = {0, 0, 0, 0, 0};  // indexed by ServedBy
  uint64_t invalidation_misses = 0;
  // Lines served across the interconnect (remote home slice or remote
  // supplier core). Always zero on single-socket machines.
  uint64_t remote_fills = 0;
};

// CoreMemStats summed over all cores, plus the lattice's inclusion-
// obligation counters: the simulator-side ground truth fingerprint of a run
// (stats-equivalence tests, `dprof run --json`'s "hierarchy" block).
struct HierarchyTotals {
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t served[5] = {0, 0, 0, 0, 0};
  uint64_t invalidation_misses = 0;
  uint64_t tag_reclaims = 0;
  uint64_t back_invalidations = 0;
  // NUMA interconnect traffic: lines served across sockets, and reclaim
  // back-invalidations whose victim core sat on a different socket than the
  // line's home slice. Both zero on single-socket machines.
  uint64_t remote_fills = 0;
  uint64_t cross_socket_back_invalidations = 0;
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& config);

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  // Performs an access to [addr, addr + size) by `core` at time `now`.
  // The write-ness of an access is a template parameter so the read path —
  // the overwhelmingly common case — compiles to a single predictable probe
  // with no ownership checks.
  template <bool kWrite>
  AccessResult Access(int core, Addr addr, uint32_t size, uint64_t now) {
    return AccessImpl<kWrite>(core, addr, size, now, nullptr);
  }

  // Runtime-dispatch form for callers that carry the write bit in data.
  AccessResult Access(int core, Addr addr, uint32_t size, bool is_write, uint64_t now) {
    return is_write ? Access<true>(core, addr, size, now)
                    : Access<false>(core, addr, size, now);
  }

  // Software-pipelined batch apply: resolves `count` accesses by `core` in
  // order (access i happens at base + lanes[i].t_delta) and writes each
  // packed result into lanes[i].size_w. While resolving access i it issues
  // host prefetches for the L1/L2 tag rows and the L3 set/directory rows of
  // access i + kPrefetchDepth, so a span of random addresses overlaps its
  // host cache misses on the tag columns instead of serializing them; the
  // per-access stat counters accumulate in a span-local scratch stripe and
  // flush once per span. State effects and results are exactly those of
  // `count` sequential Access calls. Concurrency contract: when spans are
  // applied from concurrent shard workers, every line of a span must belong
  // to the calling worker's shard (the engine's per-shard drains satisfy
  // this by construction); single-threaded callers may span shards freely.
  void ApplyBatch(int core, uint64_t base, ApplyLane* lanes, size_t count);

  // Prefetch distance of ApplyBatch: far enough ahead to cover a host DRAM
  // miss at a few ns per simulated access, short enough that the prefetched
  // rows are still resident when their access resolves.
  static constexpr size_t kPrefetchDepth = 8;

  const HierarchyConfig& config() const { return config_; }
  uint32_t line_size() const { return config_.l1.line_size; }

  // Width of the line-number partition (power of two). Accesses to lines in
  // different shards touch disjoint state; the width divides every level's
  // set count, so a shard owns whole L3 sets (and their embedded directory).
  uint32_t num_shards() const { return shard_mask_ + 1; }
  uint32_t ShardOf(Addr addr) const {
    return static_cast<uint32_t>((addr >> line_shift_) & shard_mask_);
  }

  // NUMA topology. Home-socket bits sit inside the shard width, so every
  // shard's lines share one home slice and the engine can schedule whole
  // sockets' worth of shards onto one worker (SocketOfShard).
  int num_sockets() const { return static_cast<int>(socket_mask_ + 1); }
  int SocketOfCore(int core) const { return core / cores_per_socket_; }
  int SocketOfShard(uint32_t shard) const {
    return static_cast<int>((shard >> home_shift_) & socket_mask_);
  }
  int HomeSocketOf(Addr addr) const {
    return static_cast<int>(((addr >> line_shift_) >> home_shift_) & socket_mask_);
  }
  // Granularity of home interleaving: addresses inside one aligned block of
  // this many bytes share a home socket, and consecutive blocks cycle the
  // sockets in order (block index modulo num_sockets). The slab allocator's
  // socket-aware pin_home placement carves object runs from these blocks.
  uint64_t home_block_bytes() const { return 1ull << (line_shift_ + home_shift_); }

  // Introspection for tests and profilers.
  bool InPrivateCache(int core, Addr addr) const;
  ServedBy ProbeLevel(int core, Addr addr) const;  // level a read would hit now
  const CoreMemStats& core_stats(int core) const;
  HierarchyTotals Totals() const;

  // Inclusion-obligation ground truth: lattice tags reclaimed from
  // overflowing extension banks, and private-cache copies those reclaims
  // back-invalidated. Zero on every registered scenario (the
  // stats-equivalence envelope).
  uint64_t tag_reclaims() const;
  uint64_t back_invalidations() const;
  // NUMA interconnect ground truth: lines served across sockets, and
  // reclaim back-invalidations that crossed a socket boundary.
  uint64_t remote_fills() const;
  uint64_t cross_socket_back_invalidations() const;

  // Lattice introspection for tests: number of L3 data ways in use, and
  // whether `addr`'s line holds any lattice tag (data or extension).
  uint64_t L3DataLines() const;
  bool L3HasTag(Addr addr) const;

  // Drops every cached line and all embedded directory state (used between
  // benchmark phases). Counters survive.
  void FlushAll();

  // Deliberately corrupts one lattice invariant, for the fault-injection
  // harness: every kind below produces a state the InvariantAuditor is
  // guaranteed to flag (the audit detection contract is pinned by
  // faults_test). Returns false when the lattice holds no suitable target
  // (e.g. it is empty); the caller tries another kind.
  //   0: drop the lattice tag of a line a private cache still holds
  //      (inclusion violation)
  //   1: forge or orphan a private exclusive bit (owner mismatch)
  //   2: skew a set's l3_tag_count_ bookkeeping
  //   3: clear the directory sharer bit of a live private holder
  //   4: duplicate a data tag into the extension bank
  //   5: point a directory owner at a core outside its sharer set
  //   6: materialize a line's tag in a foreign socket's L3 slice (wrong-home
  //      line; injectable only when num_sockets > 1)
  static constexpr int kNumLatticeFaultKinds = 7;
  bool InjectLatticeFault(int kind);

 private:
  friend class InvariantAuditor;
  // Pulls the tag/stamp rows an access to `addr` will walk toward the host
  // caches: the issuing core's L1 and L2 set rows and the line's L3 set row
  // (both halves of the 16-way tag rows; the stamp rows ride along because
  // every hit stamps recency). Used by ApplyBatch's lookahead.
  // Starts the L1/L2 tag rows of (core, line) toward the host caches.
  // An extension-bank reclaim back-invalidates every sharer of the
  // reclaimed tag in turn; issuing all sharers' row prefetches before the
  // first serialized probe overlaps their fetches. (The hot write-upgrade
  // path deliberately does not do this: measured on the reference host,
  // the extra prefetch instructions cost more than the overlap buys when
  // the victims' rows are already cache-resident.)
  void PrefetchPrivateRows(int core, uint64_t line) const {
    __builtin_prefetch(l1_.tags.data() + l1_.RowOf(core, line));
    __builtin_prefetch(l2_.tags.data() + l2_.RowOf(core, line));
  }

  void PrefetchAccess(int core, Addr addr) const {
#if DPROF_DISABLE_PREFETCH
    (void)core; (void)addr;
#else
    const uint64_t line = addr >> line_shift_;
    const size_t row1 = l1_.RowOf(core, line);
    __builtin_prefetch(l1_.tags.data() + row1);
    __builtin_prefetch(l1_.stamps.data() + row1, 1);
    const size_t row2 = l2_.RowOf(core, line);
    __builtin_prefetch(l2_.tags.data() + row2);
    __builtin_prefetch(l2_.stamps.data() + row2, 1);
    const size_t l3_base = L3SetOf(line) * l3_ways_;
    __builtin_prefetch(l3_tags_.data() + l3_base);
    if (l3_ways_ > 8) {  // second host line of a 16-way tag row
      __builtin_prefetch(l3_tags_.data() + l3_base + 8);
    }
    __builtin_prefetch(l3_stamps_.data() + l3_base, 1);
#endif
  }
  static constexpr uint64_t kNoLine = ~0ull;
  // Exclusive-owner bit packed into private (L1/L2) tag words: the line is
  // held by this core as sole modified owner, so write hits skip the
  // directory. Packing it into the tag removes the separate exclusive-bit
  // column the walk used to touch — write upgrades and the foreign-read
  // downgrade or/and-not the bit in the tag word the probe already loaded.
  // Line numbers are < 2^58 and kNoLine keeps the bit set, so masked
  // compares below never collide.
  static constexpr uint64_t kPrivExclBit = 1ull << 62;
  static constexpr uint64_t kPrivTagMask = kPrivExclBit - 1;
  // High tag bit marking an in-place dir-only residue in a data way: the
  // line's data left the L3 (write upgrade), but its tag and embedded
  // directory state stay put. Such a way reads as free to fills — exactly
  // the way the classic model would have left invalid — and the residue is
  // displaced into the extension bank only when a fill claims the way.
  // Line numbers are < 2^58, so the bit never collides (kNoLine has it set,
  // which makes "free way" a single unsigned compare).
  static constexpr uint64_t kDirOnlyBit = 1ull << 63;
  static constexpr uint64_t kTagMask = kDirOnlyBit - 1;

  // One private cache level (L1 or L2) for all cores, SoA: a core's set row
  // is `ways` contiguous tags.
  struct Level {
    uint32_t ways = 0;
    uint64_t sets = 0;
    uint64_t set_mask = 0;
    // [core][set][way]; kNoLine = invalid. A valid tag may carry
    // kPrivExclBit (sole modified owner).
    std::vector<uint64_t> tags;
    std::vector<uint64_t> stamps;  // LRU stamp per way

    void Init(const CacheGeometry& geometry, int num_cores);
    size_t RowOf(int core, uint64_t line) const {
      return (static_cast<uint64_t>(core) * sets + (line & set_mask)) * ways;
    }
  };

  // Directory metadata embedded in every L3 lattice way. The core masks are
  // 64 bits wide to match Engine::kMaxCores.
  struct WayMeta {
    uint64_t sharers = 0;           // cores whose private caches may hold the line
    uint64_t invalidated_from = 0;  // cores that lost the line to a remote write
    int8_t owner = -1;              // core with a dirty copy, or -1
    // Level-presence hint for the owner's exclusive grant: bit 0 = the
    // owner's L1 may carry kPrivExclBit, bit 1 = its L2 may. Granting L2
    // sets both bits (an exclusive L2 silently propagates its bit to an L1
    // refill, with no directory access), so a clear bit guarantees that
    // level holds no exclusive tag — the foreign-read downgrade skips its
    // probe. Fits the struct's padding bytes.
    uint8_t excl_levels = 0;

    bool HasState() const {
      return sharers != 0 || invalidated_from != 0 || owner >= 0;
    }
  };

  // Result of one fused probe+fill scan over a private set row: the
  // matching way (probe), or the first invalid way when there is no match —
  // one tag-only walk serves both, and LRU stamps are read only when a full
  // row forces an eviction (inside FillAt).
  struct RowScan {
    int way = -1;   // matching way, or -1
    int free = -1;  // first invalid way (miss only)
  };
  // Same for an L3 set: the matching slot (data or extension), plus the
  // free data way. When the match is a data way the scan returns early and
  // free_data is unset — no caller needs it then.
  struct L3Scan {
    int slot = -1;
    int free_data = -1;
  };

  static RowScan ScanRow(const Level& level, size_t row, uint64_t line);
  // Fills `line` using the candidates of a missing ScanRow. Returns the way
  // index; *victim receives the evicted line or kNoLine.
  static uint32_t FillAt(Level& level, size_t row, const RowScan& scan, uint64_t line,
                         uint64_t now, uint64_t* victim);

  // Slot of `line` within L3 set `set` (data ways then live extension
  // ways), as an offset from the set base; -1 if the lattice has no tag.
  int FindL3Slot(uint64_t set, uint64_t line) const;
  L3Scan ScanL3(uint64_t set, uint64_t line) const;

  // Serves a single line access. Returns the level; sets *invalidation, and
  // *extra_latency gains the interconnect penalty when the serving agent sat
  // on another socket (sets *remote alongside).
  template <bool kWrite>
  ServedBy AccessLine(int core, uint64_t line, uint64_t now, bool* invalidation,
                      uint32_t* extra_latency, bool* remote);

  // Home slice's global L3 set of `line`: the home socket picks the slice,
  // the line's set bits pick the set within it. Degenerates to the flat
  // `line & l3_set_mask_` when num_sockets == 1 (socket_mask_ == 0).
  uint64_t L3SetOf(uint64_t line) const {
    return ((line >> home_shift_) & socket_mask_) * l3_sets_ + (line & l3_set_mask_);
  }


  // Ensures `line` occupies an L3 data way (stamp = now), preserving its
  // directory state; mirrors a classic LRU insert on the data ways and
  // demotes an evicted victim's tag into the extension bank. Returns the
  // line's data-way slot offset.
  int PromoteToData(uint64_t set, const L3Scan& scan, uint64_t line, uint64_t now);

  // Appends a tag to the set's extension bank, reclaiming the oldest
  // extension tag first if the bank is full.
  void PushExt(uint64_t set, uint64_t line, uint64_t stamp, WayMeta meta);
  // Drops live extension way `slot`, compacting the bank.
  void RemoveExtAt(uint64_t set, int slot);

  // LRU over a full bank of data ways (stamp pass, first index wins ties).
  int LruDataWay(size_t set_base) const;

  // Directory metadata of unified slot `slot` (data way or ways+ext index).
  WayMeta* MetaAt(uint64_t set, int slot) {
    return static_cast<uint32_t>(slot) < l3_ways_
               ? &l3_meta_[set * l3_ways_ + static_cast<uint32_t>(slot)]
               : &l3_ext_meta_[set * l3_ext_ways_ +
                               (static_cast<uint32_t>(slot) - l3_ways_)];
  }
  // Raw tag at unified slot `slot` (data tags may carry kDirOnlyBit).
  uint64_t TagAt(uint64_t set, int slot) const {
    return static_cast<uint32_t>(slot) < l3_ways_
               ? l3_tags_[set * l3_ways_ + static_cast<uint32_t>(slot)]
               : l3_ext_tags_[set * l3_ext_ways_ +
                              (static_cast<uint32_t>(slot) - l3_ways_)];
  }

  // THE inclusion obligation: drops the least-recently-stamped extension tag
  // of the set and back-invalidates every private copy it tracked.
  void ReclaimExtWay(uint64_t set);

  // Grants `core` exclusive-modified ownership of a line it already holds in
  // its private caches: invalidates other sharers, demotes the (now stale)
  // L3 data copy, and sets the private exclusive bits. `l1_way`/`l2_way` are
  // the line's way slots when the caller knows them (-1 probes L2 by line).
  void WriteUpgrade(int core, uint64_t line, uint64_t set, int slot, int64_t l1_way,
                    int64_t l2_way);

  // Removes `line` from core `c`'s private caches, updating `meta`.
  void InvalidateFrom(int c, uint64_t line, WayMeta* meta);

  // Handles a victim evicted from one of core `c`'s private caches; `other`
  // is the private level that might still hold it.
  void HandlePrivateEviction(int c, const Level& other, uint64_t victim, uint64_t now);

  // Way index of `line` in the row, or -1.
  static int ProbeRow(const Level& level, size_t row, uint64_t line);
  static void RemoveAt(Level& level, size_t slot);

  // Striped counter cell: only the five served-level counts and the
  // invalidation count are stored; accesses / l1_hits / l1_misses are
  // derived sums, so the hot path does one indexed increment instead of
  // three stores into a wider struct.
  struct StatStripe {
    uint64_t served[5] = {0, 0, 0, 0, 0};
    uint64_t invalidation_misses = 0;
    uint64_t remote_fills = 0;
  };

  StatStripe& StatsFor(int core, uint64_t line) {
    return core_stats_[static_cast<uint64_t>(core) * (shard_mask_ + 1) + (line & shard_mask_)];
  }

  // Shared implementation of Access and ApplyBatch: with a scratch stripe,
  // per-line stat counts accumulate there (the batch path flushes once per
  // span) instead of read-modify-writing the striped counters per line.
  template <bool kWrite>
  AccessResult AccessImpl(int core, Addr addr, uint32_t size, uint64_t now,
                          StatStripe* scratch);

  HierarchyConfig config_;
  uint32_t shard_mask_ = 0;  // num_shards-1
  uint32_t line_shift_ = 6;  // log2(line size); lines are power-of-two sized
  // Socket topology: home bits sit at [home_shift_, home_shift_+socket_bits)
  // of the line number, inside the shard width. All zero-width (mask 0,
  // shift = shard bits) on single-socket machines.
  uint32_t socket_mask_ = 0;       // num_sockets - 1
  uint32_t home_shift_ = 0;        // shard bits - socket bits
  int cores_per_socket_ = 1;

  Level l1_;
  Level l2_;

  // The L3 tag lattice. Data ways are dense per-set rows (`l3_ways_` tags,
  // one or two host cache lines) — the hot scans touch only these. The
  // compacted extension bank lives in separate side arrays (`l3_ext_ways_`
  // slots per set, the first `l3_ext_count_[set]` live), touched only when
  // a tag actually moves out of the data row. A unified slot index
  // addresses both: data way w, or l3_ways_ + ext index.
  uint32_t l3_ways_ = 0;
  uint32_t l3_ext_ways_ = 0;
  uint64_t l3_sets_ = 0;        // sets per slice (config.l3 geometry)
  uint64_t l3_total_sets_ = 0;  // l3_sets_ * num_sockets: all slices' sets
  uint64_t l3_set_mask_ = 0;    // within-slice set mask
  std::vector<uint64_t> l3_tags_;
  std::vector<uint64_t> l3_stamps_;
  std::vector<WayMeta> l3_meta_;
  std::vector<uint64_t> l3_ext_tags_;
  std::vector<uint64_t> l3_ext_stamps_;
  std::vector<WayMeta> l3_ext_meta_;
  std::vector<uint16_t> l3_ext_count_;
  std::vector<uint16_t> l3_tag_count_;  // tagged data ways per set (valid + residue)

  std::vector<StatStripe> core_stats_;  // striped: [core * num_shards + shard]
  mutable std::vector<CoreMemStats> agg_core_stats_;  // cache for core_stats()
  // Inclusion counters, striped by shard so concurrent apply workers (which
  // own disjoint shards) never write the same slot.
  std::vector<uint64_t> reclaims_per_shard_;
  std::vector<uint64_t> backinv_per_shard_;
  std::vector<uint64_t> xsocket_backinv_per_shard_;
};

}  // namespace dprof

#endif  // DPROF_SRC_SIM_HIERARCHY_H_
