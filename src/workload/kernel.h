// Shared synthetic-kernel infrastructure for the case-study workloads.
//
// This models the slice of the Linux kernel the paper's evaluation exercises:
// the network receive/transmit paths (skbuffs, packet payloads, the
// pfifo_fast Qdisc with per-core hardware queues, the shared net_device),
// sockets, the epoll/waitqueue wakeup machinery, and futexes. Function names
// match the symbols appearing in the paper's tables and figures so that the
// regenerated views read like the originals.

#ifndef DPROF_SRC_WORKLOAD_KERNEL_H_
#define DPROF_SRC_WORKLOAD_KERNEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/machine/machine.h"

namespace dprof {

// The data types the paper's tables report, registered with their simulated
// sizes (bytes).
struct KernelTypes {
  TypeId skbuff = kInvalidType;         // packet bookkeeping, 256 B
  TypeId size1024 = kInvalidType;       // packet payload ("size-1024"), 1024 B
  TypeId skbuff_fclone = kInvalidType;  // TCP clone pairs, 512 B
  TypeId udp_sock = kInvalidType;       // 1024 B
  TypeId tcp_sock = kInvalidType;       // 1600 B
  TypeId net_device = kInvalidType;     // hot part of the device struct, 128 B
  TypeId task_struct = kInvalidType;    // 2560 B
  TypeId qdisc = kInvalidType;          // 256 B
  TypeId epitem = kInvalidType;         // 128 B
  TypeId futex = kInvalidType;          // 64 B
  TypeId user_buffer = kInvalidType;    // userspace receive buffers
  TypeId mc_hashtable = kInvalidType;   // memcached hash table segment
  TypeId mmap_file = kInvalidType;      // Apache MMapFile-cached content

  static KernelTypes Register(TypeRegistry& registry);
};

// Interned FunctionIds for every kernel function the workloads execute.
struct KernelFns {
  FunctionId alloc_skb, kfree, kfree_skb, skb_put, eth_type_trans, ip_rcv;
  FunctionId udp_recvmsg, udp_sendmsg, skb_copy_datagram_iovec, copy_user_generic_string;
  FunctionId lock_sock_nested, sock_def_write_space, ep_poll_callback, sys_epoll_wait;
  FunctionId ep_scan_ready_list, wake_up_sync_key, event_handler;
  FunctionId dev_queue_xmit, skb_tx_hash, pfifo_fast_enqueue, pfifo_fast_dequeue;
  FunctionId qdisc_run, dev_hard_start_xmit, skb_dma_map, ixgbe_xmit_frame;
  FunctionId ixgbe_clean_rx_irq, ixgbe_clean_tx_irq, ixgbe_set_itr_msix, dev_kfree_skb_irq;
  FunctionId local_bh_enable, getnstimeofday, phys_addr;
  FunctionId tcp_v4_rcv, tcp_create_openreq_child, inet_csk_accept, tcp_recvmsg, tcp_sendmsg;
  FunctionId tcp_write_xmit, tcp_close, do_futex, futex_wait, futex_wake, schedule;
  FunctionId mc_process, apache_process;

  static KernelFns Intern(SymbolTable& symbols);
};

// One in-flight packet: bookkeeping skbuff plus payload buffer.
struct Packet {
  Addr skb = kNullAddr;
  Addr payload = kNullAddr;
  TypeId skb_type = kInvalidType;
  int rx_core = -1;        // core that allocated it
  uint64_t enqueue_time = 0;
};

// A pfifo_fast transmit queue bound to one hardware queue / core. The qdisc
// structure (with its embedded lock word) lives in simulated memory of type
// "Qdisc"; the lock class name matches the paper's lock-stat output.
//
// Only the owning core pops. Remote cores push: directly in direct mode, or
// into a per-sender staging lane in engine mode — staged packets are merged
// into the fifo in deterministic (enqueue-time, core) order at the epoch
// boundary (KernelEnv's epoch hook), so the queue contents never depend on
// host thread scheduling.
class TxQueue {
 public:
  TxQueue(SlabAllocator& allocator, KernelTypes types, int index, int num_cores);

  Addr base() const { return base_; }
  SimLock& lock() { return lock_; }
  bool empty() const { return fifo_.empty(); }
  size_t depth() const { return fifo_.size(); }

  void Push(CoreContext& ctx, Packet packet);
  Packet PopLocked();

  // Merges staged pushes into the fifo; engine commit thread only. An armed
  // kMailboxOverflow fault plan caps the fifo depth: packets past the cap
  // are dropped (tail drop, exactly what pfifo_fast does at qlen limit) and
  // counted — both here and on the plan — never crashed on. The merge order
  // is deterministic, so the drop set is too.
  void FlushStaged(FaultPlan* faults);

  // Packets tail-dropped by an injected mailbox cap.
  uint64_t dropped() const { return dropped_; }

 private:
  struct StagedPacket {
    Packet packet;
    uint64_t t = 0;
    int core = 0;
  };

  Addr base_ = kNullAddr;
  SimLock lock_;
  std::deque<Packet> fifo_;
  std::vector<std::vector<StagedPacket>> staged_;  // per sender core
  std::vector<StagedPacket> merge_scratch_;
  uint64_t dropped_ = 0;
};

// Shared network device state: the hot 128-byte net_device window whose
// per-transmit statistics writes make it bounce between every core. Under
// the net_device kReplicate transform the statistics area grows one private
// cache line per core (the paper's per-CPU-counter fix), so each core's
// stats writes stay on a line it owns.
class NetDevice {
 public:
  NetDevice(SlabAllocator& allocator, KernelTypes types, int num_cores);

  Addr base() const { return base_; }
  Addr stats_addr(int core) const {
    return replicated_ ? base_ + 128 + static_cast<Addr>(core) * line_size_ : base_ + 64;
  }
  Addr config_addr() const { return base_; }

 private:
  Addr base_ = kNullAddr;
  bool replicated_ = false;
  uint32_t line_size_ = 64;
};

// Per-core epoll instance: the epoll lock, the waitqueue lock, and an epitem
// object. Remote wakeups (tx completion on another core) acquire the owner's
// locks from that other core — the contention in paper Table 6.2.
struct EpollInstance {
  explicit EpollInstance(SlabAllocator& allocator, KernelTypes types, int core);

  Addr epitem_addr = kNullAddr;
  std::unique_ptr<SimLock> epoll_lock;
  std::unique_ptr<SimLock> waitqueue_lock;
};

// Everything the two case-study workloads share. Registers itself as an
// epoch hook so transmit-queue mailboxes flush at engine epoch boundaries.
class KernelEnv final : public EpochHook {
 public:
  KernelEnv(Machine* machine, SlabAllocator* allocator);
  ~KernelEnv() override;

  // EpochHook:
  void OnEpochCommit(uint64_t now) override;

  Machine& machine() { return *machine_; }
  SlabAllocator& allocator() { return *allocator_; }
  const KernelTypes& types() const { return types_; }
  const KernelFns& fns() const { return fns_; }

  NetDevice& netdev() { return *netdev_; }
  TxQueue& tx_queue(int index) { return *tx_queues_[index]; }
  int num_tx_queues() const { return static_cast<int>(tx_queues_.size()); }
  EpollInstance& epoll(int core) { return *epolls_[core]; }

  // Global futex hash-bucket locks (kernel-wide, so different cores' futexes
  // collide on buckets — paper Table 6.6).
  SimLock& futex_bucket(int index) { return *futex_buckets_[index % futex_buckets_.size()]; }
  Addr futex_obj(int core) const { return futex_objs_[core]; }

  Addr user_buffer(int core) const { return user_buffers_[core]; }
  Addr hashtable(int core) const { return hashtables_[core]; }
  uint32_t hashtable_size() const { return kHashtableBytes; }
  Addr mmap_file(int core) const { return mmap_files_[core]; }

 private:
  static constexpr uint32_t kHashtableBytes = 256 * 1024;
  // Userspace memory lives outside the kernel allocator's pages: DProf's
  // resolver cannot type it (the paper's tool types kernel objects only).
  static constexpr Addr kUserSpaceBase = 0x7f0000000000ull;

  Addr AllocUserRegion(uint32_t size);
  Addr user_bump_ = kUserSpaceBase;

  Machine* machine_;
  SlabAllocator* allocator_;
  KernelTypes types_;
  KernelFns fns_;

  std::unique_ptr<NetDevice> netdev_;
  std::vector<std::unique_ptr<TxQueue>> tx_queues_;
  std::vector<std::unique_ptr<EpollInstance>> epolls_;
  std::vector<std::unique_ptr<SimLock>> futex_buckets_;
  std::vector<Addr> futex_objs_;
  std::vector<Addr> user_buffers_;
  std::vector<Addr> hashtables_;
  std::vector<Addr> mmap_files_;
};

// Base class for installable workloads.
class Workload {
 public:
  virtual ~Workload() = default;

  // Registers this workload's per-core drivers with the machine.
  virtual void Install(Machine& machine) = 0;

  virtual uint64_t CompletedRequests() const = 0;
  virtual void ResetStats() = 0;
};

// Requests per simulated second.
double ThroughputRps(uint64_t requests, uint64_t elapsed_cycles);

// Warms an installed `workload` for `warm` cycles, then returns its
// throughput over the next `measure` cycles. Runs on whatever executor is
// attached to `machine` (none: the direct loop).
double SteadyStateRps(Machine& machine, Workload& workload, uint64_t warm, uint64_t measure);

}  // namespace dprof

#endif  // DPROF_SRC_WORKLOAD_KERNEL_H_
