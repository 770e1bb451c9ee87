#include "src/workload/kernel.h"

#include <algorithm>

#include "src/machine/faults.h"

namespace dprof {

KernelTypes KernelTypes::Register(TypeRegistry& registry) {
  KernelTypes t;
  t.skbuff = registry.Register("skbuff", 256);
  t.size1024 = registry.Register("size-1024", 1024);
  t.skbuff_fclone = registry.Register("skbuff_fclone", 512);
  t.udp_sock = registry.Register("udp_sock", 1024);
  t.tcp_sock = registry.Register("tcp_sock", 1600);
  t.net_device = registry.Register("net_device", 128);
  t.task_struct = registry.Register("task_struct", 2560);
  t.qdisc = registry.Register("Qdisc", 256);
  t.epitem = registry.Register("epitem", 128);
  t.futex = registry.Register("futex", 64);
  t.user_buffer = registry.Register("user_buffer", 2048);
  t.mc_hashtable = registry.Register("mc_hashtable", 256 * 1024);
  t.mmap_file = registry.Register("mmap_file", 4096);
  return t;
}

KernelFns KernelFns::Intern(SymbolTable& sym) {
  KernelFns f;
  f.alloc_skb = sym.Intern("__alloc_skb");
  f.kfree = sym.Intern("kfree");
  f.kfree_skb = sym.Intern("__kfree_skb");
  f.skb_put = sym.Intern("skb_put");
  f.eth_type_trans = sym.Intern("eth_type_trans");
  f.ip_rcv = sym.Intern("ip_rcv");
  f.udp_recvmsg = sym.Intern("udp_recvmsg");
  f.udp_sendmsg = sym.Intern("udp_sendmsg");
  f.skb_copy_datagram_iovec = sym.Intern("skb_copy_datagram_iovec");
  f.copy_user_generic_string = sym.Intern("copy_user_generic_string");
  f.lock_sock_nested = sym.Intern("lock_sock_nested");
  f.sock_def_write_space = sym.Intern("sock_def_write_space");
  f.ep_poll_callback = sym.Intern("ep_poll_callback");
  f.sys_epoll_wait = sym.Intern("sys_epoll_wait");
  f.ep_scan_ready_list = sym.Intern("ep_scan_ready_list");
  f.wake_up_sync_key = sym.Intern("__wake_up_sync_key");
  f.event_handler = sym.Intern("event_handler");
  f.dev_queue_xmit = sym.Intern("dev_queue_xmit");
  f.skb_tx_hash = sym.Intern("skb_tx_hash");
  f.pfifo_fast_enqueue = sym.Intern("pfifo_fast_enqueue");
  f.pfifo_fast_dequeue = sym.Intern("pfifo_fast_dequeue");
  f.qdisc_run = sym.Intern("__qdisc_run");
  f.dev_hard_start_xmit = sym.Intern("dev_hard_start_xmit");
  f.skb_dma_map = sym.Intern("skb_dma_map");
  f.ixgbe_xmit_frame = sym.Intern("ixgbe_xmit_frame");
  f.ixgbe_clean_rx_irq = sym.Intern("ixgbe_clean_rx_irq");
  f.ixgbe_clean_tx_irq = sym.Intern("ixgbe_clean_tx_irq");
  f.ixgbe_set_itr_msix = sym.Intern("ixgbe_set_itr_msix");
  f.dev_kfree_skb_irq = sym.Intern("dev_kfree_skb_irq");
  f.local_bh_enable = sym.Intern("local_bh_enable");
  f.getnstimeofday = sym.Intern("getnstimeofday");
  f.phys_addr = sym.Intern("__phys_addr");
  f.tcp_v4_rcv = sym.Intern("tcp_v4_rcv");
  f.tcp_create_openreq_child = sym.Intern("tcp_create_openreq_child");
  f.inet_csk_accept = sym.Intern("inet_csk_accept");
  f.tcp_recvmsg = sym.Intern("tcp_recvmsg");
  f.tcp_sendmsg = sym.Intern("tcp_sendmsg");
  f.tcp_write_xmit = sym.Intern("tcp_write_xmit");
  f.tcp_close = sym.Intern("tcp_close");
  f.do_futex = sym.Intern("do_futex");
  f.futex_wait = sym.Intern("futex_wait");
  f.futex_wake = sym.Intern("futex_wake");
  f.schedule = sym.Intern("schedule");
  f.mc_process = sym.Intern("memcached_process");
  f.apache_process = sym.Intern("apache_process");
  return f;
}

TxQueue::TxQueue(SlabAllocator& allocator, KernelTypes types, int index, int num_cores)
    : base_(allocator.RegisterStatic(types.qdisc, 256)),
      lock_("Qdisc lock", base_ + 8),
      staged_(static_cast<size_t>(num_cores)) {
  (void)index;
}

void TxQueue::Push(CoreContext& ctx, Packet packet) {
  if (ctx.recording()) {
    staged_[ctx.core()].push_back(StagedPacket{packet, ctx.now(), ctx.core()});
    return;
  }
  // Direct mode applies the injected mailbox cap at push time (there is no
  // staging); the engine path applies it in FlushStaged.
  FaultPlan* const faults = ctx.machine().fault_plan();
  if (faults != nullptr && fifo_.size() >= faults->MailboxCap()) {
    ++dropped_;
    faults->NoteMailboxDrop();
    return;
  }
  fifo_.push_back(packet);
}

void TxQueue::FlushStaged(FaultPlan* faults) {
  merge_scratch_.clear();
  for (std::vector<StagedPacket>& lane : staged_) {
    merge_scratch_.insert(merge_scratch_.end(), lane.begin(), lane.end());
    lane.clear();
  }
  if (merge_scratch_.empty()) {
    return;
  }
  // Stable: same-core packets keep their program order.
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const StagedPacket& a, const StagedPacket& b) {
                     return a.t != b.t ? a.t < b.t : a.core < b.core;
                   });
  const size_t cap = faults != nullptr ? faults->MailboxCap() : ~size_t{0};
  for (const StagedPacket& staged : merge_scratch_) {
    if (fifo_.size() >= cap) {
      ++dropped_;
      faults->NoteMailboxDrop();
      continue;
    }
    fifo_.push_back(staged.packet);
  }
}

Packet TxQueue::PopLocked() {
  DPROF_CHECK(!fifo_.empty());
  Packet p = fifo_.front();
  fifo_.pop_front();
  return p;
}

NetDevice::NetDevice(SlabAllocator& allocator, KernelTypes types, int num_cores)
    : replicated_(allocator.HasTransform(types.net_device, TypeTransformKind::kReplicate)),
      line_size_(allocator.line_size()) {
  const uint32_t size =
      replicated_ ? 128 + static_cast<uint32_t>(num_cores) * line_size_ : 128;
  base_ = allocator.RegisterStatic(types.net_device, size);
}

EpollInstance::EpollInstance(SlabAllocator& allocator, KernelTypes types, int core) {
  epitem_addr = allocator.RegisterStatic(types.epitem, 128);
  epoll_lock = std::make_unique<SimLock>("epoll lock", epitem_addr + 0);
  waitqueue_lock = std::make_unique<SimLock>("wait queue", epitem_addr + 64);
  (void)core;
}

KernelEnv::KernelEnv(Machine* machine, SlabAllocator* allocator)
    : machine_(machine),
      allocator_(allocator),
      types_(KernelTypes::Register(allocator->registry())),
      fns_(KernelFns::Intern(machine->symbols())) {
  const int cores = machine_->num_cores();
  netdev_ = std::make_unique<NetDevice>(*allocator_, types_, cores);
  tx_queues_.reserve(cores);
  epolls_.reserve(cores);
  for (int c = 0; c < cores; ++c) {
    tx_queues_.push_back(std::make_unique<TxQueue>(*allocator_, types_, c, cores));
    epolls_.push_back(std::make_unique<EpollInstance>(*allocator_, types_, c));
    futex_objs_.push_back(allocator_->RegisterStatic(types_.futex, 64));
    user_buffers_.push_back(AllocUserRegion(2048));
    hashtables_.push_back(AllocUserRegion(kHashtableBytes));
    mmap_files_.push_back(AllocUserRegion(4096));
  }
  // Eight global futex hash buckets: with 16 cores, pairs of cores share a
  // bucket, producing occasional cross-core futex contention.
  for (int b = 0; b < 8; ++b) {
    const Addr word = allocator_->RegisterStatic(types_.futex, 64);
    futex_buckets_.push_back(std::make_unique<SimLock>("futex lock", word));
  }
  // Packets (skbuff bookkeeping + payload buffers) travel through the
  // transmit-queue mailboxes, whose staged pushes only flush at epoch
  // boundaries: studying these types warrants tight epochs.
  machine_->NoteMailboxFedType(types_.skbuff);
  machine_->NoteMailboxFedType(types_.skbuff_fclone);
  machine_->NoteMailboxFedType(types_.size1024);
  machine_->AddEpochHook(this);
}

KernelEnv::~KernelEnv() { machine_->RemoveEpochHook(this); }

void KernelEnv::OnEpochCommit(uint64_t now) {
  (void)now;
  for (auto& queue : tx_queues_) {
    queue->FlushStaged(machine_->fault_plan());
  }
}

Addr KernelEnv::AllocUserRegion(uint32_t size) {
  const Addr base = user_bump_;
  // Page-align each region.
  user_bump_ += (static_cast<Addr>(size) + 4095) & ~4095ull;
  return base;
}

double ThroughputRps(uint64_t requests, uint64_t elapsed_cycles) {
  if (elapsed_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(requests) /
         (static_cast<double>(elapsed_cycles) / kCyclesPerSecond);
}

double SteadyStateRps(Machine& machine, Workload& workload, uint64_t warm, uint64_t measure) {
  machine.RunFor(warm);
  workload.ResetStats();
  const uint64_t start = machine.MaxClock();
  machine.RunFor(measure);
  return ThroughputRps(workload.CompletedRequests(), machine.MaxClock() - start);
}

}  // namespace dprof
