// Epoch-based reclamation (paper §3.4). Passive: an EpochGC starts no
// thread. The paper's "background thread, the garbage collector" is a
// duty of the owner here, as in libnvram, whose caller runs
// EpochScan/EpochFlush: ConcurrentPMA's rebalancer master runs Collect()
// while garbage is pending (concurrent/rebalancer.h), and a retirement
// that crosses a watermark collects inline on the retiring thread. With
// nothing pending, nothing runs: no pass, no membarrier.
//
// Protocol — observe, don't advance. A client thread entering a logical
// operation *observes* the global epoch and publishes it into its own
// cache-line-aligned slot:
//
//   Enter:  e = global_epoch.load(acquire)
//           slot->epoch.store(e, release)     // private cacheline
//   Exit:   slot->epoch.store(kIdle, release)
//
// Unlike the earlier design (global fetch_add per Enter), the read path
// performs ZERO atomic read-modify-writes on shared cachelines — and,
// when the kernel provides membarrier(PRIVATE_EXPEDITED), zero fences:
// the only store lands on the thread's own slot line with plain release
// ordering, so a lookup's epoch pin costs a load and a store. Concurrent
// readers never bounce a shared line between cores. Epoch advancement is
// decoupled from the operation path: `TryAdvanceEpoch` CASes global
// E -> E+1 only when every active slot has caught up to E (bounding
// reader skew to one epoch), and is driven by Collect() passes — the
// owner's and the watermark crossings' — never by readers.
//
// Retire side. Each slot owns a private limbo list of intrusive
// `GarbageNode`s (one small node per retirement; no per-item allocation
// beyond it). A retiring thread stamps the node with the current global
// epoch and appends it to its own slot's list; since the global epoch
// only grows, each list is sorted by epoch and a pass drains a prefix.
// Both a count watermark and a bytes watermark (`Retire(ptr, bytes)`)
// make the retiring thread collect, so retired memory is bounded even
// with no owner pass: when retirements are few but huge (a resize
// retiring a whole structure) or many but tiny (BwTree deltas).
//
// Reclamation safety — the memory-ordering argument. Garbage stamped with
// epoch `e` is freed only when `min_active > e`, where `min_active` is
// the minimum over the global epoch and every non-idle slot epoch, and
// each Collect() pass executes a HEAVY fence before scanning slots.
// Consider a reader R and an unlinking writer W racing on object O,
// and a pass C on any thread:
//
//   R: slot.store(e, release);  ... p = load pointer to O ...
//   W: unlink O; fence(seq_cst); stamp = global.load(seq_cst); retire(O)
//   C: HeavyFence(); scan slots; free O if stamp < min_active
//
// The heavy fence is the asymmetric-barrier trick (hazard pointers, RCU:
// Linux membarrier(PRIVATE_EXPEDITED) interrupts every running thread of
// the process with a full barrier). When it returns, each reader thread
// has either (a) made its slot store visible — the scan sees the pin at
// epoch e, and O (stamped >= e) survives while R runs — or (b) not yet
// executed the publish, in which case R's subsequent pointer load is
// ordered after the barrier, hence after W's unlink (which was globally
// visible before C reached the fence: W's retire and C's drain
// synchronize on the slot's limbo mutex), so R reads the new pointer and
// never dereferences O. Either way no freed memory is reachable. The
// reader pays nothing; a pass pays one syscall. Where membarrier is
// unavailable, Enter falls back to a seq_cst publish and a pass to a
// seq_cst fence, and the same argument runs through the seq_cst total
// order S. Because `TryAdvanceEpoch` only moves E -> E+1 when every
// active slot is at E, a reader pinned at e keeps `min_active == e` and
// wedges nothing newer: garbage stamped < e still drains, and garbage
// stamped >= e drains at the first pass after the reader exits.
//
// Threads and slots. A slot number (SlotIndex) is process-wide: each
// thread takes the lowest free number the first time it needs one (its
// first pin, say) and holds it until it exits, and an open snapshot
// holds one more for its dedicated pin. Every EpochGC keeps the slot of number i at position i of a
// table of pointer-stable chunks, so finding the calling thread's slot
// is one thread_local read and an index, with no per-instance cache and
// no lock, however many GC instances the thread works on (a sharded
// fleet has one per shard). The first use of a number past the table
// grows it (no abort, no slot ever moves). A released number passes,
// with its slots' pending garbage, to the next holder; that garbage is
// still epoch-ordered because append order follows the monotone global
// epoch.
//
// Constants: kCountWatermark and kBytesWatermark, the per-slot pending
// retirements and bytes that make a retirement collect inline. How
// often the owner collects is the owner's choice.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>

#include "common/status.h"

namespace cpma {

/// A recycled process-wide slot number: the holder's index into every
/// EpochGC's slot table. The constructor takes the lowest free number
/// (waiting while all kMax are held) and the destructor gives it back.
class SlotIndex {
 public:
  /// Numbers held at once; EpochGC sizes its chunk table to match.
  static constexpr size_t kMax = 32768;

  SlotIndex();
  ~SlotIndex();

  SlotIndex(const SlotIndex&) = delete;
  SlotIndex& operator=(const SlotIndex&) = delete;

  size_t value() const { return value_; }

  /// The calling thread's number: taken at its first call, held until
  /// the thread exits.
  static size_t OfThisThread() {
    thread_local const SlotIndex mine;
    return mine.value_;
  }

 private:
  const size_t value_;
};

/// One retired object: intrusive singly-linked node, stamped with the
/// epoch current at retirement. `free_fn(object)` releases the object.
struct GarbageNode {
  uint64_t epoch;
  size_t bytes;
  void (*free_fn)(void*);
  void* object;
  GarbageNode* next;
};

/// The slot of one slot number. The epoch word readers publish into sits
/// alone on its own cacheline (no false sharing between client threads,
/// and the owner's limbo-list traffic never dirties the line a pass
/// scans). The limbo list is owner-appended / pass-drained under a
/// per-slot mutex that is uncontended in steady state.
struct alignas(64) EpochSlot {
  // kIdle when the thread is not inside an operation.
  static constexpr uint64_t kIdle = UINT64_MAX;
  alignas(64) std::atomic<uint64_t> epoch{kIdle};

  alignas(64) std::mutex limbo_mu;
  GarbageNode* limbo_head = nullptr;
  GarbageNode* limbo_tail = nullptr;
  size_t limbo_count = 0;
  size_t limbo_bytes = 0;
};

/// Counters surfaced through ConcurrentPMA::ebr_stats() into bench JSON
/// and the nightly soak artifact. All values are monotonically increasing
/// except pending_count/pending_bytes (current) and global_epoch.
struct EpochGCStats {
  uint64_t pending_count = 0;       // retired, not yet freed
  uint64_t pending_bytes = 0;       // bytes retired, not yet freed
  uint64_t retired_count = 0;       // total Retire() calls
  uint64_t retired_bytes = 0;       // total bytes ever retired
  uint64_t retired_bytes_hwm = 0;   // high-water mark of pending_bytes
  uint64_t freed_count = 0;         // nodes reclaimed
  uint64_t freed_bytes = 0;         // bytes reclaimed
  uint64_t epoch_advances = 0;      // successful TryAdvanceEpoch CASes
  uint64_t collections = 0;         // Collect() passes
  uint64_t global_epoch = 0;        // current epoch
};

class EpochGC {
 public:
  /// Pending retirements of one slot that make a retirement collect.
  static constexpr size_t kCountWatermark = 512;
  /// Pending retired bytes of one slot that make a retirement collect.
  static constexpr size_t kBytesWatermark = size_t{8} << 20;  // 8 MiB

  EpochGC();
  ~EpochGC();

  EpochGC(const EpochGC&) = delete;
  EpochGC& operator=(const EpochGC&) = delete;

  /// The slot of number `i` (a SlotIndex value), the same one for as
  /// long as this GC lives. The first use of a number past the table
  /// grows it; that never aborts (see Grow).
  EpochSlot* SlotAt(size_t i) {
    const size_t c = i / kSlotsPerChunk;
    if (c >= num_chunks_.load(std::memory_order_acquire)) Grow(c);
    return &chunks_[c].load(std::memory_order_acquire)
                ->slots[i % kSlotsPerChunk];
  }

  /// The calling thread's slot, shared by EpochGuard and Retire.
  EpochSlot* LocalSlot() { return SlotAt(SlotIndex::OfThisThread()); }

  /// Observe the current epoch and publish it in the slot: one load plus
  /// one release store to the thread's own cacheline — no shared-line
  /// RMW, and no fence when a pass's membarrier discharges the ordering
  /// (see the protocol comment; without membarrier the publish must be
  /// seq_cst so the pass's plain fence orders against it).
  uint64_t Enter(EpochSlot* slot) {
    const uint64_t e = global_epoch_.load(std::memory_order_acquire);
    if (kAsymmetricFence) {
      slot->epoch.store(e, std::memory_order_release);
    } else {
      slot->epoch.store(e, std::memory_order_seq_cst);
    }
    return e;
  }

  void Exit(EpochSlot* slot) {
    slot->epoch.store(EpochSlot::kIdle, std::memory_order_release);
  }

  /// Retire a heap object for `delete` once no client can still hold a
  /// reference. `bytes` feeds the bytes watermark; pass a better estimate
  /// than sizeof(T) when the object owns external memory. A retirement
  /// that crosses a watermark runs Collect() on the calling thread.
  template <typename T>
  void Retire(T* ptr, size_t bytes = sizeof(T)) {
    static_assert(!std::is_void<T>::value,
                  "use Retire(free_fn, object, bytes) for void*");
    RetireImpl([](void* p) { delete static_cast<T*>(p); }, ptr, bytes);
  }

  /// Retire with an explicit non-capturing free function (type-erased
  /// call sites, e.g. delta-chain walkers).
  void Retire(void (*free_fn)(void*), void* object, size_t bytes) {
    RetireImpl(free_fn, object, bytes);
  }

  /// One pass: advance + drain every slot's limbo prefix older than
  /// the min active epoch. Never waits for a reader. Safe on any thread,
  /// concurrently with other passes. Returns the number of items freed.
  size_t Collect();

  /// Free everything unconditionally (destruction path).
  size_t CollectAll();

  /// CAS global E -> E+1 iff every active slot has observed E. Returns
  /// true on a successful advance.
  bool TryAdvanceEpoch();

  size_t PendingGarbage() const {
    return pending_count_.load(std::memory_order_relaxed);
  }

  EpochGCStats Stats() const;

  uint64_t MinActiveEpoch() const;

 private:
  // Slots live in fixed-size chunks that are allocated once and never
  // moved, so EpochSlot* stays valid across growth.
  static constexpr size_t kSlotsPerChunk = 32;
  static constexpr size_t kMaxChunks = SlotIndex::kMax / kSlotsPerChunk;
  struct SlotChunk {
    EpochSlot slots[kSlotsPerChunk];
  };

  /// True when membarrier(PRIVATE_EXPEDITED) registered successfully at
  /// process start: readers publish with plain release stores and each
  /// pass runs the heavy fence. Written once before main.
  static const bool kAsymmetricFence;
  /// membarrier(PRIVATE_EXPEDITED) when available, else a seq_cst fence.
  static void HeavyFence();

  void RetireImpl(void (*free_fn)(void*), void* object, size_t bytes);
  /// Free a detached garbage list and account for it in the stats.
  size_t FreeDetached(GarbageNode* head);
  /// Install chunks up to and including `chunk`.
  void Grow(size_t chunk);

  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    const size_t n = num_chunks_.load(std::memory_order_acquire);
    for (size_t c = 0; c < n; ++c) {
      SlotChunk* chunk = chunks_[c].load(std::memory_order_acquire);
      for (auto& s : chunk->slots) fn(s);
    }
  }

  std::atomic<uint64_t> global_epoch_{1};

  std::atomic<SlotChunk*> chunks_[kMaxChunks] = {};
  std::atomic<size_t> num_chunks_{0};
  std::mutex grow_mu_;

  // Degradation reserve for Grow: when allocating a chunk fails (real
  // bad_alloc or the epoch_gc.slot_chunk failpoint), this embedded chunk
  // is installed instead, once; after that, Grow waits and retries the
  // allocation rather than aborting. Must not be delete'd (~EpochGC).
  SlotChunk emergency_chunk_;
  bool emergency_chunk_used_ = false;  // guarded by grow_mu_

  // Aggregate stats (per-slot pending counts are also tracked here so
  // Stats() needs no slot walk).
  std::atomic<uint64_t> pending_count_{0};
  std::atomic<uint64_t> pending_bytes_{0};
  std::atomic<uint64_t> pending_bytes_hwm_{0};
  std::atomic<uint64_t> retired_count_{0};
  std::atomic<uint64_t> retired_bytes_{0};
  std::atomic<uint64_t> freed_count_{0};
  std::atomic<uint64_t> freed_bytes_{0};
  std::atomic<uint64_t> epoch_advances_{0};
  std::atomic<uint64_t> collections_{0};
};

/// RAII epoch scope for one logical operation.
class EpochGuard {
 public:
  explicit EpochGuard(EpochGC& gc) : gc_(gc), slot_(gc.LocalSlot()) {
    gc_.Enter(slot_);
  }
  ~EpochGuard() { gc_.Exit(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

  /// Re-enter a fresh epoch mid-operation (after detecting a resize the
  /// client "restarts its operation after having entered in a new epoch").
  void Refresh() {
    gc_.Exit(slot_);
    gc_.Enter(slot_);
  }

 private:
  EpochGC& gc_;
  EpochSlot* slot_;
};

}  // namespace cpma
