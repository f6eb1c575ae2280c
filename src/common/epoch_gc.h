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
// Retire side. Each registered thread owns a private limbo list of
// intrusive `GarbageNode`s (one small node per retirement; no per-item
// allocation beyond it). A retiring thread stamps the node with the
// current global epoch and appends it to its own list; since the global
// epoch only grows, each list is sorted by epoch and a pass drains a
// prefix. Both a count watermark and a bytes watermark
// (`Retire(ptr, bytes)`) make the retiring thread collect, so retired
// memory is bounded even with no owner pass: when retirements are few
// but huge (a resize retiring a whole structure) or many but tiny
// (BwTree deltas).
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
// Threads and slots. Slots live in pointer-stable chunks; registration
// beyond the preallocated capacity grows the chunk table (no abort, no
// slot ever moves). A thread's slot is cached thread_local per
// (thread, GC instance) and recycled on thread exit; pending garbage in a
// recycled slot is still epoch-ordered because append order follows the
// monotone global epoch. Finding the cached slot takes no lock: only
// registration (a cache miss) and thread exit consult the process-wide
// liveness set, so a pin stays a cache walk, a load and a store even
// for a thread that works on many GC instances (a sharded fleet).
//
// Knobs: EpochGC::Options (slots preallocated, and the per-thread count
// and byte watermarks that make a retirement collect inline). How often
// the owner collects is the owner's choice.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace cpma {

class EpochGC;

/// One retired object: intrusive singly-linked node, stamped with the
/// epoch current at retirement. `free_fn(object)` releases the object.
struct GarbageNode {
  uint64_t epoch;
  size_t bytes;
  void (*free_fn)(void*);
  void* object;
  GarbageNode* next;
};

/// Per-thread registration slot. The epoch word readers publish into sits
/// alone on its own cacheline (no false sharing between client threads,
/// and the owner's limbo-list traffic never dirties the line a pass
/// scans). The limbo list is owner-appended / pass-drained under a
/// per-slot mutex that is uncontended in steady state.
struct alignas(64) EpochSlot {
  // kIdle when the thread is not inside an operation.
  static constexpr uint64_t kIdle = UINT64_MAX;
  alignas(64) std::atomic<uint64_t> epoch{kIdle};
  std::atomic<bool> in_use{false};

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
  struct Options {
    /// Slots preallocated at construction; registration beyond this grows
    /// chunk-by-chunk (pointer-stable) instead of aborting.
    size_t initial_threads = 64;
    /// Per-thread pending retirements that trigger advance + collect.
    size_t count_watermark = 512;
    /// Per-thread pending retired bytes that trigger advance + collect.
    size_t bytes_watermark = size_t{8} << 20;  // 8 MiB
  };

  /// Zero watermarks are clamped to 1.
  explicit EpochGC(const Options& opts);
  EpochGC() : EpochGC(Options{}) {}
  ~EpochGC();

  EpochGC(const EpochGC&) = delete;
  EpochGC& operator=(const EpochGC&) = delete;

  /// True iff `gc` still exists *and* is the same instance (a new GC can
  /// be allocated at a recycled address; the id disambiguates). Used by
  /// thread-local slot caches that may outlive the GC.
  static bool IsAlive(EpochGC* gc, uint64_t instance_id);

  uint64_t instance_id() const { return instance_id_; }

  /// Acquire a slot for the calling thread. Threads keep their slot for
  /// their lifetime (thread_local caching via LocalSlot). Never aborts:
  /// slot storage grows in pointer-stable chunks on demand.
  EpochSlot* RegisterThread();

  /// Release a slot for reuse. Pending garbage in its limbo list stays
  /// and is drained by later passes as epochs pass.
  void UnregisterThread(EpochSlot* slot) {
    slot->epoch.store(EpochSlot::kIdle, std::memory_order_release);
    slot->in_use.store(false, std::memory_order_release);
  }

  /// The calling thread's cached slot for this GC (registering on first
  /// use). Shared by EpochGuard and Retire so a thread occupies one slot.
  /// A hit takes no lock: the lookup compares (address, instance id)
  /// pairs, and the id keeps a new GC at a recycled address apart from
  /// the dead one, so a matching entry is this live instance. Only a
  /// miss — registration — consults the process-wide liveness set, to
  /// purge the entries of dead instances before adding this one.
  EpochSlot* LocalSlot() {
    struct Entry {
      EpochGC* gc;
      uint64_t instance_id;
      EpochSlot* slot;
    };
    // One cached slot per (thread, GC instance). A thread uses at most a
    // handful of GC instances (one per data structure), so a tiny linear
    // cache suffices and avoids unordered_map in the hot path.
    struct Cache {
      std::vector<Entry> entries;
      ~Cache() {
        for (auto& e : entries) {
          if (EpochGC::IsAlive(e.gc, e.instance_id)) {
            e.gc->UnregisterThread(e.slot);
          }
        }
      }
    };
    thread_local Cache cache;
    for (const Entry& e : cache.entries) {
      if (e.gc == this && e.instance_id == instance_id_) return e.slot;
    }
    // Miss: drop the entries whose GC died (their slot storage is gone).
    auto& entries = cache.entries;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [](const Entry& e) {
                                   return !IsAlive(e.gc, e.instance_id);
                                 }),
                  entries.end());
    EpochSlot* slot = RegisterThread();
    entries.push_back({this, instance_id_, slot});
    return slot;
  }

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

  /// One pass: advance + drain every per-thread limbo prefix older than
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
  // moved, so EpochSlot* stays valid across growth (satellite of ISSUE 6:
  // replaces the fixed-capacity abort).
  static constexpr size_t kSlotsPerChunk = 32;
  static constexpr size_t kMaxChunks = 1024;  // 32768 threads
  struct SlotChunk {
    EpochSlot slots[kSlotsPerChunk];
  };

  static std::mutex& AliveMutex();
  static std::vector<EpochGC*>& AliveSet();
  static uint64_t NextInstanceId();

  /// True when membarrier(PRIVATE_EXPEDITED) registered successfully at
  /// process start: readers publish with plain release stores and each
  /// pass runs the heavy fence. Written once before main.
  static const bool kAsymmetricFence;
  /// membarrier(PRIVATE_EXPEDITED) when available, else a seq_cst fence.
  static void HeavyFence();

  void RetireImpl(void (*free_fn)(void*), void* object, size_t bytes);
  /// Free a detached garbage list and account for it in the stats.
  size_t FreeDetached(GarbageNode* head);
  EpochSlot* TryClaimSlot();

  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    const size_t n = num_chunks_.load(std::memory_order_acquire);
    for (size_t c = 0; c < n; ++c) {
      SlotChunk* chunk = chunks_[c].load(std::memory_order_acquire);
      for (auto& s : chunk->slots) fn(s);
    }
  }

  const uint64_t instance_id_;
  Options opts_;

  std::atomic<uint64_t> global_epoch_{1};

  std::atomic<SlotChunk*> chunks_[kMaxChunks] = {};
  std::atomic<size_t> num_chunks_{0};
  std::mutex grow_mu_;

  // Degradation reserve for RegisterThread: when growing the chunk table
  // fails (real bad_alloc or the epoch_gc.slot_chunk failpoint), this
  // embedded chunk is installed instead so registration still succeeds
  // once under memory pressure; after that, registration waits for a
  // recycled slot rather than aborting. Must not be delete'd (~EpochGC).
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
