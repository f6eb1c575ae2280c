#include "common/epoch_gc.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <new>
#include <queue>
#include <thread>
#include <vector>

#include "common/failpoint.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace cpma {

namespace {

// Asymmetric heavy fence (hazard-pointer / RCU style): registering for
// membarrier(PRIVATE_EXPEDITED) lets a Collect() pass interrupt every
// running thread of the process with a full barrier, so readers can
// publish their epoch pins with plain release stores instead of paying
// a seq_cst fence per operation. Values from <linux/membarrier.h>,
// spelled out so the build needs no kernel headers.
#if defined(__linux__) && defined(__NR_membarrier)
constexpr int kMembarrierRegisterPrivateExpedited = 1 << 4;
constexpr int kMembarrierPrivateExpedited = 1 << 3;

bool RegisterAsymmetricFence() {
  return syscall(__NR_membarrier, kMembarrierRegisterPrivateExpedited, 0,
                 0) == 0;
}
#else
bool RegisterAsymmetricFence() { return false; }
#endif

// The free numbers, lowest first, so numbers stay dense and a released
// one is the next one handed out. Leaked on purpose: a thread that exits
// after static destruction still gives its number back.
struct SlotIndexPool {
  std::mutex mu;
  std::condition_variable released;
  std::priority_queue<size_t, std::vector<size_t>, std::greater<size_t>>
      free;
  size_t next = 0;  // numbers below it have been handed out
};

SlotIndexPool& ThePool() {
  static SlotIndexPool* pool = new SlotIndexPool();
  return *pool;
}

size_t TakeSlotIndex() {
  SlotIndexPool& pool = ThePool();
  std::unique_lock<std::mutex> lk(pool.mu);
  pool.released.wait(lk, [&] {
    return !pool.free.empty() || pool.next < SlotIndex::kMax;
  });
  if (pool.free.empty()) return pool.next++;
  const size_t i = pool.free.top();
  pool.free.pop();
  return i;
}

}  // namespace

const bool EpochGC::kAsymmetricFence = RegisterAsymmetricFence();

void EpochGC::HeavyFence() {
#if defined(__linux__) && defined(__NR_membarrier)
  if (kAsymmetricFence) {
    if (syscall(__NR_membarrier, kMembarrierPrivateExpedited, 0, 0) == 0) {
      return;
    }
  }
#endif
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

SlotIndex::SlotIndex() : value_(TakeSlotIndex()) {}

SlotIndex::~SlotIndex() {
  SlotIndexPool& pool = ThePool();
  {
    std::lock_guard<std::mutex> g(pool.mu);
    pool.free.push(value_);
  }
  pool.released.notify_one();
}

EpochGC::EpochGC() {
  chunks_[0].store(new SlotChunk(), std::memory_order_relaxed);
  num_chunks_.store(1, std::memory_order_release);
}

EpochGC::~EpochGC() {
  // Free everything left; no clients may be active at destruction.
  CollectAll();
  const size_t n = num_chunks_.load(std::memory_order_acquire);
  for (size_t c = 0; c < n; ++c) {
    SlotChunk* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk != &emergency_chunk_) delete chunk;
  }
}

void EpochGC::Grow(size_t chunk) {
  std::lock_guard<std::mutex> g(grow_mu_);
  // Another thread may have grown the table while we waited for the lock.
  for (size_t n = num_chunks_.load(std::memory_order_relaxed); n <= chunk;
       ++n) {
    SlotChunk* fresh = nullptr;
    for (;;) {
      if (!CPMA_FAILPOINT("epoch_gc.slot_chunk")) {
        fresh = new (std::nothrow) SlotChunk();
      }
      if (fresh == nullptr && !emergency_chunk_used_) {
        // Allocation failed (real bad_alloc or injected fault): install
        // the embedded reserve so this number's slot exists under memory
        // pressure.
        std::fprintf(stderr,
                     "cpma: EpochGC slot-chunk allocation failed; "
                     "installing emergency reserve chunk\n");
        fresh = &emergency_chunk_;
        emergency_chunk_used_ = true;
      }
      if (fresh != nullptr) break;
      // The reserve is spent: wait for memory and retry rather than
      // abort. Growth is a slow path (a number's first use in this GC),
      // and the process staying up beats a crash.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    chunks_[n].store(fresh, std::memory_order_release);
    num_chunks_.store(n + 1, std::memory_order_release);
  }
}

void EpochGC::RetireImpl(void (*free_fn)(void*), void* object, size_t bytes) {
  EpochSlot* slot = LocalSlot();
  auto* node = new GarbageNode;
  node->bytes = bytes;
  node->free_fn = free_fn;
  node->object = object;
  node->next = nullptr;
  // The fence orders the caller's unlink (making `object` unreachable)
  // before the epoch stamp: any reader that misses the unlink must have
  // published a slot epoch <= the stamp (see header protocol comment).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  node->epoch = global_epoch_.load(std::memory_order_seq_cst);

  size_t local_count, local_bytes;
  {
    std::lock_guard<std::mutex> g(slot->limbo_mu);
    if (slot->limbo_tail != nullptr) {
      slot->limbo_tail->next = node;
    } else {
      slot->limbo_head = node;
    }
    slot->limbo_tail = node;
    local_count = ++slot->limbo_count;
    local_bytes = slot->limbo_bytes += bytes;
  }

  pending_count_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now_pending =
      pending_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t hwm = pending_bytes_hwm_.load(std::memory_order_relaxed);
  while (now_pending > hwm &&
         !pending_bytes_hwm_.compare_exchange_weak(
             hwm, now_pending, std::memory_order_relaxed)) {
  }
  retired_count_.fetch_add(1, std::memory_order_relaxed);
  retired_bytes_.fetch_add(bytes, std::memory_order_relaxed);

  // Watermark crossed: this thread runs the pass itself, so retired
  // memory stays bounded whether or not the owner collects.
  if (local_count >= kCountWatermark || local_bytes >= kBytesWatermark) {
    Collect();
  }
}

bool EpochGC::TryAdvanceEpoch() {
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  bool lagging = false;
  ForEachSlot([&](EpochSlot& s) {
    const uint64_t se = s.epoch.load(std::memory_order_acquire);
    if (se != EpochSlot::kIdle && se < e) lagging = true;
  });
  if (lagging) return false;
  if (global_epoch_.compare_exchange_strong(e, e + 1,
                                            std::memory_order_seq_cst)) {
    epoch_advances_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

uint64_t EpochGC::MinActiveEpoch() const {
  // Snapshot the global epoch first: anything retired after this point
  // is newer than what we will free.
  uint64_t min_epoch = global_epoch_.load(std::memory_order_seq_cst);
  ForEachSlot([&](EpochSlot& s) {
    const uint64_t e = s.epoch.load(std::memory_order_acquire);
    if (e != EpochSlot::kIdle && e < min_epoch) min_epoch = e;
  });
  return min_epoch;
}

size_t EpochGC::Collect() {
  // Counted as the pass begins, so a Stats() that reads this pass's drop
  // in pending_count (FreeDetached) also reads the pass.
  collections_.fetch_add(1, std::memory_order_relaxed);
  // Opportunistic advance first so garbage stamped at the current epoch
  // becomes reclaimable in this very pass when no reader lags.
  TryAdvanceEpoch();
  // Order the slot scan after any reader's pin publication — the
  // asymmetric half of the argument in the header comment (membarrier
  // when available, seq_cst fence otherwise).
  HeavyFence();
  const uint64_t min_epoch = MinActiveEpoch();

  GarbageNode* out_head = nullptr;
  GarbageNode* out_tail = nullptr;
  ForEachSlot([&](EpochSlot& s) {
    std::lock_guard<std::mutex> g(s.limbo_mu);
    GarbageNode* n = s.limbo_head;
    if (n == nullptr || n->epoch >= min_epoch) return;
    // Detach the freeable prefix (the list is epoch-sorted by
    // construction: appends stamp the monotone global epoch).
    GarbageNode* first = n;
    GarbageNode* last = nullptr;
    size_t count = 0, bytes = 0;
    while (n != nullptr && n->epoch < min_epoch) {
      last = n;
      ++count;
      bytes += n->bytes;
      n = n->next;
    }
    s.limbo_head = n;
    if (n == nullptr) s.limbo_tail = nullptr;
    s.limbo_count -= count;
    s.limbo_bytes -= bytes;
    last->next = nullptr;
    if (out_tail != nullptr) {
      out_tail->next = first;
    } else {
      out_head = first;
    }
    out_tail = last;
  });

  return FreeDetached(out_head);
}

size_t EpochGC::FreeDetached(GarbageNode* head) {
  // Free outside every lock: deleters may be arbitrarily expensive
  // (delta-chain walks, multi-MB structure frees).
  size_t freed = 0, freed_bytes = 0;
  for (GarbageNode* n = head; n != nullptr;) {
    GarbageNode* next = n->next;
    n->free_fn(n->object);
    freed_bytes += n->bytes;
    delete n;
    n = next;
    ++freed;
  }
  if (freed != 0) {
    freed_count_.fetch_add(freed, std::memory_order_relaxed);
    freed_bytes_.fetch_add(freed_bytes, std::memory_order_relaxed);
    pending_bytes_.fetch_sub(freed_bytes, std::memory_order_relaxed);
    // Last and release: a Stats() that reads the drop in pending_count
    // also reads the freed totals above.
    pending_count_.fetch_sub(freed, std::memory_order_release);
  }
  return freed;
}

size_t EpochGC::CollectAll() {
  GarbageNode* out_head = nullptr;
  GarbageNode* out_tail = nullptr;
  ForEachSlot([&](EpochSlot& s) {
    std::lock_guard<std::mutex> g(s.limbo_mu);
    if (s.limbo_head == nullptr) return;
    if (out_tail != nullptr) {
      out_tail->next = s.limbo_head;
    } else {
      out_head = s.limbo_head;
    }
    out_tail = s.limbo_tail;
    s.limbo_head = nullptr;
    s.limbo_tail = nullptr;
    s.limbo_count = 0;
    s.limbo_bytes = 0;
  });
  return FreeDetached(out_head);
}

EpochGCStats EpochGC::Stats() const {
  EpochGCStats s;
  s.pending_count = pending_count_.load(std::memory_order_acquire);
  s.pending_bytes = pending_bytes_.load(std::memory_order_relaxed);
  s.retired_count = retired_count_.load(std::memory_order_relaxed);
  s.retired_bytes = retired_bytes_.load(std::memory_order_relaxed);
  s.retired_bytes_hwm = pending_bytes_hwm_.load(std::memory_order_relaxed);
  s.freed_count = freed_count_.load(std::memory_order_relaxed);
  s.freed_bytes = freed_bytes_.load(std::memory_order_relaxed);
  s.epoch_advances = epoch_advances_.load(std::memory_order_relaxed);
  s.collections = collections_.load(std::memory_order_relaxed);
  s.global_epoch = global_epoch_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cpma
