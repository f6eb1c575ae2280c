// Latch primitives used across the library.
//
// - CpuRelax: the pause in every spin-wait loop (these latches, gates).
// - SeqVersion: sequence-lock version word for the gates' optimistic
//   read path (§3.1 extension, ISSUE 4). Unlike OptimisticLock below it
//   carries no lock/obsolete bits — the gate's mutex-based state machine
//   stays the writer-side arbiter; the version word only *publishes*
//   whether a mutator holds the chunk.
// - OptimisticLock: version-based latch for Optimistic Lock Coupling
//   (Leis et al., DaMoN'16); used by the ART and Masstree baselines.
//   Readers snapshot a version, do their work, then validate; writers
//   bump the version. The low bit encodes "locked", the second bit
//   "obsolete" (node logically deleted).

#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace cpma {

/// Spin-wait hint: PAUSE on x86, a yield elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Sequence-lock version word (ISSUE 4): even = no mutator, odd = a
/// mutator (gate writer or rebalancer master) owns the protected data.
/// Optimistic readers snapshot an even version, read the data with
/// tagged accesses (common/tagged.h), then validate that the version is
/// unchanged; mutators wrap their critical section in BeginMutate /
/// EndMutate.
///
/// Memory-ordering argument (the classic seqlock recipe, Boehm MSPC'12):
///
///  - BeginMutate is a fetch_add(1, acq_rel). Its acquire half forbids
///    the mutator's subsequent data stores from being reordered before
///    the word turns odd, so no reader can observe new data under an old
///    even version.
///  - EndMutate is a fetch_add(1, release): all data stores are visible
///    before the word turns even again.
///  - ReadBegin is an acquire load: the reader's data loads cannot float
///    above it. If it returns the value EndMutate published, it
///    synchronizes-with that release, so the mutator's stores are
///    visible.
///  - Validate issues an acquire fence *before* re-loading the word:
///    the fence orders every data load before the re-load (LoadLoad |
///    LoadStore), so a data load cannot be satisfied after a mutation
///    that the equality check then misses. Equality of the exact value
///    (not just parity) rejects any intervening mutation.
class SeqVersion {
 public:
  /// Snapshot for an optimistic read; check Stable() before using data.
  uint64_t ReadBegin() const {
    return v_.load(std::memory_order_acquire);
  }

  static bool Stable(uint64_t v) { return (v & 1) == 0; }

  /// True iff no mutation started or completed since `expected` was
  /// returned by ReadBegin (callers pass a Stable value).
  bool Validate(uint64_t expected) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return v_.load(std::memory_order_relaxed) == expected;
  }

  /// Mutator protocol: the caller must already hold exclusive ownership
  /// of the data (gate state machine); these only publish that fact.
  void BeginMutate() { v_.fetch_add(1, std::memory_order_acq_rel); }
  void EndMutate() { v_.fetch_add(1, std::memory_order_release); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Writer-preferring shared/exclusive spin latch.
///
/// glibc's std::shared_mutex is reader-preferring: under a continuous
/// stream of scanners a hot node's writer can starve indefinitely (we
/// measured a 1000x collapse in the skewed benchmarks). This latch
/// blocks *new* readers as soon as a writer announces itself.
/// Interface-compatible with std::shared_mutex.
class FairSharedMutex {
 public:
  void lock() {
    // Announce; only one announcer proceeds to take the write bit.
    for (;;) {
      uint32_t s = state_.load(std::memory_order_relaxed);
      if ((s & kWriterWaiting) == 0 &&
          state_.compare_exchange_weak(s, s | kWriterWaiting,
                                       std::memory_order_acquire)) {
        break;
      }
      CpuRelax();
    }
    // Wait for readers and any active writer to drain, then activate.
    for (;;) {
      uint32_t s = state_.load(std::memory_order_relaxed);
      if ((s & ~kWriterWaiting) == 0 &&
          state_.compare_exchange_weak(s, kWriterActive,
                                       std::memory_order_acquire)) {
        return;
      }
      CpuRelax();
    }
  }

  void unlock() { state_.store(0, std::memory_order_release); }

  void lock_shared() {
    for (;;) {
      uint32_t s = state_.load(std::memory_order_relaxed);
      if ((s & (kWriterActive | kWriterWaiting)) == 0 &&
          state_.compare_exchange_weak(s, s + 1,
                                       std::memory_order_acquire)) {
        return;
      }
      CpuRelax();
    }
  }

  void unlock_shared() {
    state_.fetch_sub(1, std::memory_order_release);
  }

 private:
  static constexpr uint32_t kWriterActive = 1u << 31;
  static constexpr uint32_t kWriterWaiting = 1u << 30;
  std::atomic<uint32_t> state_{0};
};

/// Version latch for optimistic lock coupling.
///
/// Version layout: bit 0 = locked, bit 1 = obsolete, bits 2.. = counter.
class OptimisticLock {
 public:
  static constexpr uint64_t kLockedBit = 1ull;
  static constexpr uint64_t kObsoleteBit = 2ull;

  /// Spin until unlocked, return the (even) version for later validation.
  /// Returns false via `ok` if the node is obsolete and the caller must
  /// restart its traversal.
  uint64_t ReadLockOrRestart(bool& ok) const {
    uint64_t v = AwaitUnlocked();
    ok = (v & kObsoleteBit) == 0;
    return v;
  }

  /// True iff the version did not change since `v` was read.
  bool CheckOrRestart(uint64_t v) const {
    return version_.load(std::memory_order_acquire) == v;
  }

  /// Upgrade a validated read to a write lock. Fails (restart) if the
  /// version moved.
  bool UpgradeToWriteLock(uint64_t v) {
    return version_.compare_exchange_strong(v, v + kLockedBit,
                                            std::memory_order_acquire);
  }

  /// Blocking write lock (spins through concurrent writers).
  /// Returns false if the node became obsolete.
  bool WriteLock() {
    for (;;) {
      uint64_t v = AwaitUnlocked();
      if (v & kObsoleteBit) return false;
      if (version_.compare_exchange_weak(v, v + kLockedBit,
                                         std::memory_order_acquire)) {
        return true;
      }
    }
  }

  void WriteUnlock() {
    // +1 releases the lock bit and bumps the counter (1 -> 4 increments
    // of the counter domain: locked v+1 becomes even v+2... we add 3 so
    // the version stays even with the lock bit clear).
    version_.fetch_add(3, std::memory_order_release);
  }

  /// Unlock and mark the node obsolete (logically deleted).
  void WriteUnlockObsolete() {
    version_.fetch_add(kObsoleteBit + 3, std::memory_order_release);
  }

  bool IsObsolete() const {
    return (version_.load(std::memory_order_acquire) & kObsoleteBit) != 0;
  }

 private:
  uint64_t AwaitUnlocked() const {
    uint64_t v = version_.load(std::memory_order_acquire);
    while (v & kLockedBit) {
      CpuRelax();
      v = version_.load(std::memory_order_acquire);
    }
    return v;
  }

  // Starts even (unlocked, not obsolete).
  std::atomic<uint64_t> version_{4};
};

}  // namespace cpma
