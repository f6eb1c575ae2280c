// Memory rewiring (Schuhknecht et al., "RUMA has it", PVLDB'16; paper §2).
//
// A RewiredRegion is a contiguous virtual address range whose pages are
// individually backed by pages of an in-memory file (memfd). A second
// virtual range — the buffer — is backed by spare pages of the same file.
// A rebalance copies elements into the buffer once, then SwapPages()
// exchanges the *mappings*, so the copied data appears in the array
// without a second copy, and the array's old physical pages become the
// next buffer (exactly the protocol in the paper).
//
// When memfd/mmap are unavailable (restricted sandbox), the region
// degrades to plain allocation and SwapPages() performs the second copy;
// rewiring_enabled() reports which mode is active so benchmarks can
// label results.
//
// Storage publishes rebalances by tagged copy unless
// PmaConfig::use_rewiring opts into SwapPages; the remap arm is the only
// user of the memfd backing. Snapshots do not touch this layer: they keep
// each gate's pre-image as a heap copy (concurrent/snapshot.h).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace cpma {

class RewiredRegion {
 public:
  /// Create a region of `region_bytes` plus a buffer of `buffer_bytes`;
  /// both are rounded up to whole pages. `want_huge_pages` requests
  /// transparent huge pages via madvise (best effort).
  ///
  /// Degradation ladder: memfd + mmap first; any syscall failure there
  /// (or CPMA_FORCE_NO_REWIRE=1 in the environment, or the
  /// rewiring.{memfd,ftruncate,mmap} failpoints) falls back to the
  /// anonymous plain-allocation backend where SwapPages copies. Only
  /// when even that allocation fails does Create return nullptr, with
  /// `status` (when non-null) set to ResourceExhausted.
  static std::unique_ptr<RewiredRegion> Create(size_t region_bytes,
                                               size_t buffer_bytes,
                                               bool want_huge_pages = true,
                                               Status* status = nullptr);

  ~RewiredRegion();

  RewiredRegion(const RewiredRegion&) = delete;
  RewiredRegion& operator=(const RewiredRegion&) = delete;

  char* data() { return region_; }
  const char* data() const { return region_; }
  char* buffer() { return buffer_; }

  size_t region_bytes() const { return region_bytes_; }
  size_t buffer_bytes() const { return buffer_bytes_; }
  size_t page_size() const { return page_size_; }

  /// True when real mmap-based rewiring is active (as opposed to the
  /// memcpy fallback) and the region has not degraded to copy publishes
  /// after a remap failure.
  bool rewiring_enabled() const {
    return fd_ >= 0 && !degraded_.load(std::memory_order_relaxed);
  }

  /// True once a remap publication failed and the region permanently
  /// switched to the tagged-copy publish path (memory stays valid; only
  /// the zero-copy exchange is lost). Sticky.
  bool degraded_to_copy() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// True iff the given byte range can be swapped by remapping (both
  /// offsets and the length are page aligned and in range).
  bool CanSwap(size_t region_offset, size_t buffer_offset, size_t len) const;

  /// Exchange the backing of region[region_offset, +len) with
  /// buffer[buffer_offset, +len). Page aligned ranges only (CanSwap).
  /// Postcondition: the region range contains what the buffer range
  /// contained. In rewired mode the exchange is bidirectional (old array
  /// pages become buffer); in fallback mode the buffer content is copied
  /// and the buffer range keeps a stale copy.
  void SwapPages(size_t region_offset, size_t buffer_offset, size_t len);

  /// Number of mmap invocations performed so far (observability for
  /// tests and the micro benchmark).
  uint64_t num_remaps() const {
    return num_remaps_.load(std::memory_order_relaxed);
  }

  /// Number of SwapPages calls that degraded to the memcpy fallback
  /// (no memfd / restricted sandbox). Together with num_remaps this
  /// tells a bench run which publish mechanism it actually measured.
  uint64_t num_fallback_copies() const {
    return num_fallback_copies_.load(std::memory_order_relaxed);
  }

  /// Remap publications that failed (real mmap error or injected fault)
  /// and were recovered by restoring the old mappings and publishing via
  /// the tagged-copy path instead.
  uint64_t num_remap_failures() const {
    return num_remap_failures_.load(std::memory_order_relaxed);
  }

  /// Mapping granularity (the unit SwapPages exchanges) — sysconf page
  /// size. See backing_page_bytes() for the physical page size.
  size_t page_bytes() const { return page_size_; }

  /// Physical page size actually backing the live region *right now*:
  /// 2 MiB when the kernel honoured MADV_HUGEPAGE for this mapping
  /// (probed via /proc/self/smaps, so the answer reflects faulted-in
  /// state, not just the request), else the 4 KiB base page size.
  /// ROADMAP: benches report this so huge-page A/Bs are labelled with
  /// what a run really used instead of what it asked for.
  size_t backing_page_bytes() const;

 private:
  RewiredRegion() = default;

  // Remap-publication internals (rewired mode only). TrySwapRemap swaps
  // the backing tables and republishes both ranges with mmap(MAP_FIXED);
  // on any per-run failure it restores the pre-swap tables and mappings
  // and returns false so SwapPages can publish by tagged copy instead.
  bool TrySwapRemap(size_t region_offset, size_t buffer_offset, size_t len);
  bool RemapRuns(char* base, size_t first_page, size_t pages,
                 const std::vector<size_t>& backing, size_t lo,
                 bool allow_failpoints);
  void DegradeToCopy(const char* reason, int saved_errno);

  char* region_ = nullptr;
  char* buffer_ = nullptr;
  size_t region_bytes_ = 0;
  size_t buffer_bytes_ = 0;
  size_t page_size_ = 4096;
  int fd_ = -1;  // memfd; -1 => fallback mode

  // Physical (file) page index backing each virtual page. Concurrent
  // swaps cover disjoint ranges (local spreads and the rebalancer master
  // hold disjoint gates), so the tables need no lock.
  std::vector<size_t> region_backing_;
  std::vector<size_t> buffer_backing_;

  // Atomic: swaps of disjoint ranges run concurrently.
  std::atomic<uint64_t> num_remaps_{0};
  std::atomic<uint64_t> num_fallback_copies_{0};
  std::atomic<uint64_t> num_remap_failures_{0};

  // Set once a remap publication failed; all later SwapPages publish by
  // copy. Workers race to set it (relaxed is fine — it only ever goes
  // false -> true and the copy path is always correct).
  std::atomic<bool> degraded_{false};
};

}  // namespace cpma
