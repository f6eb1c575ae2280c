// PMASnapshot — a frozen, consistent point-in-time view of a
// ConcurrentPMA (ISSUE 9), captured without stopping the world.
//
// Capture is O(1) in the data size: Snapshot() pins the current
// Structure in a dedicated epoch slot and registers itself with the
// PMA. No chunk is copied up front. The snapshot's image of each gate is
// fixed lazily, at that gate's *capture point* — the first
// post-snapshot mutation of the gate (which preserves the pre-image
// first, see ConcurrentPMA::PreserveGateForSnapshots) or the snapshot's
// own first read of it, whichever comes first. A mutator that raced
// ahead of the registration simply linearizes before the capture point.
// Because window rebalances preserve every gate of their window while
// holding all of them, fence moves land atomically on one side of the
// cut: the per-gate fences of the snapshot always form a proper
// partition of the key space, so sequential gate iteration yields an
// ordered scan with zero retries — there is structurally no restart
// path in the reader below.
//
// Per-gate image (GateSnap): the fence keys, the cardinalities and one
// heap copy of the whole chunk, taken under the preserving hold on every
// storage backend. Readers materialize a gate from its entry when
// present; an absent entry means the gate is untouched since capture,
// so a validated optimistic read of the live chunk (or the blocking
// READ latch once the PMA's optimistic retry budget is spent) returns
// the frozen image.
// After any live read the reader re-checks the entry slot: a writer
// that preserved + mutated + released entirely inside the read window
// wins, and its entry is used instead.
//
// Destruction deregisters the snapshot, which leaves its GateSnap
// entries unreachable (only PreserveGateSlow, under snaps_mu_, and the
// snapshot's own readers reach them), frees them in place, and only
// then releases the epoch pin that kept the Structure alive.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/epoch_gc.h"
#include "common/ordered_map.h"
#include "pma/item.h"

namespace cpma {

class ConcurrentPMA;
struct Structure;

namespace snapshot_internal {

/// Frozen image of one gate's chunk, built once under the preserving
/// hold (gate exclusively owned, snaps_mu_ held).
struct GateSnap {
  Key low_fence = kKeyMin;
  Key high_fence = kKeySentinel;
  std::vector<uint32_t> cards;  // per segment of the chunk
  std::vector<char> full;       // the whole chunk's bytes

  size_t bytes() const {
    return sizeof(GateSnap) + cards.capacity() * sizeof(uint32_t) +
           full.capacity();
  }
};

}  // namespace snapshot_internal

class PMASnapshot {
 public:
  ~PMASnapshot();

  PMASnapshot(const PMASnapshot&) = delete;
  PMASnapshot& operator=(const PMASnapshot&) = delete;

  /// Point lookup in the frozen image.
  bool Find(Key key, Value* value) const;

  /// Sum of all values in the frozen image.
  uint64_t SumAll() const;

  /// Ordered range scan over the frozen image; the callback's bool
  /// return stops the scan early, exactly like OrderedMap::Scan.
  void Scan(Key min, Key max, const ScanCallback& cb) const;

  /// Number of live items in the frozen image (counted, not cached).
  uint64_t CountItems() const;

  /// Monotone capture stamp (1-based, per PMA).
  uint64_t stamp() const { return stamp_; }

  /// Structure version the snapshot pinned (diagnostics).
  uint64_t structure_version() const { return struct_version_; }

  /// Heap bytes of the gate pre-images (GateSnap entries) this snapshot
  /// holds; ConcurrentPMA::cow_pages_retained_bytes() sums it over the
  /// PMA's open snapshots.
  size_t retained_bytes() const {
    return retained_bytes_.load(std::memory_order_relaxed);
  }

  /// Gates materialized via the blocking READ latch after the
  /// optimistic budget (observability; bounded per gate per read pass).
  uint64_t latched_gate_reads() const {
    return latched_gate_reads_.load(std::memory_order_relaxed);
  }

  /// Scan restarts. Structurally zero — every materialization path
  /// terminates with a definitive frozen image and no gate is ever
  /// re-read within a pass; the counter exists so tests pin down that
  /// property against regressions.
  uint64_t scan_retries() const {
    return scan_retries_.load(std::memory_order_relaxed);
  }

 private:
  friend class ConcurrentPMA;
  PMASnapshot() = default;

  /// Produce gate g's frozen image: chunk bytes into `scratch` (gaps
  /// beyond each segment's card are unspecified), cardinalities and
  /// fences out. Never restarts.
  void MaterializeGate(size_t g, std::vector<char>* scratch,
                       std::vector<uint32_t>* cards, Key* low,
                       Key* high) const;

  const ConcurrentPMA* pma_ = nullptr;
  Structure* snap_ = nullptr;  // epoch-pinned via slot_
  uint64_t stamp_ = 0;
  uint64_t struct_version_ = 0;
  EpochSlot* slot_ = nullptr;  // dedicated pin; never the thread-local slot
  std::unique_ptr<std::atomic<snapshot_internal::GateSnap*>[]> entries_;
  size_t num_gates_ = 0;
  std::atomic<size_t> retained_bytes_{0};
  mutable std::atomic<uint64_t> latched_gate_reads_{0};
  mutable std::atomic<uint64_t> scan_retries_{0};
};

}  // namespace cpma
