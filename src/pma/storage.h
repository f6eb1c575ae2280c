// Physical storage of a packed memory array.
//
// Layout: one contiguous array of num_segments * B items.
// Elements inside a segment are left-packed and sorted; gaps occupy the
// tail of each segment. Per-segment metadata lives in dense side arrays:
//
//  - card[s]:   number of live elements in segment s
//  - route[s]:  routing key — the minimum key of segment s when card > 0,
//               kKeyMin for segment 0, kKeySentinel for (suffix) empty
//               segments. Strictly non-decreasing; an upper-bound search
//               over route[] yields the unique segment that may contain a
//               key. Empty segments can only form a suffix and only when
//               the total cardinality is below the number of segments.
//  - inserts[s]: decayed insertion counter driving adaptive rebalancing.
//
// The array owns an equally sized buffer; both live in one anonymous
// private mapping (array first), zero on first touch. Rebalances write
// the new layout into the buffer and publish it with SwapWindow(), one
// tagged copy. Copy is the only publish: the paper's page-remap publish
// (memory rewiring over an in-memory file) cost 10-17x the copy it
// replaces on 4 KiB pages (64 MiB array, 2 reader threads: 12 us vs
// 1.1 us for a one-page window, 452 us vs 45 us for 64 pages, 4.66 ms
// vs 0.31 ms for 512), plus a page fault per page on the next touch.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/tagged.h"
#include "pma/item.h"

namespace cpma {

class Storage {
 public:
  /// Aborts on allocation failure (callers that cannot degrade: tests,
  /// the sequential PMA, initial snapshot construction).
  Storage(size_t num_segments, size_t segment_capacity);

  /// Fallible variant for callers with a degradation path (the
  /// rebalancer's resize, bulk loads). Returns nullptr with `status` set
  /// to ResourceExhausted when the mapping or metadata allocation fails
  /// (or the storage.create failpoint fires); never aborts.
  static std::unique_ptr<Storage> TryCreate(size_t num_segments,
                                            size_t segment_capacity,
                                            Status* status);

  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  size_t num_segments() const { return num_segments_; }
  size_t segment_capacity() const { return segment_capacity_; }
  size_t capacity() const { return num_segments_ * segment_capacity_; }

  Item* segment(size_t s) { return items_ + s * segment_capacity_; }
  const Item* segment(size_t s) const { return items_ + s * segment_capacity_; }
  Item* buffer_segment(size_t s) { return buffer_ + s * segment_capacity_; }

  // Cardinalities and routing keys are read by optimistic (latch-free)
  // readers while a latched writer stores them, so every access goes
  // through the tagged relaxed-atomic helpers (common/tagged.h) — the
  // same plain mov in production, visible-as-atomic under TSan. A torn
  // concurrent read returns some previously stored word: card stays
  // <= segment_capacity and route indexes stay in the chunk, and the
  // gate version validation discards the unstable window.
  uint32_t card(size_t s) const { return TaggedLoad(&card_[s]); }
  void set_card(size_t s, uint32_t c) { TaggedStore(&card_[s], c); }

  Key route(size_t s) const { return TaggedLoad(&route_[s]); }
  void set_route(size_t s, Key k) { TaggedStore(&route_[s], k); }
  const std::vector<Key>& routes() const { return route_; }

  uint32_t insert_count(size_t s) const { return inserts_[s]; }
  void bump_insert_count(size_t s) { ++inserts_[s]; }
  void set_insert_count(size_t s, uint32_t c) { inserts_[s] = c; }

  /// Rightmost segment whose routing key is <= key. Always a valid,
  /// non-empty segment (or segment 0 when the array is empty).
  size_t RouteSegment(Key key) const;

  /// Publish buffer[seg_begin, seg_end) into the live array by one
  /// tagged copy. Segment-granular; see class comment.
  void SwapWindow(size_t seg_begin, size_t seg_end);

  /// Recompute route[] entries for segments in [seg_begin, seg_end) from
  /// the live data (used after rebalances).
  void RebuildRoutes(size_t seg_begin, size_t seg_end);

  /// Total bytes of one segment.
  size_t segment_bytes() const { return segment_capacity_ * sizeof(Item); }

 private:
  // Uninitialized shell for TryCreate; Init() does the real work.
  Storage() = default;
  bool Init(size_t num_segments, size_t segment_capacity, Status* status);
  size_t MappedBytes() const { return 2 * capacity() * sizeof(Item); }

  size_t num_segments_ = 0;
  size_t segment_capacity_ = 0;
  Item* items_ = nullptr;   // the mapping: capacity() items, then buffer_
  Item* buffer_ = nullptr;  // items_ + capacity()
  std::vector<uint32_t> card_;
  std::vector<Key> route_;
  std::vector<uint32_t> inserts_;
};

}  // namespace cpma
