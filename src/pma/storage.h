// Physical storage of a packed memory array.
//
// Layout: one contiguous (rewirable) region of num_segments * B items.
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
// The region owns an equally sized buffer. Rebalances write the new
// layout into the buffer and publish it with SwapWindow(): one tagged
// copy by default, or — with use_rewiring, the opt-in A/B arm — a page
// remap when alignment permits (see rewiring/rewiring.h and the measured
// costs in PmaConfig::use_rewiring). The region is memfd-backed either
// way, so COW snapshot views do not depend on the publish mechanism.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/tagged.h"
#include "pma/item.h"
#include "rewiring/rewiring.h"

namespace cpma {

class Storage {
 public:
  /// Aborts on allocation failure (callers that cannot degrade: tests,
  /// the sequential PMA, initial snapshot construction).
  Storage(size_t num_segments, size_t segment_capacity, bool use_rewiring);

  /// Fallible variant for callers with a degradation path (the
  /// rebalancer's resize). Returns nullptr with `status` set to
  /// ResourceExhausted when the region or metadata allocation fails (or
  /// the storage.create failpoint fires); never aborts.
  static std::unique_ptr<Storage> TryCreate(size_t num_segments,
                                            size_t segment_capacity,
                                            bool use_rewiring, Status* status);

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

  /// Publish buffer[seg_begin, seg_end) into the live region (rewire or
  /// copy). Segment-granular; see class comment.
  void SwapWindow(size_t seg_begin, size_t seg_end);

  /// Recompute route[] entries for segments in [seg_begin, seg_end) from
  /// the live data (used after rebalances).
  void RebuildRoutes(size_t seg_begin, size_t seg_end);

  uint64_t num_remaps() const { return region_->num_remaps(); }
  uint64_t num_fallback_copies() const {
    return region_->num_fallback_copies();
  }
  uint64_t num_remap_failures() const {
    return region_->num_remap_failures();
  }

  /// True when the region runs degraded: the anonymous fallback backend
  /// (no memfd, so no COW snapshot views and no remaps), or a region
  /// that degraded after a remap failure. Copy publishes chosen by
  /// use_rewiring=false are the default, not a degradation.
  bool fallback_backend_active() const { return !region_->rewiring_enabled(); }
  size_t page_bytes() const { return region_->page_bytes(); }
  size_t backing_page_bytes() const { return region_->backing_page_bytes(); }

  /// Total bytes of one segment.
  size_t segment_bytes() const { return segment_capacity_ * sizeof(Item); }

  // --------------------------------------------------- COW snapshots
  // Thin passthroughs to the region's snapshot-view layer (ISSUE 9).
  // Offsets are item indices; the region works in bytes.

  /// Point-in-time read-only view of the item region; nullptr (with
  /// `status`) when the backend can't support one — callers degrade to
  /// heap copies. The view's byte at offset i*sizeof(Item) images
  /// items_[i].
  std::unique_ptr<RewiredRegion::SnapshotView> CreateSnapshotView(
      Status* status = nullptr) {
    return region_->CreateSnapshotView(status);
  }

  /// Freeze the view's image of the page-aligned interior of items
  /// [item_begin, item_end); see RewiredRegion::CowPreserveRange.
  RewiredRegion::CowResult CowPreserveItems(
      const RewiredRegion::SnapshotView& view, size_t item_begin,
      size_t item_end) {
    return region_->CowPreserveRange(view, item_begin * sizeof(Item),
                                     (item_end - item_begin) * sizeof(Item));
  }

  uint64_t snapshot_views_open() const { return region_->snapshot_views_open(); }
  uint64_t cow_page_copies() const { return region_->cow_page_copies(); }
  uint64_t cow_retained_page_bytes() const {
    return region_->cow_retained_page_bytes();
  }

 private:
  // Uninitialized shell for TryCreate; Init() does the real work.
  Storage() = default;
  bool Init(size_t num_segments, size_t segment_capacity, bool use_rewiring,
            Status* status);

  size_t num_segments_;
  size_t segment_capacity_;
  std::unique_ptr<RewiredRegion> region_;
  Item* items_;
  Item* buffer_;
  std::vector<uint32_t> card_;
  std::vector<Key> route_;
  std::vector<uint32_t> inserts_;
  bool force_copy_ = false;  // !use_rewiring: SwapWindow always copies
};

}  // namespace cpma
